"""`python -m regpow.cli` for the checkout under test, with timestamps for the benchmark.

    python3 perfbench/cli_main.py <record-file> <mode> <spawn-time> <regpow arguments...>

Runs `regpow.cli.main` on the arguments exactly as `python -m regpow.cli`
does, and writes a JSON record of when main started, when the first value
was requested and when main returned.  mode `trace` also installs the
outside-in tracer and records its snapshot; mode `setup` exits at the first
value requested, before any is computed.
"""
from __future__ import annotations

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


class _SetupDone(Exception):
    pass


def main(argv) -> int:
    path, mode, spawned, args = argv[0], argv[1], float(argv[2]), argv[3:]
    sys.path[:0] = [SRC, HERE]
    import regpow.cli as cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported regpow from {cli.__file__}, not from {SRC}")
    tracer = None
    if mode == "trace":
        import tracer as tracing

        tracer = tracing.Tracer().install()
    record = {"spawned": spawned, "first": None}
    report = cli.defect_report

    def first_value(*a, **kw):
        if record["first"] is None:
            record["first"] = time.monotonic()
            if mode == "setup":
                raise _SetupDone
        return report(*a, **kw)

    cli.defect_report = first_value
    record["main"] = time.monotonic()
    try:
        code = cli.main(args)
    except _SetupDone:
        code = 0
    record["end"] = time.monotonic()
    record["code"] = code
    record["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        record["trace"] = tracer.snapshot()
    sys.stdout.flush()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
