"""One repetition of an in-process workload, in a fresh interpreter.

    python3 perfbench/worker.py <workload> <seed> <mode> <spawn-time> [crosscheck]

mode is `plain`, `trace` (one warm pass, under the outside-in tracer) or
`setup` (stop at the first value requested).
<spawn-time> is `time.monotonic()` in the parent just before it started this
process, so set-up time includes interpreter start.  The record is one JSON
line on stdout.
"""
from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WARM_MIN_S = 0.5  # cheap warm passes repeat until they add up to this; warm_s is their median


def encode(value):
    return "-inf" if value == float("-inf") else value


def memo_sizes() -> dict:
    """Entries in each of the engine's module-level memos."""
    import importlib

    modules, betti, regfun = (importlib.import_module(f"regpow.{m}") for m in ("modules", "betti", "regfun"))
    memos = {
        "standard_monomials": modules.standard_monomials,
        "basis": modules.basis,
        "betti_table": betti._betti_table_memo,
        "lifted_power": regfun.PresentedIdeal._lifted_power,
    }
    return {name: fn.cache_info().currsize for name, fn in memos.items()}


def main(argv) -> int:
    workload, seed, mode, spawned = argv[0], int(argv[1]), argv[2], float(argv[3])
    crosscheck = argv[4:] == ["crosscheck"]
    sys.path[:0] = [SRC, HERE]
    import regpow

    if not os.path.abspath(regpow.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported regpow from {regpow.__file__}, not from {SRC}")
    record = {"memo_at_start": memo_sizes()}
    tracer = None
    if mode == "trace":
        import tracer as tracing

        tracer = tracing.Tracer().install()
        snaps = [tracer.snapshot()]
    import workloads

    windows = workloads.INPUTS[workload](seed)
    first = time.monotonic()
    record["setup_s"] = first - spawned
    if mode == "setup":
        print(json.dumps(record))
        return 0
    if tracer:
        snaps.append(tracer.snapshot())

    values, latencies, raised = [], [], []
    clock = time.perf_counter
    start = clock()
    for _, presented, fn, n_max in windows:
        call = getattr(presented, fn)
        for n in range(1, n_max + 1):
            t = clock()
            try:
                value = call(n)
            except Exception as exc:  # a raising value is a failure, not a crash
                value = f"raised {type(exc).__name__}: {exc}"
                raised.append(len(values))
            latencies.append(clock() - t)
            values.append(value)
    record["wall_s"] = clock() - start
    if tracer:
        snaps.append(tracer.snapshot())

    bad = set(raised)
    warm_times = []
    while not warm_times or (not tracer and sum(warm_times) < WARM_MIN_S):
        warm_values = []
        start = clock()
        for _, presented, fn, n_max in windows:
            try:
                warm_values.extend(regpow.defect_report(presented, fn, 1, n_max).values)
            except Exception as exc:
                warm_values.extend([f"raised {type(exc).__name__}: {exc}"] * n_max)
        warm_times.append(clock() - start)
        bad.update(i for i, (a, b) in enumerate(zip(values, warm_values)) if a != b)
    record["warm_s"] = statistics.median(warm_times)
    record["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        snaps.append(tracer.snapshot())
        record["trace"] = snaps

    bad.update(workloads.check_references(windows, values))
    if workload == "corpus":
        bad.update(workloads.check_corpus_properties(windows, values))
        if crosscheck:
            disputed = workloads.crosscheck_sample(windows, values, seed)
            record["crosscheck_disputed"] = len(disputed)
            bad.update(disputed)
    record["values"] = [encode(v) for v in values]
    record["latencies"] = latencies
    record["failed"] = sorted(bad)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
