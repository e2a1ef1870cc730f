"""regpow benchmark: four fixed workloads, end-to-end metrics, and an outside-in per-layer trace.

    python3 perfbench/run.py --workload golden-reg --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20     # one row per workload

Workloads (see BENCHMARK.json for why each one is there):
  golden-reg    reg_power, reg_quotient, reg_diff of m2_reg, n = 1..6
  sdeg-windows  sdeg of ehl r=3 (n <= 3), cycle t=3 (n <= 2), m2_sdeg (n <= 5)
  corpus        reg_quotient, reg_diff, sdeg, n = 1..4, of a seeded stratified
                corpus of small presented ideals (perfbench/corpus.py)
  cli-cache     `regpow compute` for reg, regquot, regdiff --to 6 on the m2_reg
                spec file, cold and then warm against one fresh REGPOW_CACHE

Every repetition runs in fresh processes that import regpow from this
checkout's src/, with REGPOW_CACHE unset except in cli-cache, so no memo
carries over between repetitions.  A run repeats the workload until
--seconds are used and reports medians; set-up is also measured in extra
processes that stop at the first value requested.

--trace 0 prints the end-to-end metrics, and in its table also warm_s and
fail_ratio, which BENCHMARK.json does not gate.  --trace 1 alternates untraced and
traced repetitions and prints the per-layer metrics, the tracing overhead
and the outcome of the trace self-checks.  Either way, the last line of
stdout is one JSON object with the keys correct, attempted, failed, metrics.
The seed only changes the corpus workload's inputs; the others are fixed.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402  (stdlib only; imports no regpow code)

WORKLOADS = ("golden-reg", "sdeg-windows", "corpus", "cli-cache")
SETUP_PROBES = 3  # set-up-only processes per run, on top of one set-up per repetition
HARD_LIMIT_S = 165  # a run must finish well within 180 s
CLI_FLAGS = ("reg", "regquot", "regdiff")
CLI_TO = 6
CLI_WARM_PASSES = 2  # warm_s is the median pass: a warm invocation is short and noisy
GOLDEN_BY_FLAG = {"reg": "reg_power", "regquot": "reg_quotient", "regdiff": "reg_diff"}


class Run:
    """Child processes of one benchmark run, all bounded by one deadline."""

    def __init__(self):
        self.started = time.monotonic()
        self.env = {k: v for k, v in os.environ.items() if k not in ("REGPOW_CACHE", "PYTHONPATH")}
        self.env["PYTHONHASHSEED"] = "0"  # same set iteration order in every process

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def spawn(self, argv, env=None):
        """Run `python3 argv...` to completion, with `{t}` in argv replaced by the spawn time.

        Returns (stdout, spawn time, exit time); a child that fails or outlives
        the run's hard limit ends the run with an error instead of a result.
        """
        spawned = time.monotonic()
        proc = subprocess.run(
            [sys.executable] + [a.replace("{t}", repr(spawned)) for a in argv],
            cwd=ROOT,
            env=env or self.env,
            capture_output=True,
            text=True,
            timeout=max(1.0, HARD_LIMIT_S - self.elapsed()),
        )
        ended = time.monotonic()
        if proc.returncode != 0:
            raise RuntimeError(f"{argv[:3]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return proc.stdout, spawned, ended


# ---------------------------------------------------------------- in-process workloads


def inprocess_rep(run, workload, seed, mode, crosscheck=False) -> dict:
    argv = [os.path.join(HERE, "worker.py"), workload, str(seed), mode, "{t}"]
    out, _, _ = run.spawn(argv + (["crosscheck"] if crosscheck else []))
    rec = json.loads(out.strip().splitlines()[-1])
    rep = {
        "setup_s": rec["setup_s"],
        "memo_at_start": rec["memo_at_start"],
    }
    if mode == "setup":
        return rep
    rep.update(
        wall_s=rec["wall_s"],
        warm_s=rec["warm_s"],
        rss_kb=rec["rss_kb"],
        latencies=rec["latencies"],
        values=rec["values"],
        attempted=len(rec["values"]),
        failed=len(rec["failed"]),
        trace_wall=rec["wall_s"],
        crosscheck_disputed=rec.get("crosscheck_disputed"),
    )
    if mode == "trace":
        s0, s1, s2, s3 = rec["trace"]
        rep["phases"] = {
            "setup": tracing.combine([s1, s0], -1),
            "cold": tracing.combine([s2, s1], -1),
            "warm": tracing.combine([s3, s2], -1),
            "end": s2,
        }
        rep["process_start_s"] = 0.0
    return rep


# ---------------------------------------------------------------- cli-cache


def cli_rep(run, seed, mode) -> dict:
    """construct, then compute for each flag cold and warm against one fresh disk cache."""
    tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        spec = os.path.join(tmp, "m2_reg.spec")
        cache = os.path.join(tmp, "cache.json")
        env = dict(run.env, REGPOW_CACHE=cache)
        launcher = os.path.join(HERE, "cli_main.py")
        records = []

        def invoke(role, args, child_mode):
            path = os.path.join(tmp, f"record{len(records)}.json")
            out, spawned, ended = run.spawn([launcher, path, child_mode, "{t}"] + args, env)
            with open(path, encoding="utf-8") as fh:
                rec = json.load(fh)
            rec.update(role=role, stdout=out, latency=ended - spawned)
            records.append(rec)

        invoke("setup", ["construct", "--family", "m2_reg", "--out", spec], "plain" if mode == "setup" else mode)
        computes = [["compute", "--input", spec, "--fn", flag, "--to", str(CLI_TO)] for flag in CLI_FLAGS]
        for args in computes:
            invoke("cold", args, mode)
        if mode == "setup":
            return {"setup_s": _cli_setup(records), "memo_at_start": {}}
        with open(cache, encoding="utf-8") as fh:
            disk_entries = len(json.load(fh))
        disk_bytes = os.path.getsize(cache)
        for _ in range(1 if mode == "trace" else CLI_WARM_PASSES):
            for args in computes:
                invoke("warm", args, mode)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    from workloads import GOLDEN  # imports regpow, so only once src/ is known to exist

    cold = [r for r in records if r["role"] == "cold"]
    warm = [r for r in records if r["role"] == "warm"]
    failed = 0
    for k, (flag, c) in enumerate(zip(CLI_FLAGS, cold)):
        rows = _csv_values(c["stdout"])
        ref = list(GOLDEN[GOLDEN_BY_FLAG[flag]])
        if any(w["stdout"] != c["stdout"] for w in warm[k :: len(CLI_FLAGS)]):
            failed += len(ref)
        else:
            failed += sum(a != b for a, b in zip(rows, ref)) + max(0, len(ref) - len(rows))
    passes = [warm[i : i + len(CLI_FLAGS)] for i in range(0, len(warm), len(CLI_FLAGS))]
    rep = {
        "setup_s": _cli_setup(records),
        "memo_at_start": {},
        "wall_s": sum(r["end"] - r["first"] for r in cold),
        "warm_s": statistics.median(sum(r["end"] - r["first"] for r in p) for p in passes),
        "rss_kb": max(r["rss_kb"] for r in records),
        "latencies": [r["latency"] for r in cold],
        "values": [r["stdout"] for r in cold],
        "attempted": len(CLI_FLAGS) * CLI_TO,
        "failed": failed,
        "trace_wall": sum(r["end"] - r["main"] for r in cold),
    }
    if mode == "trace":
        by_role = {role: tracing.combine([r["trace"] for r in records if r["role"] == role]) for role in ("setup", "cold", "warm")}
        by_role["end"] = by_role["cold"]
        rep["phases"] = by_role
        rep["process_start_s"] = sum(r["main"] - r["spawned"] for r in records)
        rep["disk_cache"] = (disk_entries, disk_bytes)
    return rep


def _cli_setup(records) -> float:
    """Construct's whole run plus each cold-pass compute's time to its first value request."""
    total = 0.0
    for r in records:
        if r["role"] == "setup":
            total += r["end"] - r["spawned"]
        elif r["role"] == "cold":
            total += r["first"] - r["spawned"]
    return total


def _csv_values(text) -> list:
    rows = []
    for line in text.splitlines()[1:]:
        cell = line.split(",")[1]
        rows.append(float(cell) if cell == "-inf" else int(cell))
    return rows


# ---------------------------------------------------------------- one run


def rep(run, workload, seed, mode, first=False) -> dict:
    if workload == "cli-cache":
        return cli_rep(run, seed, mode)
    return inprocess_rep(run, workload, seed, mode, crosscheck=first and workload == "corpus")


def measure(workload, seed, seconds, trace) -> dict:
    run = Run()
    setups, reps, traced = [], [], []
    if not trace:
        for _ in range(SETUP_PROBES):
            setups.append(rep(run, workload, seed, "setup"))
    while True:
        began = run.elapsed()
        reps.append(rep(run, workload, seed, "plain", first=not reps))
        if trace:
            traced.append(rep(run, workload, seed, "trace"))
        if run.elapsed() + (run.elapsed() - began) > seconds:
            break
    return {"setups": setups + reps, "reps": reps, "traced": traced, "elapsed": run.elapsed()}


def end_to_end(m) -> dict:
    reps = m["reps"]
    lat = [x for r in reps for x in r["latencies"]]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in m["setups"]),
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "warm_s": statistics.median(r["warm_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["rss_kb"] for r in reps) / 1024,
        "value_p50_ms": 1e3 * statistics.median(lat),
        "value_p90_ms": 1e3 * statistics.quantiles(lat, n=10, method="inclusive")[8],
    }


def per_layer(m) -> tuple:
    """Median per-layer metrics over the traced repetitions, and the self-check outcomes."""
    rows = []
    checks = {}
    for r in m["traced"]:
        p = r["phases"]
        row = tracing.layer_metrics(p["setup"], p["cold"], p["warm"], p["end"])
        row["cli.process_start_s"] = r["process_start_s"]
        entries, size = r.get("disk_cache", (0, 0))
        row["betti.disk_cache.entries"] = entries
        row["betti.disk_cache.bytes"] = size
        row["trace.wall_s"] = r["wall_s"]
        rows.append(row)
        every = tracing.combine([p["setup"], p["cold"], p["warm"]])
        tables, by_table, artinian, nonzero = (
            every.get(name, [0])[0]
            for name in ("betti.betti_table", "betti.regularity.by_table", "betti.regularity.artinian", "betti.regularity.nonzero")
        )
        checks.setdefault("betti_table calls + artinian = nonzero regularity calls", []).append(
            tables == by_table and by_table + artinian == nonzero
        )
        checks.setdefault("layer self times sum <= traced wall", []).append(
            sum(tracing.layer_self_s(p["cold"]).values()) <= r["trace_wall"]
        )
    for plain, traced in zip(m["reps"], m["traced"]):
        checks.setdefault("traced values = untraced values", []).append(plain["values"] == traced["values"])
    out = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    untraced = statistics.median(r["wall_s"] for r in m["reps"])
    out["trace.untraced_wall_s"] = untraced
    out["trace.overhead_share"] = out["trace.wall_s"] / untraced - 1
    ok = {name: all(results) for name, results in checks.items()}
    out["trace.checks_failed"] = sum(not v for v in ok.values())
    return out, ok


def provenance(workload, seed, seconds, trace, m) -> dict:
    digest = hashlib.sha256()
    for base, _, files in sorted(os.walk(os.path.join(SRC, "regpow"))):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):  # an exported checkout has none; src_sha256 identifies it
        try:
            proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "repetitions": len(m["reps"]),
        "traced_repetitions": len(m["traced"]),
        "setup_samples": len(m["setups"]) if not trace else 0,
        "run_s": round(m["elapsed"], 3),
    }


def result(workload, seed, seconds, trace, units) -> tuple:
    m = measure(workload, seed, seconds, trace)
    reps = m["reps"] + m["traced"]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    memo_clean = all(not any(r["memo_at_start"].values()) for r in reps + m["setups"])
    record = provenance(workload, seed, seconds, trace, m)
    record["values_per_repetition"] = m["reps"][0]["attempted"]
    record["latency_samples"] = sum(len(r["latencies"]) for r in m["reps"])
    record["fail_ratio"] = failed / attempted
    record["memos_empty_at_start"] = memo_clean
    if m["reps"][0].get("crosscheck_disputed") is not None:
        record["bidegree_crosscheck_disputed"] = m["reps"][0]["crosscheck_disputed"]
    correct = failed == 0 and memo_clean
    if trace:
        metrics, checks = per_layer(m)
        record["trace_checks"] = checks
        correct = correct and all(checks.values())
    else:
        metrics = end_to_end(m)
        record["warm_s"] = metrics["warm_s"]
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not produced: {sorted(missing)}")
    metrics = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}, record


def load_units(trace) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "regpow", "__init__.py")):
        print(f"no regpow sources under {SRC}: run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    units = load_units(args.trace)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    outcomes = []
    for workload in names:
        outcome, record = result(workload, args.seed, args.seconds, args.trace, units)
        outcomes.append((workload, outcome, record))
        print("record " + json.dumps(record, sort_keys=True))
    print_table(outcomes, units, args.trace)
    if len(outcomes) == 1:
        final = outcomes[0][1]
    else:
        final = {
            "correct": all(o["correct"] for _, o, _ in outcomes),
            "attempted": sum(o["attempted"] for _, o, _ in outcomes),
            "failed": sum(o["failed"] for _, o, _ in outcomes),
            "metrics": {f"{w}.{k}": v for w, o, _ in outcomes for k, v in o["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


def print_table(outcomes, units, trace):
    names = list(units)
    if trace:  # one metric per line
        for workload, outcome, record in outcomes:
            print(f"{workload}: trace checks {record['trace_checks']}")
            for name in names:
                print(f"  {name:42s} {outcome['metrics'][name]['value']:>14.6g} {units[name]}")
        return
    head = ["workload"] + [f"{n} ({units[n]})" for n in names] + ["warm_s (s)", "fail_ratio", "samples"]
    rows = [head]
    for workload, outcome, record in outcomes:
        rows.append(
            [workload]
            + [f"{outcome['metrics'][n]['value']:.4g}" for n in names]
            + [f"{record['warm_s']:.4g}", f"{record['fail_ratio']:.3g}", str(record["latency_samples"])]
        )
    widths = [max(len(r[i]) for r in rows) for i in range(len(head))]
    for r in rows:
        print("  ".join(cell.rjust(w) for cell, w in zip(r, widths)))


if __name__ == "__main__":
    sys.exit(main())
