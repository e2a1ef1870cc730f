"""The regpow names the benchmark harness in perfbench/ imports, binds and reads still exist.

perfbench/ changes only together with the benchmark, so a name removed from
src/ would first show up as a broken benchmark run.  This test runs the
harness's imports, its memo reads and its tracer install in a fresh
interpreter, without running any workload.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CHECK = """
import sys
sys.path[:0] = [{src!r}, {perfbench!r}]
import corpus, tracer, worker, workloads
worker.memo_sizes()
tracer.Tracer().install()
"""


def test_perfbench_finds_every_name_it_uses():
    code = CHECK.format(src=os.path.join(ROOT, "src"), perfbench=os.path.join(ROOT, "perfbench"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
