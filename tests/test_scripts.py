"""Smoke runs of scripts/: each one exits 0 and prints its header on a small window."""
import importlib.util
import os
import subprocess
import sys

from regpow.families import supported_predictions

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPTS = os.path.join(ROOT, "scripts")


def run_script(name, *args):
    env = {k: v for k, v in os.environ.items() if k != "REGPOW_CACHE"}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    proc = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, name), *args],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_family_sweep_prints_one_row_per_spec_function_and_power():
    lines = run_script("family_sweep.py", "--to", "3")
    assert lines[0] == "family,params,function,n,engine,predicted,flag"
    path = os.path.join(SCRIPTS, "family_sweep.py")
    loader = importlib.util.spec_from_file_location("family_sweep", path)
    sweep = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(sweep)
    expected = [
        (s.family, fn, str(n)) for s in sweep.SPECS for fn in supported_predictions(s) for n in (1, 2, 3)
    ]
    rows = [line.split(",") for line in lines[1:]]
    assert [(r[0], r[-5], r[-4]) for r in rows] == expected
    assert all(r[-1] == "ok" for r in rows)


def test_golden_tables():
    lines = run_script("golden_tables.py", "--to", "3")
    assert lines[0].startswith("# m2_reg / reg_power  (slope 3, ")
    assert lines[1] == "n,value,defect"
    assert len(lines) == 3 * (2 + 3 + 1)


def test_defect_explorer():
    lines = run_script("defect_explorer.py", "--count", "2", "--to", "3")
    assert lines[0].startswith("ring ")
    assert len(lines) == 4
    assert lines[1].startswith("  reg_quotient: values=[")
