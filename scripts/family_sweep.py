#!/usr/bin/env python3
"""Verify every built-in closed form against the engine over a power window.

Usage:
    python3 scripts/family_sweep.py [--to N]

Exits nonzero if any engine value disagrees with its closed form.
"""
import argparse
import sys

from regpow import FamilySpec, verify
from regpow.families import supported_predictions

SPECS = (
    FamilySpec("one_dim", d=1, c=(3, 1)),
    FamilySpec("one_dim", d=2, c=(5, 2, 1)),
    FamilySpec("one_dim", d=3, c=(4, 3, 1)),
    FamilySpec("dim1", d=1, c=(4, 2, 1)),
    FamilySpec("dim1b", d=2, c=(4, 2, 1)),
    FamilySpec("ubiquity3", d=2, e=(4, 2, 0)),
    FamilySpec("ubiquity3", d=3, e=(9, 5, 2, 2)),
    FamilySpec("ehl", r=2),
    FamilySpec("ehl", r=3),
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--to", type=int, default=5, help="largest power (default 5)")
    n_to = parser.parse_args().to

    status = 0
    print("family,params,function,n,engine,predicted,flag")
    for spec in SPECS:
        params = ",".join(
            f"{k}={v}" for k, v in (("d", spec.d), ("c", spec.c), ("e", spec.e),
                                    ("r", spec.r), ("t", spec.t)) if v is not None
        )
        for fn in supported_predictions(spec):
            report = verify(spec, fn, 1, n_to)
            for row in report.rows:
                flag = "ok" if row.ok else "MISMATCH"
                print(f"{spec.family},{params!r},{fn},{row.n},{row.engine},{row.predicted},{flag}")
            if not report.ok:
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
