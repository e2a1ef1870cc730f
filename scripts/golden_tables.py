#!/usr/bin/env python3
"""Recompute the three four-variable benchmark tables and print them as CSV.

Usage:
    python3 scripts/golden_tables.py [--to N]

Set REGPOW_CACHE=path to keep the Betti tables in an on-disk cache.
"""
import argparse
import sys
import time

from regpow import FamilySpec, build, defect_report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--to", type=int, default=5, help="largest power (default 5)")
    args = parser.parse_args()

    jobs = [
        ("m2_reg", "reg_power"),
        ("m2_reg", "reg_quotient"),
        ("m2_sdeg", "sdeg"),
    ]
    for family, fn in jobs:
        presented = build(FamilySpec(family))
        start = time.perf_counter()
        report = defect_report(presented, fn, 1, args.to)
        elapsed = time.perf_counter() - start
        print(f"# {family} / {fn}  (slope {report.slope}, {elapsed:.1f}s)")
        print("n,value,defect")
        for offset, value in enumerate(report.values):
            print(f"{report.n_from + offset},{value},{report.defects[offset]}")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
