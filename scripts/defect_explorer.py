#!/usr/bin/env python3
"""Sample random equigenerated monomial ideals and print their defect sequences.

Usage:
    python3 scripts/defect_explorer.py [--seed S] [--count K] [--to N] [--fn NAME]

Useful for hunting fluctuating or negative defect sequences by hand.
"""
import argparse
import random
import sys

from regpow import (
    Monomial,
    PresentedIdeal,
    RingSpec,
    StandingHypothesisError,
    defect_report,
    ideal,
    serialize,
    zero_ideal,
)
from regpow.regfun import FUNCTION_NAMES


MAX_VARS = 4
MAX_DEGREE = 4


def random_presented(rnd: random.Random) -> PresentedIdeal | None:
    nvars = rnd.randint(2, MAX_VARS)
    ring = RingSpec(tuple(f"x{i}" for i in range(nvars)))
    d = rnd.randint(1, MAX_DEGREE)

    def monomial_of_degree(degree: int) -> Monomial:
        exps = [0] * nvars
        for _ in range(degree):
            exps[rnd.randrange(nvars)] += 1
        return Monomial(ring, tuple(exps))

    lift = ideal(ring, [monomial_of_degree(d) for _ in range(rnd.randint(1, 3))])
    quot = zero_ideal(ring)
    if rnd.random() < 0.5:
        quot = ideal(
            ring,
            [monomial_of_degree(rnd.randint(1, MAX_DEGREE))
             for _ in range(rnd.randint(1, 2))],
        )
    try:
        presented = PresentedIdeal(quot, lift)
    except StandingHypothesisError:
        return None
    return presented if presented.equigenerated else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=10)
    parser.add_argument("--to", type=int, default=4)
    parser.add_argument("--fn", default="reg_quotient", choices=FUNCTION_NAMES)
    args = parser.parse_args()

    rnd = random.Random(args.seed)
    produced = 0
    while produced < args.count:
        presented = random_presented(rnd)
        if presented is None:
            continue
        try:
            report = defect_report(presented, args.fn, 1, args.to)
        except StandingHypothesisError:
            continue
        produced += 1
        print(serialize(presented).strip().replace("\n", " | "))
        print(
            f"  {args.fn}: values={report.values} defects={report.defects} "
            f"stable_suffix={report.stable_suffix_length}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
