"""Seeded random corpus of small equigenerated presented ideals, owned by the benchmark.

The corpus is stratified so that its cost hardly depends on the seed: every
(number of variables, quot empty or not) stratum gets a fixed quota of
ideals in each band of lcm-box volume of the largest power computed.  Seeds
change which ideals fill the quotas, not how many of each kind there are, so
different seeds give totals within a few percent of each other while still
covering the Artinian and the Betti-table paths.

Small rings have few small ideals, so the same ideal is often drawn twice.
Each case gets its own variable names, which keeps equal ideals of different
cases from sharing the engine's memos: every case is computed from scratch.

Everything here runs before timing starts and leaves the engine's memos
empty: the vanishing test builds `lift^n + quot` directly instead of calling
`PresentedIdeal`'s memoized power.
"""
from __future__ import annotations

import random

from regpow import Monomial, PresentedIdeal, RingSpec, StandingHypothesisError, ideal, zero_ideal

N_MAX = 4
VARIABLE_COUNTS = (2, 3, 4)
# (upper edge of the box-volume band, ideals per stratum in that band)
BANDS = ((10, 20), (30, 40), (100, 60))


def _random_monomials(rnd, ring: RingSpec, degree: int, count: int) -> list:
    out = set()
    for _ in range(count * 4):
        exps = [0] * ring.nvars
        for _ in range(degree):
            exps[rnd.randrange(ring.nvars)] += 1
        out.add(Monomial(ring, tuple(exps)))
        if len(out) >= count:
            break
    return sorted(out, key=lambda m: m.exponents)


def box_volume(lift, quot, n: int) -> int:
    """Points of the lcm box that bounds the Betti computation of the n-th power."""
    volume = 1
    for a, b in zip(lift.lcm_exponents(), quot.lcm_exponents()):
        volume *= max(n * a, b) + 1
    return volume


def _band(volume: int):
    for band, (edge, _) in enumerate(BANDS):
        if volume <= edge:
            return band
    return None


def _presented(quot, lift):
    """The presented ideal, or None if it breaks a standing hypothesis up to N_MAX."""
    try:
        presented = PresentedIdeal(quot, lift)
    except StandingHypothesisError:
        return None
    if not presented.equigenerated or lift.power(N_MAX) + quot == quot:
        return None
    return presented


def generate(seed: int) -> list:
    """The corpus for one seed: a list of PresentedIdeal, the same list for the same seed."""
    rnd = random.Random(seed)
    cases = []
    for nvars in VARIABLE_COUNTS:
        for with_quot in (False, True):
            need = [quota for _, quota in BANDS]
            while any(need):
                ring = RingSpec(tuple(f"x{i}_{len(cases)}" for i in range(nvars)))
                lift = ideal(ring, _random_monomials(rnd, ring, rnd.randint(1, 4), rnd.randint(1, 3)))
                quot = zero_ideal(ring)
                if with_quot:
                    quot = ideal(ring, _random_monomials(rnd, ring, rnd.randint(1, 4), rnd.randint(1, 2)))
                band = _band(box_volume(lift, quot, N_MAX))
                if band is None or not need[band]:
                    continue
                presented = _presented(quot, lift)
                if presented is not None:
                    need[band] -= 1
                    cases.append(presented)
    rnd.shuffle(cases)
    return cases
