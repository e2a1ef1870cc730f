"""Shared helpers for the test suite: ring builders and brute-force oracles."""
from __future__ import annotations

import itertools

from hypothesis import settings

from regpow import NEG_INF, Monomial, MonomialIdeal, RingSpec, ideal

# Every run draws the same examples and writes no example database, so the
# suite's output is deterministic.  Tests still set their own max_examples.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def ring(*names: str) -> RingSpec:
    return RingSpec(tuple(names))


def mk_ideal(rng: RingSpec, *gens: str) -> MonomialIdeal:
    return ideal(rng, gens)


def all_monomials(rng: RingSpec, degree: int):
    """Every monomial of the given total degree, by direct composition enumeration."""
    nv = rng.nvars
    for cuts in itertools.combinations(range(degree + nv - 1), nv - 1):
        exps = []
        prev = -1
        for c in cuts:
            exps.append(c - prev - 1)
            prev = c
        exps.append(degree + nv - 2 - prev)
        yield Monomial(rng, tuple(exps))


def monomials_up_to(rng: RingSpec, max_degree: int):
    for a in range(max_degree + 1):
        yield from all_monomials(rng, a)


def random_ideal(rnd, rng: RingSpec, max_gens: int = 3, max_exp: int = 3) -> MonomialIdeal:
    """A random nonzero proper-or-unit monomial ideal with bounded exponents."""
    gens = []
    for _ in range(rnd.randint(1, max_gens)):
        exps = tuple(rnd.randint(0, max_exp) for _ in range(rng.nvars))
        if all(e == 0 for e in exps):
            exps = tuple(1 if i == 0 else 0 for i in range(rng.nvars))
        gens.append(Monomial(rng, exps))
    return ideal(rng, gens)


def saturate_by_colon_fixpoint(I: MonomialIdeal) -> MonomialIdeal:
    """I : m^∞ as the limit of I ⊆ I : m ⊆ I : m^2 ⊆ ..., the engine's former route."""
    if I.is_zero():
        return I
    m = I.ring.maximal_ideal()
    current = I
    while True:
        nxt = current.colon_ideal(m)
        if nxt == current:
            return current
        current = nxt


def sdeg_by_colon_fold(J: MonomialIdeal):
    """1 + the largest degree of a minimal generator of J : m outside J, the engine's former sdeg route.

    J : m comes from `colon_ideal`, the intersection of the J : x_i.  A monomial
    u of J : m outside J has u*x_i in J for every i, so it lies in the socle of
    S/J; it is a minimal generator of J : m, because u = v*x_i with v in J : m
    would put u in J.
    """
    colon = J.colon_ideal(J.ring.maximal_ideal())
    return max((g.degree for g in colon.gens if not J.contains(g)), default=NEG_INF) + 1


# The engine's former object-level routes, kept as oracles for the exponent-tuple kernel.


def minimalize_by_objects(rng: RingSpec, gens) -> MonomialIdeal:
    """Drop every monomial divisible by another one, testing Monomial.divides pair by pair."""
    unique = sorted(set(gens), key=lambda m: (m.degree, m.exponents))
    minimal = []
    for g in unique:
        if not any(h.divides(g) for h in minimal):
            minimal.append(g)
    minimal.sort(key=lambda m: m.exponents)
    return MonomialIdeal(rng, tuple(m.exponents for m in minimal))


def product_by_objects(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    return minimalize_by_objects(I.ring, [g * h for g in I.gens for h in J.gens])


def intersect_by_lcms(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    """I ∩ J from the lcm of every pair of generators."""
    return minimalize_by_objects(I.ring, [g.lcm(h) for g in I.gens for h in J.gens])


def colon_by_objects(I: MonomialIdeal, u: Monomial) -> MonomialIdeal:
    return minimalize_by_objects(I.ring, [g.colon_factor(u) for g in I.gens])


def colon_ideal_by_fold(I: MonomialIdeal, K: MonomialIdeal) -> MonomialIdeal:
    """I : K as the intersection of the I : u over the generators u of K."""
    result = colon_by_objects(I, K.gens[0])
    for u in K.gens[1:]:
        result = intersect_by_lcms(result, colon_by_objects(I, u))
    return result
