"""Monomial subquotient modules A/B, Hilbert functions, Artinian tests, top degree.

The degree -infinity of the zero module is `NEG_INF`; it is absorbing
under max and addition, so it can flow through all degree arithmetic.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .monomials import NEG_INF, MonomialIdeal, RingMismatchError, unit_ideal, zero_ideal


@dataclass(frozen=True)
class Subquotient:
    """The graded module A/B for monomial ideals B <= A over the same ring."""

    numerator: MonomialIdeal
    denominator: MonomialIdeal

    def __post_init__(self):
        if self.numerator.ring != self.denominator.ring:
            raise RingMismatchError("numerator and denominator live in different rings")
        if not self.denominator.is_subset_of(self.numerator):
            raise ValueError("denominator ideal is not contained in the numerator ideal")
        object.__setattr__(self, "_zero", self.numerator.is_subset_of(self.denominator))

    @property
    def ring(self):
        return self.numerator.ring

    def is_zero(self) -> bool:
        return self._zero


def quotient_ring(modulus: MonomialIdeal) -> Subquotient:
    """S/B as a subquotient (numerator the unit ideal)."""
    return Subquotient(unit_ideal(modulus.ring), modulus)


def ideal_module(numerator: MonomialIdeal) -> Subquotient:
    """An ideal viewed as a submodule of S."""
    return Subquotient(numerator, zero_ideal(numerator.ring))


@lru_cache(maxsize=None)
def standard_monomials(modulus: MonomialIdeal, degree: int) -> tuple:
    """Monomials of the given degree not contained in `modulus`, sorted by exponents.

    Walks degree by degree: a monomial outside a monomial ideal has all
    its divisors outside it, so degree a+1 survivors are variable
    multiples of degree a survivors.
    """
    if degree < 0:
        return ()
    if degree == 0:
        one = modulus.ring.one()
        return () if modulus.contains(one) else (one,)
    prev = standard_monomials(modulus, degree - 1)
    out = set()
    for m in prev:
        for i in range(modulus.ring.nvars):
            cand = m.times_var(i)
            if not modulus.contains(cand):
                out.add(cand)
    return tuple(sorted(out, key=lambda m: m.exponents))


@lru_cache(maxsize=None)
def basis(module: Subquotient, degree: int) -> tuple:
    """Monomials of the given degree lying in the numerator but not the denominator."""
    return tuple(
        m
        for m in standard_monomials(module.denominator, degree)
        if module.numerator.contains(m)
    )


def hilbert(module: Subquotient, degree: int) -> int:
    return len(basis(module, degree))


def is_artinian(module: Subquotient) -> bool:
    """True iff the annihilator B:A has a zero-dimensional quotient."""
    if module.is_zero():
        return True
    ann = module.denominator.colon_ideal(module.numerator)
    return ann.krull_dim_quotient() == 0


def top_degree(module: Subquotient):
    """Largest degree with a nonzero graded piece of an Artinian module; NEG_INF if zero.

    Scans upward and stops at the first empty degree at or above the
    generator degrees of the numerator: above those degrees every
    monomial of A factors through one of lower degree, so no gaps occur.
    """
    if not is_artinian(module):
        raise ValueError("top_degree requires an Artinian module")
    if module.is_zero():
        return NEG_INF
    gen_bound = module.numerator.max_gen_degree()
    best = NEG_INF
    a = 0
    while True:
        h = hilbert(module, a)
        if h > 0:
            best = a
        elif a >= gen_bound:
            return best
        a += 1
