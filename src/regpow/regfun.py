"""Regularity and saturation-degree functions of powers of a presented monomial ideal.

A presented ideal is a pair (Q, P) of monomial ideals in S: the ambient
quotient ring is R = S/Q and the ideal of interest is I = (P+Q)/Q.  All
four power functions are computed over S; local cohomology at the
maximal ideal does not see the presentation, so the values agree with
the intrinsic ones over R.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .betti import deferred_cache_writes, regularity
from .modules import NEG_INF, Subquotient
from .monomials import MonomialIdeal, RingMismatchError, _socle_top, unit_ideal


class InputError(ValueError):
    """Structurally invalid input (bad range, malformed family parameters, ...)."""


class StandingHypothesisError(ValueError):
    """The input violates a standing hypothesis (I = 0, I the unit ideal, or I^n = 0)."""


# Each power function, with the offset o such that the defect of its value v at power n is v - d*n + o.
_DEFECT_OFFSET = {
    "reg_power": 0,
    "reg_quotient": 1,
    "reg_diff": 1,
    "sdeg": 0,
    "gen_degree": 0,
}
FUNCTION_NAMES = tuple(_DEFECT_OFFSET)

# A window has stabilized once this many trailing values grow by the slope.
_STABILITY_K = 3


@dataclass(frozen=True)
class PresentedIdeal:
    """R = S/quot and I = (lift + quot)/quot, with I proper and nonzero."""

    quot: MonomialIdeal
    lift: MonomialIdeal

    def __post_init__(self):
        if self.quot.ring != self.lift.ring:
            raise RingMismatchError("quot and lift live in different rings")
        total = self.lift + self.quot
        if total == self.quot:
            raise StandingHypothesisError("the presented ideal is zero")
        if total.is_unit():
            raise StandingHypothesisError("the presented ideal is the unit ideal")
        object.__setattr__(self, "total", total)  # lift + quot

    @property
    def ring(self):
        return self.quot.ring

    def minimal_gen_degrees(self) -> tuple:
        """Degrees of the minimal generators of I: generators of lift+quot outside quot."""
        return tuple(sorted(map(sum, self.quot._outside(self.total._exps))))

    @property
    def d(self) -> int:
        """Generation degree of I: maximal minimal-generator degree."""
        return max(self.minimal_gen_degrees())

    @property
    def equigenerated(self) -> bool:
        degrees = self.minimal_gen_degrees()
        return len(set(degrees)) == 1

    def dim_quotient_by_ideal(self) -> int:
        """dim R/I."""
        return self.total.krull_dim_quotient()

    def dim_ring(self) -> int:
        """dim R."""
        return self.quot.krull_dim_quotient()

    @lru_cache(maxsize=None)
    def _lifted_power(self, n: int) -> MonomialIdeal:
        """lift^n + quot, the presentation of I^n, one product per power.

        For n >= 2 it is (lift^(n-1) + quot) * lift + quot, because with
        L = lift and Q = quot, (L^(n-1) + Q) L + Q = L^n + QL + Q = L^n + Q
        (QL lies in Q).
        """
        if n < 2:
            return self.lift.power(n) + self.quot
        for k in range(2, n - 1):
            self._lifted_power(k)  # fill the memo upward, so the call below recurses one level
        return self._lifted_power(n - 1) * self.lift + self.quot

    def _power(self, n: int) -> MonomialIdeal:
        """lift^n + quot, after checking that n >= 1 and that I^n != 0 in R."""
        if n < 1:
            raise InputError("power index must be >= 1")
        power_n = self._lifted_power(n)
        if power_n == self.quot:
            raise StandingHypothesisError(f"I^{n} = 0 in R")
        return power_n

    def module_of(self, kind: str, n: int) -> Subquotient:
        """The module whose regularity is the requested power function at n."""
        power_n = self._power(n)
        if kind == "power":
            return Subquotient(power_n, self.quot)
        if kind == "quotient":
            return Subquotient(unit_ideal(self.ring), power_n)
        if kind == "diff":
            prev = unit_ideal(self.ring) if n == 1 else self._lifted_power(n - 1)
            return Subquotient(prev, power_n)
        raise InputError(f"unknown module kind {kind!r}")

    def reg_power(self, n: int) -> int:
        return regularity(self.module_of("power", n))

    def reg_quotient(self, n: int) -> int:
        return regularity(self.module_of("quotient", n))

    def reg_diff(self, n: int) -> int:
        return regularity(self.module_of("diff", n))

    def reg_ring(self) -> int:
        """reg R = reg S/quot."""
        return regularity(Subquotient(unit_ideal(self.ring), self.quot))

    def sdeg(self, n: int):
        """Saturation degree of I^n; NEG_INF when I^n is already saturated.

        Read off the socle of S/J, where J = lift^n + quot:
            sdeg = 1 + max{deg u : u not in J, u*x_j in J for every j}.
        A top-degree monomial u of sat(J)/J has every u*x_j in sat(J) in a higher
        degree, hence in J; conversely such a u is in sat(J) \\ J.

        The maximum comes from pivot splits (`_socle_top`), not from the colon
        ideal J : m.  With msm(J) the set of such u and a pivot p = x_i^k,
            msm(J) = p * msm(J : p)  ∪  {w in msm(J + (p)) : w_i < k - 1 or w*x_i in J},
        split by whether u_i >= k.  The leaves are a variable that divides no
        generator (no u) and pure powers x_j^(a_j) alone (u = prod x_j^(a_j - 1)),
        and a branch is cut when its offset's degree plus sum_j (lcm_j - 1), a bound
        because each u_j is some g_j - 1, cannot beat the best degree found.  The
        proofs are in `_socle_top`.

        Since H^0_m(S/J) = sat(J)/J, its top degree a_0(S/J) = a_0(R/I^n) is
        sdeg(n) - 1 (NEG_INF when J is saturated).
        """
        power_n = self._power(n)
        return _socle_top(power_n._exps, self.ring.nvars) + 1

    def gen_degree(self, n: int) -> int:
        """Maximal degree of the minimal generators of I^n."""
        return max(map(sum, self.quot._outside(self._power(n)._exps)))

    def function(self, name: str):
        if name not in FUNCTION_NAMES:
            raise InputError(f"unknown function {name!r}")
        return getattr(self, name)


@dataclass
class DefectReport:
    """Window of values of one power function with its defect sequence and stability diagnostics."""

    function: str
    n_from: int
    n_to: int
    slope: int | None
    values: list
    defects: list | None
    stable_suffix_length: int
    stabilized_in_window: bool


def _stable_suffix(values, slope) -> int:
    """Length of the longest suffix whose consecutive differences all equal the slope."""
    if slope is None or not values:
        return 0
    length = 1
    for prev, cur in zip(reversed(values[:-1]), reversed(values[1:])):
        if prev == NEG_INF or cur == NEG_INF or cur - prev != slope:
            break
        length += 1
    return length


def defect_report(presented: PresentedIdeal, function: str, n_from: int, n_to: int) -> DefectReport:
    fn = presented.function(function)
    if n_from < 1 or n_to < n_from:
        raise InputError("empty or invalid power range")
    with deferred_cache_writes():  # one disk-cache write per report, not one per value
        values = [fn(n) for n in range(n_from, n_to + 1)]
    if presented.equigenerated:
        slope = presented.d
        offset = _DEFECT_OFFSET[function]
        defects = [
            None if v == NEG_INF else v - slope * n + offset
            for n, v in zip(range(n_from, n_to + 1), values)
        ]
    else:
        slope = None
        defects = None
    suffix = _stable_suffix(values, slope)
    return DefectReport(
        function=function,
        n_from=n_from,
        n_to=n_to,
        slope=slope,
        values=values,
        defects=defects,
        stable_suffix_length=suffix,
        stabilized_in_window=suffix >= _STABILITY_K,
    )
