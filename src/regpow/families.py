"""Built-in ideal families with closed-form predictors for their power functions.

Every family builds a PresentedIdeal, and `predict` supplies exact
closed-form evaluators for the power functions that admit one, so the
engine can be verified instance by instance.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .betti import deferred_cache_writes
from .monomials import RingSpec, ideal, zero_ideal
from .regfun import FUNCTION_NAMES, InputError, PresentedIdeal


class NoClosedFormError(InputError):
    """No closed form is available for this (family, function) pair."""


@dataclass(frozen=True)
class FamilySpec:
    family: str
    d: int | None = None
    c: tuple | None = None
    e: tuple | None = None
    r: int | None = None
    t: int | None = None

    def __post_init__(self):
        if self.family not in FAMILY_NAMES:
            raise InputError(f"unknown family {self.family!r}")
        if self.c is not None:
            object.__setattr__(self, "c", tuple(self.c))
        if self.e is not None:
            object.__setattr__(self, "e", tuple(self.e))


@dataclass(frozen=True)
class Prediction:
    """Closed-form evaluator n -> value for one power function of a family instance."""

    function: str
    evaluate: object  # callable int -> int

    def __call__(self, n: int) -> int:
        return self.evaluate(n)


def trim_constant_tail(c) -> tuple:
    """Drop trailing repeats of the last value, so the final index m satisfies c[m-1] != c[m]."""
    c = list(c)
    while len(c) >= 2 and c[-1] == c[-2]:
        c.pop()
    return tuple(c)


def _check_c(spec: FamilySpec, weakly_decreasing: bool) -> tuple:
    if spec.d is None or spec.d < 1:
        raise InputError("family parameter d must be a positive integer")
    if not spec.c:
        raise InputError("family parameter c must be a nonempty list of positive integers")
    if any(ci < 1 for ci in spec.c):
        raise InputError("entries of c must be positive")
    if weakly_decreasing and any(a < b for a, b in zip(spec.c, spec.c[1:])):
        raise InputError("c must be weakly decreasing")
    return trim_constant_tail(spec.c)


def _c_at(c: tuple, i: int) -> int:
    """c_i with the constant tail extended past the trimmed list."""
    return c[i] if i < len(c) else c[-1]


def _build_one_dim(spec: FamilySpec) -> PresentedIdeal:
    c = _check_c(spec, weakly_decreasing=True)
    d, m = spec.d, len(c) - 1
    ring = RingSpec(("x", "y"))
    quot = ideal(ring, [f"x^{c[0]}"] + [f"x^{c[i]}*y^{d * i}" for i in range(1, m + 1)])
    lift = ideal(ring, [f"y^{d}"])
    return PresentedIdeal(quot, lift)


def _build_dim1(spec: FamilySpec, extra_gen: bool) -> PresentedIdeal:
    c = _check_c(spec, weakly_decreasing=False)
    d, m = spec.d, len(c) - 1
    if m < 1:
        raise InputError("this family needs a non-constant c (at least one strict step)")
    names = ("x1", "x2") + tuple(f"y{i}" for i in range(1, m + 1))
    ring = RingSpec(names)
    x1 = ring.var("x1")
    Pd = ideal(ring, [ring.var(f"y{i}") for i in range(1, m + 1)]).power(d)
    gens = [ring.parse_monomial(f"x1^{c[0]}")]
    if extra_gen:
        gens.append(x1 * ring.var("x2"))
    gens += [x1 * g for g in Pd.gens]
    for i in range(1, m):
        yi = ring.parse_monomial(f"y{i}^{d * i}")
        gens.append(ring.parse_monomial(f"x2^{c[i]}") * yi)
        gens += [g * yi for g in Pd.gens]
    gens.append(ring.parse_monomial(f"x2^{c[m]}*y{m}^{d * m}"))
    quot = ideal(ring, gens)
    return PresentedIdeal(quot, Pd)


def _interpolated_steps(d: int, e: tuple) -> tuple:
    """Refine e to unit resolution: f with f[d*n] = e_n, strictly unit-decreasing below d*m."""
    e = trim_constant_tail(e)
    m = len(e) - 1  # e indexed from 1: e[k] is the value at power k+1
    f = [0] * (d * (m + 1) + 1)
    for n in range(m + 1):  # block (d*n, d*(n+1)]
        for j in range(d * n + 1, d * (n + 1) + 1):
            f[j] = e[n] + (d * (n + 1) - j)
    return tuple(f[1:])  # f_1 .. f_{d*(m+1)}; constant = e[m] afterwards


def _build_ubiquity3(spec: FamilySpec) -> PresentedIdeal:
    if spec.d is None or spec.d < 1:
        raise InputError("family parameter d must be a positive integer")
    if not spec.e:
        raise InputError("family parameter e must be a nonempty list of non-negative integers")
    e = tuple(spec.e)
    if any(v < 0 for v in e):
        raise InputError("entries of e must be non-negative")
    if any(a < b for a, b in zip(e, e[1:])):
        raise InputError("e must be weakly decreasing")
    trimmed = trim_constant_tail(e)
    m = len(trimmed)  # least power with e_n = e_m for n >= m (1-based)
    for a, b in zip(trimmed, trimmed[1:]):
        if a - b < spec.d:
            raise InputError("e must satisfy e_n - e_{n+1} >= d before its constant tail")
    f = _interpolated_steps(spec.d, e)
    c = tuple([f[0] + 1] + [v + 1 for v in f])
    inner = FamilySpec("one_dim", d=1, c=c)
    base = _build_one_dim(inner)
    # same ambient ring and quot; the presented ideal is the d-th power of (y)
    return PresentedIdeal(base.quot, base.lift.power(spec.d))


def _build_ehl(spec: FamilySpec) -> PresentedIdeal:
    if spec.r is None or spec.r < 1:
        raise InputError("family parameter r must be a positive integer")
    r = spec.r
    ring = RingSpec(tuple(f"x{i}" for i in range(r + 1)))
    xs = [ring.var(f"x{i}") for i in range(r + 1)]
    square_free_product = xs[0]
    for v in xs[1:]:
        square_free_product = square_free_product * v
    base = ideal(ring, [v * v for v in xs] + [square_free_product])
    lift = base.scale(xs[0])
    return PresentedIdeal(zero_ideal(ring), lift)


def _build_cycle(spec: FamilySpec) -> PresentedIdeal:
    if spec.t is None or spec.t < 1:
        raise InputError("family parameter t must be a positive integer")
    t = spec.t
    n = 2 * t + 1
    ring = RingSpec(tuple(f"x{i}" for i in range(n + 1)))
    xs = [ring.var(f"x{i}") for i in range(n + 1)]
    quot = ideal(ring, [xs[0] * v for v in xs])
    edges = [xs[i] * xs[i + 1] for i in range(1, n)] + [xs[n] * xs[1]]
    lift = ideal(ring, edges)
    return PresentedIdeal(quot, lift)


def _build_m2(ring_gens, quot_strs, lift_strs) -> PresentedIdeal:
    ring = RingSpec(ring_gens)
    return PresentedIdeal(ideal(ring, quot_strs), ideal(ring, lift_strs))


_BUILDERS = {
    "one_dim": _build_one_dim,
    "dim1": partial(_build_dim1, extra_gen=False),
    "dim1b": partial(_build_dim1, extra_gen=True),
    "ubiquity3": _build_ubiquity3,
    "ehl": _build_ehl,
    "cycle": _build_cycle,
    "m2_reg": lambda spec: _build_m2(
        ("x", "y", "u", "v"),
        ["x^7", "x^4*y^3", "x^3*y^4", "y^7", "x*u^6", "y*u^6", "u^6*v"],
        ["x*y*v", "u^3"],
    ),
    "m2_sdeg": lambda spec: _build_m2(
        ("x", "y", "u", "v"),
        ["x^6", "x^3*y^3", "y^6", "x*u^5", "y*u^5", "u^5*v"],
        ["x*y*v^4", "u^6"],
    ),
}
FAMILY_NAMES = tuple(_BUILDERS)


def build(spec: FamilySpec) -> PresentedIdeal:
    return _BUILDERS[spec.family](spec)


def _two_branch_quotient(d: int, c: tuple):
    m = len(c) - 1

    def evaluate(n: int) -> int:
        if n < 1:
            raise InputError("power index must be >= 1")
        if n <= m:
            return max(d * (i + 1) + c[i] - 2 for i in range(n))
        head = [d * (i + 1) + c[i] - 2 for i in range(m)]
        return max([d * n + c[m] - 2] + head)

    return evaluate


def predict(spec: FamilySpec, function: str) -> Prediction:
    """Closed-form predictor for (family, function); raises NoClosedFormError otherwise."""
    if spec.family in ("one_dim", "dim1", "dim1b"):
        c = _check_c(spec, weakly_decreasing=(spec.family == "one_dim"))
        d, m = spec.d, len(c) - 1
        if function == "reg_diff":
            return Prediction(function, lambda n: d * n + _c_at(c, n - 1) - 2)
        if function == "reg_quotient" and spec.family in ("one_dim", "dim1b"):
            return Prediction(function, _two_branch_quotient(d, c))
        if function == "reg_power" and spec.family == "one_dim":

            def evaluate(n: int) -> int:
                if n < m:
                    return max(d * (i + 1) + c[i] - 2 for i in range(n, m))
                return d * n + c[m] - 1

            return Prediction(function, evaluate)
        if function == "sdeg" and spec.family == "dim1b":
            if any(c[i - 1] > c[i] + d for i in range(1, m + 1)):
                raise NoClosedFormError(
                    "sdeg closed form needs c_{i-1} <= c_i + d for all i"
                )
            return Prediction(function, lambda n: d * n + _c_at(c, n - 1) - 1)
    if spec.family == "ehl" and function == "sdeg":
        r = spec.r
        return Prediction(function, lambda n: 3 * n + r - 1)
    if spec.family == "ubiquity3" and function == "reg_power":
        e = trim_constant_tail(spec.e)
        d = spec.d
        return Prediction(function, lambda n: d * n + _c_at(e, n - 1))
    raise NoClosedFormError(f"no closed form for {spec.family}/{function}")


@dataclass
class VerifyRow:
    n: int
    engine: int
    predicted: int

    @property
    def ok(self) -> bool:
        return self.engine == self.predicted


@dataclass
class VerifyReport:
    family: str
    function: str
    rows: list

    @property
    def ok(self) -> bool:
        return all(row.ok for row in self.rows)


def verify(spec: FamilySpec, function: str, n_from: int, n_to: int) -> VerifyReport:
    """Engine values against the closed form; stops at the first mismatching power."""
    if n_from < 1 or n_to < n_from:
        raise InputError("empty or invalid power range")
    prediction = predict(spec, function)
    presented = build(spec)
    fn = getattr(presented, function)
    rows = []
    with deferred_cache_writes():  # one disk-cache write per report, not one per value
        for n in range(n_from, n_to + 1):
            row = VerifyRow(n, fn(n), prediction(n))
            rows.append(row)
            if not row.ok:
                break
    return VerifyReport(spec.family, function, rows)


def supported_predictions(spec: FamilySpec) -> tuple:
    """Function names for which this family instance has a closed form."""
    out = []
    for name in FUNCTION_NAMES:
        try:
            predict(spec, name)
        except NoClosedFormError:
            continue
        out.append(name)
    return tuple(out)
