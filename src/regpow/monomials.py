"""Exact arithmetic on monomials and monomial ideals in a standard graded polynomial ring.

All values are immutable; ideals always store their unique minimal
monomial generating set.  The zero ideal is the empty generating set,
the unit ideal is generated by 1.

A `MonomialIdeal` stores its minimal generators once, as the sorted
exponent tuples (`_exps`) that the ideal arithmetic runs on: one kernel of
module-level functions on plain tuples (the "exponent-tuple kernel"
section below, also used by `betti`).  `Monomial` objects are made only at
the input boundary (`ideal`, `minimalize`, `parse_monomial`) and when a
caller reads an ideal's `gens`; the kernel never makes them.

Every derived quantity of a value is computed once, because the same
small values are hashed and queried again and again (memo keys, subset
tests, membership):

* `RingSpec` stores `nvars` and, on first use, its maximal ideal and its
  unit ideal;
* `MonomialIdeal` stores its hash when it is built, the packed generators
  (`_packed`) on the first membership test and the `Monomial`s (`gens`)
  on their first read.  The hash is that of `_exps`: equal ideals have
  equal tuples, so it agrees with `==`, and since it hashes no variable
  names it is the same under every PYTHONHASHSEED and survives pickling.

The lazy ones go into the instance `__dict__` through `object.__setattr__`
(`_once` below), not `functools.cached_property`, which on Python < 3.12
takes a lock on every first access.

Divisibility in the kernel is one big-integer subtraction.  With
w = bit_length(largest exponent) + 1, an exponent vector e of r entries
packs into fields of w bits: e_i sits in bits [w*(r-1-i), w*(r-i) - 1),
variable 0 in the highest field, and the top bit of each field, its guard
bit, stays 0.  So packed vectors compare as integers the way their tuples
compare.  Let G be the mask of all guard bits.
In ((e | G) - h) field i holds 2^(w-1) + e_i - h_i >= 0, so no field
borrows from the next, and its guard bit survives exactly when e_i >= h_i:

    h divides e  <=>  ((e | G) - h) & G == G.

The rest is Herzog–Hibi, *Monomial Ideals*, GTM 260, §1.2: an
intersection is generated by the pairwise lcms of the generators, where a
generator that already lies in the other ideal stands for all of its
lcms and only the remaining pairs are formed; I : u is generated by the
g / gcd(g, u); and I : (u_1, ..., u_k) is the intersection of the I : u_j.

The socle of S/I (`_socle_top`, which gives the saturation degree) is
not built as I : m but searched by pivot splits, Roune's slice recursion
(B. H. Roune, "The slice algorithm for irreducible decomposition of
monomial ideals", J. Symbolic Comput. 44, 2009; Miller–Sturmfels,
*Combinatorial Commutative Algebra*, GTM 227, Ch. 5), cut down to the
largest degree.
"""
from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass
from operator import add, le, lshift

NEG_INF = float("-inf")  # the degree of the zero module; absorbing under max and +


class RingMismatchError(ValueError):
    """Operands belong to different polynomial rings."""


class MonomialSyntaxError(ValueError):
    """A monomial string does not follow the `var^k*...` syntax."""


# ------------------------------------------------------------ exponent-tuple kernel


@functools.lru_cache(maxsize=256)
def _layout(nvars: int, top: int) -> tuple:
    """Field shifts and guard mask for packing nvars exponents, each at most top.

    Fields are top.bit_length() + 1 bits wide, the last one a guard bit.
    Variable 0 gets the highest field, so the integer order of packed
    vectors is the order of their tuples.
    """
    width = top.bit_length() + 1
    shifts = tuple(range(width * (nvars - 1), -1, -width))
    return shifts, sum(1 << (s + width - 1) for s in shifts)


def _pack(e, shifts) -> int:
    return sum(map(lshift, e, shifts))


def _divides_any(packed, p: int, guards: int) -> bool:
    """Whether some packed exponent vector in `packed` divides the packed vector p."""
    q = p | guards
    for h in packed:
        if (q - h) & guards == guards:
            return True
    return False


def _minimal(exps, inert=frozenset()) -> list:
    """The minimal tuples of exps and inert under divisibility, deduplicated and sorted.

    A tuple of the set `inert` must divide no other tuple of either: it is
    tested against the others but never kept as a divisor.
    """
    unique = sorted({*exps, *inert}, key=sum)
    if len(unique) < 2 or not any(unique[0]):
        return unique[:1]
    shifts, guards = _layout(len(unique[0]), max(map(max, unique)))
    kept, out = [], []
    # A proper divisor has strictly lower degree, so a candidate is tested only
    # against the kept generators of lower degree; a level joins them once it
    # is done.  An equigenerated input never runs the test.
    for _, level in itertools.groupby(unique, key=sum):
        fresh = []
        for e in level:
            p = _pack(e, shifts)
            if not _divides_any(kept, p, guards):
                out.append(e)
                if not inert or e not in inert:
                    fresh.append(p)
        kept += fresh
    out.sort()
    return out


def _products(a, b) -> list:
    """The exponent tuples g + h of every product of a tuple of a with one of b."""
    return [tuple(map(add, g, h)) for g in a for h in b]


def _intersect(a, b) -> list:
    """Minimal generators of (a) ∩ (b), for minimal generating tuples a and b."""
    if not a or not b:
        return []
    shifts, guards = _layout(len(a[0]), max(map(max, itertools.chain(a, b))))
    pa = [_pack(e, shifts) for e in a]
    pb = [_pack(e, shifts) for e in b]
    # A generator that lies in the other ideal lies in the intersection and
    # divides all of its own lcms; only the remaining pairs need an lcm.
    out, rest_a, rest_b = [], [], []
    for e, p in zip(a, pa):
        (out if _divides_any(pb, p, guards) else rest_a).append(e)
    for e, p in zip(b, pb):
        (out if _divides_any(pa, p, guards) else rest_b).append(e)
    out += [tuple(map(max, g, h)) for g in rest_a for h in rest_b]
    return _minimal(out)


def _colon(gens, u) -> list:
    """Minimal generators of (gens) : u, the g / gcd(g, u)."""
    return _minimal([tuple(a - b if a > b else 0 for a, b in zip(g, u)) for g in gens])


def _colon_ideal(gens, divisors) -> list:
    """Minimal generators of (gens) : (divisors), folded over the divisors."""
    result = _colon(gens, divisors[0])
    for u in divisors[1:]:
        result = _intersect(result, _colon(gens, u))
    return result


def _socle_top(gens, nvars: int):
    """The largest degree of a maximal standard monomial of (gens); NEG_INF if there is none.

    A maximal standard monomial of J is a monomial u not in J with u*x_j in J
    for every j, that is, a monomial of the socle of S/J.  Write msm(J) for
    their set.  For a generator g that is not a pure power and a pivot
    p = x_i^k with 1 <= k <= g_i,

        msm(J) = p * msm(J : p)  ∪  {w in msm(J + (p)) : w_i < k - 1 or w*x_i in J}.

    Proof: if u_i >= k, then u = p*v, and u is not in J with every u*x_j in
    J exactly when v is not in J : p with every v*x_j in J : p.  If u_i < k,
    then u is not in (p), so u is not in J + (p), while every u*x_j is in
    J, so u is in msm(J + (p)).  Conversely a w in msm(J + (p)) has w_i < k
    and w not in J, and for j != i, w*x_j is not in (p), so it is in J; so
    is w*x_i when w_i < k - 1, and when w_i = k - 1 it has to be tested.

    Generators: J + (p) is generated by the g with g_i < k and p, with no
    minimalization, because a pure power x_i^a of J does not divide the
    non-pure generator g, so a > g_i >= k.  J : p is generated by the g with
    g_i lowered by k (but not below 0); a lowered g can divide another only if
    both had g_i <= k, so only those are minimalized.  Among them a g with
    g_i = 0 is unchanged, and if it divided the lowered form of another
    generator h it would divide h itself; so only the ones with 0 < g_i <= k
    serve as divisors.  Both sides have a smaller total degree of non-pure
    generators than J, so the splits end.

    Base cases: if a variable x_j divides no generator, u*x_j in J forces u
    in J, so msm(J) is empty (this covers the zero and the unit ideal).  If
    every generator is a pure power x_j^(a_j), one per variable, msm(J) is
    the single monomial prod x_j^(a_j - 1).

    Only the largest degree is wanted, so the search is depth first with a
    bound.  Every u in msm(J) has, for each j, a generator g dividing u*x_j
    but not u, so u_j = g_j - 1 <= lcm_j - 1.  A node whose msm elements are
    offset * u (the offset is the product of the pivots above it) therefore
    cannot beat |offset| + sum_j (lcm_j - 1), and it is cut when that is at
    most the best degree found.  The `w*x_i in J` tests of the J + (p) sides
    above a node ride down to the leaves as filters (i, o_i + k - 1, o, J),
    o the offset of the split, and are checked on each leaf's monomial.

    The pivot variable is the one in most non-pure generators, and k is the
    median of its positive exponents there.
    """
    best = NEG_INF
    pure = nvars - 1  # a pure power has this many zero exponents
    stack = [(gens, (0,) * nvars, None)]
    while stack:
        gens, offset, filters = stack.pop()
        if not gens:
            continue
        lcm = list(map(max, zip(*gens)))
        if not all(lcm) or sum(offset) + sum(lcm) - nvars <= best:
            continue
        mixed = [g for g in gens if g.count(0) < pure]
        if not mixed:
            u = [o + a - 1 for o, a in zip(offset, lcm)]
            while filters is not None:
                (i, edge, base, split), filters = filters
                if u[i] == edge:
                    w = [a - b for a, b in zip(u, base)]
                    w[i] += 1
                    if not any(all(map(le, g, w)) for g in split):
                        break
            else:
                best = sum(u)
            continue
        columns = list(zip(*mixed))
        i = max(range(nvars), key=lambda j: len(columns[j]) - columns[j].count(0))
        exps = sorted(a for a in columns[i] if a)
        k = exps[len(exps) // 2]
        plus = [g for g in gens if g[i] < k]
        plus.append(tuple(k if j == i else 0 for j in range(nvars)))
        stack.append((plus, offset, ((i, offset[i] + k - 1, offset, gens), filters)))
        high = [g[:i] + (g[i] - k,) + g[i + 1:] for g in gens if g[i] > k]
        lowered = [g[:i] + (0,) + g[i + 1:] for g in gens if 0 < g[i] <= k]
        low = _minimal(lowered, inert=frozenset(g for g in gens if not g[i]))
        # J : p is taken first: its monomials carry the pivot, so it tends to set a high best early.
        stack.append((high + low, offset[:i] + (offset[i] + k,) + offset[i + 1:], filters))
    return best


# ------------------------------------------------------------ values


class _once:
    """A derived attribute of an immutable value, computed on first access.

    The value is stored in the instance `__dict__` under the same name, so
    later reads never reach this descriptor.
    """

    def __init__(self, fn):
        self.fn = fn
        self.name = fn.__name__
        self.__doc__ = fn.__doc__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = self.fn(obj)
        object.__setattr__(obj, self.name, value)
        return value


def _check_variable(name) -> None:
    """Reject `1` and names with `*`, `^`, `#` or whitespace: monomial strings cannot write them."""
    if not isinstance(name, str) or not name:
        raise ValueError("variable names must be nonempty strings")
    if name == "1" or re.search(r"[*^#\s]", name):
        raise ValueError(f"variable name {name!r} cannot be written in a monomial")


@dataclass(frozen=True)
class RingSpec:
    """Polynomial ring k[x_1,...,x_r] over the rationals with the standard grading."""

    variables: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        if len(self.variables) < 1:
            raise ValueError("a ring needs at least one variable")
        for v in self.variables:
            _check_variable(v)
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("variable names must be unique")
        object.__setattr__(self, "nvars", len(self.variables))

    def one(self) -> "Monomial":
        return Monomial(self, (0,) * self.nvars)

    def var(self, name: str) -> "Monomial":
        exps = [0] * self.nvars
        exps[self.variables.index(name)] = 1
        return Monomial(self, tuple(exps))

    def maximal_ideal(self) -> "MonomialIdeal":
        return self._maximal

    @_once
    def _maximal(self) -> "MonomialIdeal":
        # The unit vectors are already minimal; sorted, x_r comes first as in `_minimal`.
        units = (tuple(int(j == i) for j in range(self.nvars)) for i in range(self.nvars))
        return MonomialIdeal(self, sorted(units))

    @_once
    def _unit(self) -> "MonomialIdeal":
        return MonomialIdeal(self, ((0,) * self.nvars,))


@dataclass(frozen=True)
class Monomial:
    """A monomial given by its exponent vector in a fixed ring."""

    ring: RingSpec
    exponents: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "exponents", tuple(self.exponents))
        if len(self.exponents) != self.ring.nvars:
            raise ValueError("exponent vector length does not match the ring")
        if any(not isinstance(e, int) or e < 0 for e in self.exponents):
            raise ValueError("exponents must be non-negative integers")

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    @property
    def support(self) -> frozenset:
        return frozenset(i for i, e in enumerate(self.exponents) if e > 0)

    def is_one(self) -> bool:
        return all(e == 0 for e in self.exponents)

    def _check(self, other: "Monomial"):
        if self.ring != other.ring:
            raise RingMismatchError("monomials from different rings")

    def __mul__(self, other: "Monomial") -> "Monomial":
        self._check(other)
        return Monomial(self.ring, tuple(a + b for a, b in zip(self.exponents, other.exponents)))

    def divides(self, other: "Monomial") -> bool:
        self._check(other)
        return all(a <= b for a, b in zip(self.exponents, other.exponents))

    def lcm(self, other: "Monomial") -> "Monomial":
        self._check(other)
        return Monomial(self.ring, tuple(max(a, b) for a, b in zip(self.exponents, other.exponents)))

    def colon_factor(self, u: "Monomial") -> "Monomial":
        """self / gcd(self, u), the generator contributed to a colon ideal."""
        self._check(u)
        return Monomial(self.ring, tuple(max(a - b, 0) for a, b in zip(self.exponents, u.exponents)))

    def times_var(self, i: int) -> "Monomial":
        exps = list(self.exponents)
        exps[i] += 1
        return Monomial(self.ring, tuple(exps))

    def __str__(self) -> str:
        if self.is_one():
            return "1"
        parts = []
        for name, e in zip(self.ring.variables, self.exponents):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)


def parse_monomial(ring: RingSpec, text: str) -> Monomial:
    """Parse the bit-exact monomial syntax: `1`, or `*`-separated `var` / `var^k` factors."""
    text = text.strip()
    if text == "1":
        return ring.one()
    if not text:
        raise MonomialSyntaxError("empty monomial")
    exps = [0] * ring.nvars
    seen = set()
    for factor in text.split("*"):
        if not factor:
            raise MonomialSyntaxError(f"empty factor in {text!r}")
        if "^" in factor:
            name, _, power = factor.partition("^")
            if not (power.isascii() and power.isdigit()):
                raise MonomialSyntaxError(f"bad exponent in factor {factor!r}")
            k = int(power)
            if k < 1:
                raise MonomialSyntaxError(f"exponent must be >= 1 in factor {factor!r}")
        else:
            name, k = factor, 1
        if name not in ring.variables:
            raise MonomialSyntaxError(f"unknown variable {name!r}")
        if name in seen:
            raise MonomialSyntaxError(f"repeated variable {name!r} in {text!r}")
        seen.add(name)
        exps[ring.variables.index(name)] = k
    return Monomial(ring, tuple(exps))


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal stored by the exponent tuples of its minimal generators (sorted, deduplicated).

    Build instances through `ideal`, `minimalize`, or the arithmetic
    operations below, which all minimalize their output.  The constructor
    itself takes the generators' exponent tuples, already minimal and
    sorted, and checks only their shape.
    """

    ring: RingSpec
    _exps: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        exps = tuple(self._exps)
        nvars = self.ring.nvars
        for e in exps:
            if not (isinstance(e, tuple) and len(e) == nvars and all(isinstance(a, int) and a >= 0 for a in e)):
                raise ValueError(f"generator {e!r} is not a tuple of {nvars} non-negative integers")
        object.__setattr__(self, "_exps", exps)
        object.__setattr__(self, "_hash", hash(exps))

    def __hash__(self) -> int:
        return self._hash

    @_once
    def gens(self) -> tuple:
        """The minimal generators as `Monomial`s, in the order of `_exps`."""
        return tuple(Monomial(self.ring, e) for e in self._exps)

    def is_zero(self) -> bool:
        return not self._exps

    def is_unit(self) -> bool:
        return len(self._exps) == 1 and not any(self._exps[0])

    @_once
    def _packed(self) -> tuple:
        """(top, shifts, guards, packed generators): the kernel's form of the generators.

        top is the largest generator exponent and (shifts, guards) its `_layout`.
        """
        top = max(map(max, self._exps), default=0)
        shifts, guards = _layout(self.ring.nvars, top)
        return top, shifts, guards, tuple(_pack(e, shifts) for e in self._exps)

    def _outside(self, exps) -> list:
        """The exponent tuples in exps (of this ring) whose monomials are not in the ideal."""
        top, shifts, guards, packed = self._packed
        if not top:  # the zero ideal contains nothing, the unit ideal everything
            return [] if packed else list(exps)
        out = []
        for e in exps:
            # no generator exponent exceeds top, so capping e at top keeps divisibility
            capped = e if max(e) <= top else [min(x, top) for x in e]
            if not _divides_any(packed, _pack(capped, shifts), guards):
                out.append(e)
        return out

    def contains(self, u: Monomial) -> bool:
        if u.ring != self.ring:
            raise RingMismatchError("monomial from a different ring")
        return not self._outside((u.exponents,))

    def is_subset_of(self, other: "MonomialIdeal") -> bool:
        self._check(other)
        return not other._outside(self._exps)

    def _check(self, other: "MonomialIdeal"):
        if self.ring != other.ring:
            raise RingMismatchError("ideals from different rings")

    def __add__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._check(other)
        if not other._exps:
            return self
        if not self._exps:
            return other
        return MonomialIdeal(self.ring, _minimal(self._exps + other._exps))

    def __mul__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._check(other)
        return MonomialIdeal(self.ring, _minimal(_products(self._exps, other._exps)))

    def scale(self, u: Monomial) -> "MonomialIdeal":
        """The ideal u * self."""
        return ideal(self.ring, [u * g for g in self.gens])

    def power(self, n: int) -> "MonomialIdeal":
        if n < 0:
            raise ValueError("power exponent must be >= 0")
        if n == 0:
            return self.ring._unit
        result = self
        for _ in range(n - 1):
            result = result * self
        return result

    def intersect(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._check(other)
        return MonomialIdeal(self.ring, _intersect(self._exps, other._exps))

    def colon(self, u: Monomial) -> "MonomialIdeal":
        """The colon ideal self : (u)."""
        if u.ring != self.ring:
            raise RingMismatchError("monomial from a different ring")
        return MonomialIdeal(self.ring, _colon(self._exps, u.exponents))

    def colon_ideal(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """The colon ideal self : other, intersected over the generators of other."""
        self._check(other)
        if other.is_zero():
            raise ValueError("colon by the zero ideal")
        return MonomialIdeal(self.ring, _colon_ideal(self._exps, other._exps))

    def saturate(self) -> "MonomialIdeal":
        """Saturation by the maximal ideal: I : m^∞ = ∩_i (I : x_i^∞).

        I : x_i^∞ is generated by the generators of I with exponent i set to 0
        (Herzog–Hibi, *Monomial Ideals*, GTM 260, §1.2).
        """
        parts = [
            _minimal([e[:i] + (0,) + e[i + 1:] for e in self._exps])
            for i in range(self.ring.nvars)
        ]
        return MonomialIdeal(self.ring, functools.reduce(_intersect, parts))

    def krull_dim_quotient(self) -> int:
        """Krull dimension of S/self; -1 for the unit ideal (zero ring)."""
        if self.is_unit():
            return -1
        indices = range(self.ring.nvars)
        supports = [g.support for g in self.gens]
        for size in range(self.ring.nvars, -1, -1):
            for subset in itertools.combinations(indices, size):
                fset = frozenset(subset)
                if not any(s <= fset for s in supports):
                    return size
        return -1

    def max_gen_degree(self) -> int:
        """Maximal degree of a minimal generator; 0 for the zero and unit ideals."""
        return max(map(sum, self._exps), default=0)

    def lcm_exponents(self) -> tuple:
        """Componentwise maximum of the generator exponents (the zero vector if no generators)."""
        return tuple(map(max, zip(*self._exps))) or (0,) * self.ring.nvars

    def __str__(self) -> str:
        if self.is_zero():
            return "(0)"
        return "(" + ", ".join(str(g) for g in self.gens) + ")"


def minimalize(ring: RingSpec, gens) -> MonomialIdeal:
    """The unique minimal generating set: drop every monomial divisible by another one."""
    exps = []
    for g in gens:
        if g.ring != ring:
            raise RingMismatchError("generator from a different ring")
        exps.append(g.exponents)
    return MonomialIdeal(ring, _minimal(exps))


def ideal(ring: RingSpec, gens) -> MonomialIdeal:
    """Build a minimalized MonomialIdeal from monomials or monomial strings."""
    parsed = [g if isinstance(g, Monomial) else parse_monomial(ring, g) for g in gens]
    return minimalize(ring, parsed)


def zero_ideal(ring: RingSpec) -> MonomialIdeal:
    return MonomialIdeal(ring, ())


def unit_ideal(ring: RingSpec) -> MonomialIdeal:
    return ring._unit
