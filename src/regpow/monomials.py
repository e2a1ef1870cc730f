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

* `RingSpec` stores `nvars` and its hash when it is built and, on first
  use, its maximal ideal and its unit ideal;
* `MonomialIdeal` stores its hash when it is built, the packed generators
  (`_packed`) on the first membership test and the `Monomial`s (`gens`)
  on their first read.  The hash is that of `_exps` and the ring's hash,
  so equal generators in different rings rarely share a memo slot.  The
  ring's hash is that of an int, its variable names read as bytes, so
  every hash is the same under every PYTHONHASHSEED and survives pickling.

The lazy ones go into the instance `__dict__` through `object.__setattr__`
(`_once` below), not `functools.cached_property`, which on Python < 3.12
takes a lock on every first access.

Divisibility in the kernel is one big-integer subtraction on the packed
form that `_layout` declares once for the whole package (`betti` uses it
too): fields of w bits, variable 0 in the highest, whose top bit, the guard
bit, stays 0.  Let G be the mask of all guard bits.  In ((e | G) - h)
field i holds 2^(w-1) + e_i - h_i >= 0, so no field borrows from the next,
and its guard bit survives exactly when e_i >= h_i:

    h divides e  <=>  ((e | G) - h) & G == G.

The rest is Herzog–Hibi, *Monomial Ideals*, GTM 260, §1.2: an
intersection is generated by the pairwise lcms of the generators, where a
generator of the first ideal that lies in the second stands for all of its
lcms; I : u is generated by the g / gcd(g, u); and I : (u_1, ..., u_k) is
the intersection of the I : u_j.

The socle of S/I (`_socle_top`, which gives the saturation degree) is
not built as I : m but searched by pivot splits, Roune's slice recursion
(B. H. Roune, "The slice algorithm for irreducible decomposition of
monomial ideals", J. Symbolic Comput. 44, 2009; Miller–Sturmfels,
*Combinatorial Commutative Algebra*, GTM 227, Ch. 5), cut down to the
largest degree.  The search runs on keys (`_keys`) packed once per call
and builds each J : x_i^k from them (`_split`) with no repacking.  A
corner cut drops a node whose bound exceeds the best degree by one when
x^(lcm - 1) lies in the ideal.
"""
from __future__ import annotations

import functools
import itertools
import re
from bisect import bisect_left
from dataclasses import dataclass
from operator import add, lshift, or_
from typing import NamedTuple

NEG_INF = float("-inf")  # the degree of the zero module; absorbing under max and +


class RingMismatchError(ValueError):
    """Operands belong to different polynomial rings."""


class MonomialSyntaxError(ValueError):
    """A monomial string does not follow the `var^k*...` syntax."""


# ------------------------------------------------------------ exponent-tuple kernel


class _Layout(NamedTuple):
    """The packed form of exponent vectors of nvars entries, each at most top; see `_layout`."""

    bits: int  # value bits of a field, top.bit_length()
    shifts: tuple  # the bit where each variable's field starts, variable 0 highest
    guards: int  # G, the guard (top) bit of every field
    field: int  # one field's mask, w bits
    ones: int  # 1 in every field
    above: int  # where a key's degree field starts
    exps: int  # the mask of all exponent fields
    up: int  # x * up holds the sum of x's fields in the field above them

    def unpack(self, x: int) -> tuple:
        """The exponent tuple of a packed vector or key."""
        return tuple([(x >> s) & self.field for s in self.shifts])


@functools.lru_cache(maxsize=256)
def _layout(nvars: int, top: int) -> _Layout:
    """The one packed format of the kernel, for nvars exponents each at most top.

    A field is w = top.bit_length() + 1 bits wide.  Variable i's field
    starts at bit w*(r-1-i), so variable 0 has the highest field and packed
    vectors compare as integers the way their tuples compare.  The top bit
    of each field, its guard bit, stays 0 (for the divisibility test of the
    module docstring).  A key (`_keys`) adds the vector's degree in one more
    field above the exponents, so sorted keys run by degree and then as
    tuples.  A vector whose degree is at most 2^w - 1 has its degree read
    with one multiplication, ((x * up) >> above) & field: no partial sum of
    its fields carries into the field above them.
    """
    bits = top.bit_length()
    width = bits + 1
    above = width * nvars
    field, exps = (1 << width) - 1, (1 << above) - 1
    ones = exps // field  # 1 in every field: sum of 2^(w*i), i < nvars
    shifts = tuple(range(above - width, -1, -width))
    return _Layout(bits, shifts, ones << bits, field, ones, above, exps, ones << width)


def _pack(e, shifts) -> int:
    return sum(map(lshift, e, shifts))


def _keys(exps, layout: _Layout) -> list:
    """The sorted keys of the exponent tuples: each packed in layout with its degree in the field above."""
    shifts, above = layout.shifts, layout.above
    return sorted([_pack(e, shifts) | (sum(e) << above) for e in exps])


def _divides_any(packed, p: int, guards: int) -> bool:
    """Whether some packed exponent vector in `packed` divides the packed vector p."""
    q = p | guards
    for h in packed:
        if (q - h) & guards == guards:
            return True
    return False


def _minimal(exps) -> list:
    """The minimal tuples of exps under divisibility, deduplicated and sorted."""
    unique = sorted(set(exps), key=sum)
    if len(unique) < 2 or not any(unique[0]):
        return unique[:1]
    # A proper divisor has strictly lower degree, so a candidate is tested only
    # against the kept generators of lower degree; a level joins them once it
    # is done.  So an input of one degree is already minimal, and is not packed.
    if sum(unique[0]) == sum(unique[-1]):
        unique.sort()
        return unique
    layout = _layout(len(unique[0]), max(map(max, unique)))
    shifts, guards = layout.shifts, layout.guards
    kept, out = [], []
    for _, level in itertools.groupby(unique, key=sum):
        fresh = []
        for e in level:
            p = _pack(e, shifts)
            if not _divides_any(kept, p, guards):
                out.append(e)
                fresh.append(p)
        kept += fresh
    out.sort()
    return out


def _products(a, b) -> list:
    """The exponent tuples g + h of every product of a tuple of a with one of b."""
    return [tuple(map(add, g, h)) for g in a for h in b]


def _intersect(a, b) -> list:
    """Minimal generators of (a) ∩ (b): the minimal pairwise lcms.

    A g of a that lies in (b) lies in the intersection and divides its lcms
    with b, so it stands for them.  Only a is tested: the folds of
    `saturate` and `_colon_ideal` pass their running intersection as a, and
    its generators mostly lie in the next b.
    """
    if not a or not b:
        return []
    layout = _layout(len(a[0]), max(map(max, itertools.chain(a, b))))
    pb = [_pack(h, layout.shifts) for h in b]
    out = []
    for g in a:
        if _divides_any(pb, _pack(g, layout.shifts), layout.guards):
            out.append(g)
        else:
            out += [tuple(map(max, g, h)) for h in b]
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


def _split(keys, s: int, k: int, layout: _Layout) -> tuple:
    """(J + (p), J : p) for J generated by the socle-search keys `keys` and p = x_i^k.

    x_i's field starts at bit s; the J : p keys are minimal, and J + (p)
    needs no minimalization (see `_socle_top`).  A key g with g_i > k goes
    to J : p as g - k*x_i; one with 0 < g_i <= k as g with field i cleared,
    and one with g_i = 0 unchanged.  Only the lowered ones can divide
    another candidate, and only one of lower degree, so each candidate is
    tested against the lowered survivors of lower degree alone.
    """
    field, guards, above = layout.field, layout.guards, layout.above
    unit = (1 << s) | (1 << above)  # x_i with its degree
    p = k * unit
    plus, colon, lowered, unchanged = [], [], [], []
    for g in keys:
        a = (g >> s) & field
        if a > k:
            colon.append(g - p)
        elif a:
            lowered.append(g - a * unit)
            if a < k:
                plus.append(g)
        else:
            unchanged.append(g)
            plus.append(g)
    plus.append(p)
    # sorted keys run by degree, the field above the exponents
    lowered.sort()
    low, fresh, level = [], [], 0
    for c in lowered:
        if c >> above != level:
            low += fresh
            fresh, level = [], c >> above
        if not _divides_any(low, c, guards):
            fresh.append(c)
    low += fresh
    for c in unchanged:
        if not _divides_any(low[:bisect_left(low, c >> above << above)], c, guards):
            colon.append(c)
    return plus, colon + low


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
    serve as divisors (`_split`).  Both sides have a smaller total degree of
    non-pure generators than J, so the splits end.

    Base cases: if a variable x_j divides no generator, u*x_j in J forces u
    in J, so msm(J) is empty (this covers the zero and the unit ideal).  If
    every generator is a pure power x_j^(a_j), one per variable, msm(J) is
    the single monomial prod x_j^(a_j - 1).

    Only the largest degree is wanted, so the search is depth first with a
    bound.  Every u in msm(J) has, for each j, a generator g dividing u*x_j
    but not u, so u_j = g_j - 1 <= lcm_j - 1.  A node whose msm elements are
    offset * u (the offset is the product of the pivots above it) therefore
    cannot beat |offset| + sum_j (lcm_j - 1), and it is cut when that is at
    most the best degree found.  Corner cut: when the bound is best + 1,
    only u = lcm - 1 could beat best, so the node is also cut when some
    generator divides x^(lcm - 1).  The `w*x_i in J` tests of the J + (p)
    sides above a node ride down to the leaves as filters (i, o_i + k - 1,
    o, J), o the offset of the split, and are checked on each leaf's monomial.

    The pivot variable is the one in most non-pure generators (the first on
    ties), and k is the median of its positive exponents there.

    The search runs on the keys (`_keys`) of `_layout(nvars, max(D, n))`, D
    the degree of the root's lcm box and n its number of generators, packed
    once per call.  No field overflows.  offset + lcm never exceeds the
    root's lcm (J : p moves k from the lcm to the offset, J + (p) adds only
    p, and k <= lcm_i), so its fields sum to at most D and its degree is
    read with one multiplication.  No node has more generators
    than the root, so the per-variable counts of non-pure generators, summed
    from their guard bits, fit a field.  A node first ORs its keys, whose
    fields are all nonzero exactly when every variable divides a generator;
    then one pass over the keys gives the lcm (the guard-bit select of
    `betti._pivots`), the non-pure keys (those where (g | G) - ones keeps
    two guard bits or more) and the counts.
    """
    if not gens:
        return NEG_INF
    layout = _layout(nvars, max(sum(map(max, zip(*gens))), len(gens)))
    bits, shifts, guards, field, ones, above, exps, up = layout
    best = NEG_INF
    stack = [(_keys(gens, layout), 0, None)]
    while stack:
        keys, offset, filters = stack.pop()
        if ((functools.reduce(or_, keys) | guards) - ones) & guards != guards:
            continue  # a variable divides no generator
        # nz has the guard bits of g's nonzero fields
        lcm = nonpure = 0
        mixed = []
        for g in keys:
            lcm ^= (lcm ^ g) & ~(((((lcm | guards) - g) & guards) >> bits) * field)
            nz = ((g | guards) - ones) & guards
            if nz & (nz - 1):
                mixed.append(g)
                nonpure += nz
        lcm &= exps
        bound = ((((offset + lcm) * up) >> above) & field) - nvars
        if bound <= best:
            continue
        if not mixed:
            u = offset + lcm - ones
            while filters is not None:
                (s, edge, base, split), filters = filters
                if (u >> s) & field == edge and not _divides_any(split, u - base + (1 << s), guards):
                    break
            else:
                best = bound
            continue
        if bound - 1 <= best and _divides_any(keys, lcm - ones, guards):
            continue
        counts = nonpure >> bits
        # a larger shift is an earlier variable, so ties go to the first one
        c, s = max([((counts >> s) & field, s) for s in shifts])
        column = sorted([(g >> s) & field for g in mixed])
        k = column[len(column) - c + c // 2]
        plus, colon = _split(keys, s, k, layout)
        stack.append((plus, offset, ((s, ((offset >> s) & field) + k - 1, offset, keys), filters)))
        # J : p is taken first: its monomials carry the pivot, so it tends to set a high best early.
        stack.append((colon, offset + (k << s), filters))
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
        # names hold no whitespace, so the join is injective; an int's hash ignores PYTHONHASHSEED
        object.__setattr__(self, "_hash", hash(int.from_bytes(" ".join(self.variables).encode(), "big")))

    def __hash__(self) -> int:
        return self._hash

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
        object.__setattr__(self, "_hash", hash((exps, self.ring._hash)))

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
        """(top, layout, packed generators): the kernel's form of the generators.

        top is the largest generator exponent and layout its `_layout`.
        """
        top = max(map(max, self._exps), default=0)
        layout = _layout(self.ring.nvars, top)
        return top, layout, tuple(_pack(e, layout.shifts) for e in self._exps)

    def _outside(self, exps):
        """The exponent tuples in exps (of this ring) whose monomials are not in the ideal, one by one."""
        top, layout, packed = self._packed
        if not top:  # the zero ideal contains nothing, the unit ideal everything
            if not packed:
                yield from exps
            return
        shifts, guards = layout.shifts, layout.guards
        for e in exps:
            # no generator exponent exceeds top, so capping e at top keeps divisibility
            capped = e if max(e) <= top else [min(x, top) for x in e]
            if not _divides_any(packed, _pack(capped, shifts), guards):
                yield e

    def contains(self, u: Monomial) -> bool:
        if u.ring != self.ring:
            raise RingMismatchError("monomial from a different ring")
        return next(self._outside((u.exponents,)), None) is None

    def is_subset_of(self, other: "MonomialIdeal") -> bool:
        """Whether every generator lies in other; the scan stops at the first one outside."""
        self._check(other)
        return next(other._outside(self._exps), None) is None

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
