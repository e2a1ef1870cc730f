"""Graded Betti numbers of monomial subquotients via Koszul homology, exact over the integers.

The production path decomposes the Koszul complex K(x_1..x_r) ⊗ A/B by
multidegree: each multidegree block is a complex of dimension at most
2^r, and the block at alpha is the relative upper Koszul simplicial
complex (K^alpha(A), K^alpha(B)), the faces F ⊆ {1..r} with x^(alpha - F)
in A and not in B (Miller–Sturmfels, Combinatorial Commutative Algebra,
Thm 1.34).  Its homology in face size i is Tor_i(A/B)_alpha.

One lemma decides where a block must be ranked.  Let C be a complex of
finite-dimensional vector spaces whose homology in position i is
Tor_i(M)_alpha, with known dimensions c_i.  If every differential
C_i → C_{i-1} has a zero end (c_i = 0 or c_{i-1} = 0), every differential
is zero, each C_i is all cycles and no boundaries, and
dim Tor_i(M)_alpha = c_i.  So where no two adjacent positions of C are
nonzero at alpha, the c_i are the Betti numbers and no rank is taken;
elsewhere the block at alpha is ranked.  Two complexes use it.

S/J.  The support of S/J is found by a Mayer–Vietoris tree (E.
Sáenz-de-Cabezón, "Multigraded Betti numbers without computing minimal
free resolutions", AAECC 20, 2009).  Its root is J at dimension 0.  The
node (m_1..m_k), generators sorted by degree, at dimension d counts each
m_j as a pivot at d, and for each j > 1 it has a child at d + 1, the
ideal N_{j-1} ∩ (m_j) of the minimal lcm(m_i, m_j), i < j, where
N_j = (m_1..m_j).  The sequence 0 → N_{j-1} ∩ (m_j) → N_{j-1} ⊕ (m_j) → N_j → 0
resolves N_j by the mapping cone of a lift of its left map: position i
holds those of N_{j-1} and (m_j) in position i and the child's in
position i - 1.  Unrolled over the tree, J gets a free resolution with
one basis element of multidegree alpha in position i for each pivot at
alpha in dimension i, and S/J one with S in position 0 and, in position
i ≥ 1, one for each pivot at alpha in dimension i - 1.  Tor(S/J)_alpha is
the homology of this resolution tensored with k at alpha, so by the
lemma the pivot counts are the Betti numbers wherever no two pivot
dimensions at alpha are adjacent, Tor_{d+1}(S/J)_alpha being the count at
d.  Tor is a subquotient of that complex, so every support point is a
pivot and none is missed.  Above dimension 0 a pivot is the lcm of two or
more generators, so a generator is a pivot once, at dimension 0, and is
never ranked.

A/B.  A table is composed from the multigraded Betti numbers of S/A and
S/B, each computed once per ideal.  For S/J the numerator is the unit
ideal, so its block at alpha is Δ_alpha minus K^alpha(J), Δ_alpha the
simplex on supp(alpha).  With K^alpha(B) ⊆ K^alpha(A) ⊆ Δ_alpha, the blocks
of 0 → A/B → S/B → S/A → 0 form a short exact sequence of chain complexes
at every alpha, hence the long exact sequence

    … → Tor_{i+1}(S/A)_alpha → Tor_i(A/B)_alpha → Tor_i(S/B)_alpha → Tor_i(S/A)_alpha → …

With f_i the map Tor_i(S/B)_alpha → Tor_i(S/A)_alpha, it gives
dim Tor_i(A/B)_alpha = dim ker f_i + dim coker f_{i+1}, the homology in
position i of the cone of the f_i: Tor_i(S/B)_alpha ⊕ Tor_{i+1}(S/A)_alpha
in position i, whose only maps are the f_i.  By the lemma, where
Tor(S/A)_alpha and Tor(S/B)_alpha share no homological degree,
Tor_i(A/B)_alpha is Tor_i(S/B)_alpha ⊕ Tor_{i+1}(S/A)_alpha; off either
support that is the other support's Tor (one degree down for S/A), and off
both it is 0.  Summed over alpha, beta_{i,j}(A/B) is therefore
beta_{i,j}(S/B) + beta_{i+1,j}(S/A), the graded sums each ideal keeps,
corrected at the points where the two share a degree: there both
contributions are taken back and the homology of the relative block of
(A, B) is added.  So A = S gives S/B's Betti numbers (S/S = 0 has empty
support), and B = 0 gives S/0 = S the support {0}.  The shift reaches
degree -1 only through Tor_0(S/A), which lives at 0 when A ≠ S; then
Tor_0(S/B) shares its degree there, so the point 0 is corrected, and its
relative block is empty.  No entry can end negative; one that does is an
internal error.

The relative block is built from the generators of A outside B alone.
Since B ⊆ A, a generator g of A that lies in B gives only faces of
K^alpha(B): for F ⊆ T_g (the facet below), g divides x^(alpha - F), which
is thus in B.  So the block is the union of the simplices on T_g over the
generators g of A outside B, minus K^alpha(B), and at a point that none of
them divides it is empty and no facet of B is scanned.  As both generating
sets are minimal, a generator of A lies in B exactly when it is one of B's
(a generator of B dividing it lies in A, so a generator of A divides that
one in turn, and minimality makes all three equal), so a table finds them
once, by a set difference.

The tree runs on the keys (`monomials._keys`) of the ideal's layout
`_layout(r, max(D, 31))`, D the degree of its lcm box: fields carry at
least 5 value bits, so ideals whose boxes have degree below 32 share one
layout and compose without repacking.  A node is its keys in increasing
order.  lcm(g, m) keeps m's field where m_i >= g_i, that is where the
guard bit of (m | G) - g survives, and takes g's elsewhere.  Its degree
is read with one multiplication, as no sum of fields exceeds D.  A child
keeps each lcm that no lower kept key divides, by the same guard-bit
test.  The tree only counts; the record reads the lemma off each key's
counts.

The block of S/J at alpha ≠ 0 is shrunk before it is ranked.  Δ_alpha is
a cone, so with K = K^alpha(J), Tor_i(S/J)_alpha = H_i(Δ_alpha, K) is
H_{i-1}(K), in face sizes with the empty face included.  As alpha is no
generator, K has a vertex v.  K is del_v K ∪ v * lk_v K, and the cone
v * lk_v K is acyclic, so H(K) = H(K, v * lk_v K), whose chain complex is
that of the face set del_v K minus lk_v K: the faces of the facets T
without v, minus those of the T - v for the facets T with v.
Its homology in face size i is Tor_{i+1}(S/J)_alpha, on one vertex fewer.
Where a generator's facet (below) is all of supp(alpha), K = Δ_alpha and
Tor(S/J)_alpha = 0, and the face set is empty without a test for it: that
facet has v, and the faces of supp(alpha) - v hold every face without v.
Any vertex of K will do; v is the last variable of K, the lowest guard bit
of the facets' union, which ranked the least on the families tried
(cycle, ehl, m2_reg, m2_sdeg, the corpus); the first variable made cycle
t=4 R/I^4 about nine times slower.

The block at alpha comes from facets, one pass over the generators: a
generator g of A with g | x^alpha has the facet T_g = {j : g_j < alpha_j},
and the faces of K^alpha(A) are the subsets of some T_g (likewise for B).
With q = x^alpha | G, g divides x^alpha exactly when q - g keeps every
guard bit, and T_g is the guard pattern of (q - g) - ones.  A face is a
bitmask of the vertices of supp(alpha), vertex k its k-th variable (the
k-th highest guard bit of its guard pattern), and a complex is a face set,
one int with bit F set for each face F, so the block is
K^alpha(A) & ~K^alpha(B).  A face set thus has at most 2^|supp(alpha)|
bits, however many variables the ring has and whichever of them alpha
uses, and blocks that differ only in those variables share one memo
entry.  The vertices keep the variables' order, so faces are listed, and
their boundary matrices eliminated, in the order they had when vertex j
was variable j; Bareiss elimination is slower on the reverse order.
Its boundary matrices have entries 0 and ±1 and are ranked exactly over
the integers by fraction-free (Bareiss) elimination.  Blocks repeat a lot
across points and tables, so their homology is memoized on the face set
in a bounded LRU cache.

A support point is its tree key without the degree field, in its ideal's
own layout.  `_quotient_betti` keeps, per ideal, its layout, its packed
generators, the points of the support, each with its degree, the bitmask
of its homological degrees and its Betti numbers, the graded Betti
numbers of S/J and the lcm exponents, in a bounded memo of 64 ideals
keyed by the ideal with its ring.  Neighbouring modules share ideals
(J_n is the denominator of R/I^n and of I^(n-1)/I^n and the numerator of
I^n/I^(n+1) and of I^n = J_n/Q), so a window builds each tree once.  A
table walks the support of the record with the narrower layout, on a tie
the smaller one, and looks each point up in the other's; in the
benchmark corpus every ideal of a ring shares one layout, so the walked
support is always the smaller.  Where the widths differ, its points and
its ideal's generators are moved into the other layout, so points only
ever widen, which loses none: a wider layout holds every point of a
narrower one.  A shared degree is one AND of the two masks, and the
relative blocks are built in the wider layout.

Every pivot lies in the componentwise-lcm box of the generators, so the
box degree plus r still bounds every degree j with a nonzero Betti number.
`search_bound` keeps that box value rather than the support's top degree:
`regpow betti --format json` prints it and the disk cache stores it, and
it depends only on the generators' lcms, not on which pivots carry
homology; a table reads the lcms from the two ideals' records.
`betti_bidegree`, rank-nullity on the full bidegree matrices
of K ⊗ A/B ranked by the same Bareiss elimination, is kept as an
independent cross-check; rational Gaussian elimination is the tests'
reference for that rank.

The disk cache (`REGPOW_CACHE`) is a pure accelerator.  Its file is one
JSON object mapping a key to {"search_bound", "entries"}; the key is the
SHA-256 of a format tag (`CACHE_FORMAT`), the ring and both generating
sets, so records under another tag are misses.  A process
parses a file once and keeps the parsed view, parsing it again only when
the file's (inode, size, mtime) signature changes; a hit then costs one
`stat` and a dict lookup.  Every write merges into that view, encodes it
whole to a temp file and renames it over the old file, so an interrupted
write leaves the previous file intact.  A direct `betti_table` call writes
its record at once; inside `deferred_cache_writes` (every `defect_report`
runs its values in one) the records are collected and each file is
written once on leaving the block.  There is no lock: two processes
writing one file at the same time can still lose each other's records.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import os
import tempfile
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .modules import NEG_INF, Subquotient, basis
from .monomials import MonomialIdeal, _Layout, _keys, _layout

CACHE_ENV = "REGPOW_CACHE"
# Hashed into every cache key, so records of another format or engine version are misses.
CACHE_FORMAT = "regpow-betti-cache 2"


@dataclass
class BettiTable:
    """Nonzero graded Betti numbers beta_{i,j} with the degree window used to compute them."""

    entries: dict
    search_bound: int

    def betti(self, i: int, j: int) -> int:
        return self.entries.get((i, j), 0)

    def regularity(self):
        if not self.entries:
            return NEG_INF
        return max(j - i for (i, j) in self.entries)


def _koszul_rows(module: Subquotient, i: int, j: int) -> list:
    """The boundary of K ⊗ M from bidegree (i, j) to (i-1, j), as dense 0/±1 rows.

    A basis pair (F, m) is a sorted tuple F of i variable indices and a
    degree j-i basis monomial m of the module; there is one row per pair of
    bidegree (i, j) and one column per pair of bidegree (i-1, j).  Removing
    the k-th index v of F sends (F, m) to (-1)^k (F - v, m·x_v), which is
    zero when m·x_v lies in the denominator.
    """
    nv = module.ring.nvars

    def pairs(i):
        if not 0 <= i <= nv:
            return []
        mons = basis(module, j - i)
        return [(F, m) for F in itertools.combinations(range(nv), i) for m in mons]

    index = {pair: c for c, pair in enumerate(pairs(i - 1))}
    rows = []
    for F, m in pairs(i):
        row = [0] * len(index)
        for k, v in enumerate(F):
            target = m.times_var(v)
            if not module.denominator.contains(target):
                row[index[(F[:k] + F[k + 1 :], target)]] = (-1) ** k
        rows.append(row)
    return rows


def betti_bidegree(module: Subquotient, i: int, j: int) -> int:
    """beta_{i,j} by rank-nullity on full bidegree matrices (cross-check path)."""
    here = _koszul_rows(module, i, j)
    return len(here) - _rank_int(here) - _rank_int(_koszul_rows(module, i + 1, j))


def _rank_int(rows) -> int:
    """Exact rank of an integer matrix by fraction-free (Bareiss) elimination.

    After k pivots every live entry is a (k+1)-minor of the input, so the
    division by the previous pivot is exact (Bareiss, Math. Comp. 22, 1968).
    """
    mat = [list(row) for row in rows]
    if not mat or not mat[0]:
        return 0
    nrows, ncols = len(mat), len(mat[0])
    rank, prev = 0, 1
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        prow = mat[rank]
        p = prow[col]
        for r in range(rank + 1, nrows):
            row = mat[r]
            f = row[col]
            if not f and p == prev:
                continue  # the update would leave this row as it is
            for c in range(col + 1, ncols):
                row[c] = (p * row[c] - f * prow[c]) // prev
        prev = p
        rank += 1
        if rank == nrows:
            break
    return rank


def _levels(faces: int) -> dict:
    """The faces of a face set by size, each list in increasing bitmask order."""
    levels = {}
    while faces:
        low = faces & -faces
        F = low.bit_length() - 1
        levels.setdefault(F.bit_count(), []).append(F)
        faces ^= low
    return levels


def _boundary(levels: dict, i: int) -> list:
    """The boundary from the size-i faces to the size-(i-1) faces, one row per size-i face.

    Removing the k-th vertex of F (in increasing order) has sign (-1)^k; a
    face outside the block is zero in the relative complex and gets no entry.
    """
    index = {G: c for c, G in enumerate(levels.get(i - 1, ()))}
    rows = []
    for F in levels.get(i, ()):
        row = [0] * len(index)
        rest, sign = F, 1
        while rest:
            low = rest & -rest
            c = index.get(F ^ low)
            if c is not None:
                row[c] = sign
            sign = -sign
            rest ^= low
        rows.append(row)
    return rows


@lru_cache(maxsize=4096)
def _block_betti(faces: int) -> tuple:
    """The nonzero homology dimensions (i, beta_i) of one block, given by its face set.

    beta_i = #(faces of size i) - rank d_i - rank d_{i+1}.  Blocks repeat
    across points and tables, hence the memo on the face set.
    """
    levels = _levels(faces)
    top = max(levels)
    ranks = [0] * (top + 2)
    for i in range(1, top + 1):
        ranks[i] = _rank_int(_boundary(levels, i))
    out = []
    for i, level in sorted(levels.items()):
        b = len(level) - ranks[i] - ranks[i + 1]
        if b:
            out.append((i, b))
    return tuple(out)


class _Simplices(dict):
    """Guard pattern of a facet -> face set of the simplex on it, filled on first lookup.

    The facets lie in one support, given by its guard pattern, and vertex k
    is the k-th highest guard bit of it, the support's k-th variable: a face
    is a bitmask of vertices, and a face set has bit S set for every face S.
    """

    def __init__(self, support: int):
        super().__init__()
        self.support = support

    def __missing__(self, pattern: int) -> int:
        faces, rest = 1, pattern
        while rest:
            low = rest & -rest
            faces |= faces << (1 << (self.support >> low.bit_length()).bit_count())
            rest ^= low
        self[pattern] = faces
        return faces


@lru_cache(maxsize=4096)
def _simplices(support: int) -> _Simplices:
    """The `_Simplices` of a support's guard pattern, shared by every point with that support."""
    return _Simplices(support)


def _pivots(roots: list, layout: _Layout) -> dict:
    """The pivots of the Mayer–Vietoris tree of roots: key -> {i: count}.

    The count is the number of pivots at the key in dimension i - 1, the
    rank at the key of position i of the tree's mapping-cone resolution of
    S/J.  roots are the generators' keys (`_keys`), in a layout with room
    for the degree of their lcm box.
    """
    bits, guards, field, exps, up = layout.bits, layout.guards, layout.field, layout.exps, layout.up
    degree = field << layout.above
    pivots = {}
    stack = [(roots, 1)]
    while stack:
        gens, i = stack.pop()
        for j, m in enumerate(gens):
            counts = pivots.get(m)
            if counts is None:
                pivots[m] = {i: 1}
            else:
                counts[i] = counts.get(i, 0) + 1
            if not j:
                continue
            # lcm(g, m) keeps m's field where m_i >= g_i (its guard bit survives
            # (m | G) - g) and takes g's elsewhere; then its degree field is refilled
            q = m | guards
            lcms = set()
            for g in gens[:j]:
                x = (m ^ ((m ^ g) & ~((((q - g) & guards) >> bits) * field))) & exps
                lcms.add(x | ((x * up) & degree))
            # a proper divisor has a lower key, so each key is tested against the kept ones
            child = []
            for p in sorted(lcms):
                t = p | guards
                for h in child:
                    if (t - h) & guards == guards:
                        break
                else:
                    child.append(p)
            stack.append((child, i + 1))
    return pivots


# Fields carry at least 5 value bits, so every ideal whose lcm box has degree
# below 32 gets one layout per ring size and the tables composed from such
# ideals (neighbouring powers, the presented ideal's quot) never repack.  With
# up to 4 variables a key, its degree field included, still fits one 30-bit
# CPython digit.
_LAYOUT_FLOOR = 31


class _Record(NamedTuple):
    """What `_quotient_betti` keeps of S/J for the tables that compose it."""

    layout: _Layout  # `_layout(r, max(D, _LAYOUT_FLOOR))`, D the degree of the lcm box
    packed: tuple  # the generators in layout, in key order
    support: dict  # packed alpha -> (|alpha|, mask of the i, ((i, beta_{i,alpha}), ...))
    graded: dict  # (i, j) -> beta_{i,j}(S/J), the sum over the support
    lcm: tuple  # the lcm exponents


@lru_cache(maxsize=64)
def _quotient_betti(ideal: MonomialIdeal) -> _Record:
    """The multigraded Betti numbers of S/ideal, with what a table needs to compose them.

    support maps each multidegree alpha with Tor(S/ideal)_alpha != 0, packed
    in layout, to |alpha|, the bitmask of the i with beta_{i,alpha} != 0 and
    those (i, beta_{i,alpha}).  alpha and |alpha| are read off the keys of
    the ideal's Mayer–Vietoris tree: the key less its degree field, and that
    field.  The pivot counts are the Betti numbers where no two of their
    positions are adjacent; elsewhere the block is ranked, reduced at one
    vertex, as in the module docstring.  The unit ideal has no support and
    gets the narrowest layout, `_layout(r, 0)`, before any packing.
    """
    lcm = ideal.lcm_exponents()
    if ideal.is_unit():
        return _Record(_layout(ideal.ring.nvars, 0), (), {}, {}, lcm)
    layout = _layout(ideal.ring.nvars, max(sum(lcm), _LAYOUT_FLOOR))
    guards, ones, above, exps = layout.guards, layout.ones, layout.above, layout.exps
    roots = _keys(ideal._exps, layout)
    packed = tuple(g & exps for g in roots)
    support, graded = {0: (0, 1, ((0, 1),))}, {(0, 0): 1}
    for key, counts in _pivots(roots, layout).items():
        p, j = key & exps, key >> above
        if len(counts) == 1 or not any(i + 1 in counts for i in counts):
            betti = tuple(counts.items())  # the lemma: the counts are the Betti numbers
        else:
            # The facets as in the module docstring; with g = 0 the same gives supp(alpha).
            q = p | guards
            facets = [(d - ones) & guards for d in [q - g for g in packed] if d & guards == guards]
            # alpha is no generator, so no facet is empty and K^alpha has a
            # vertex: take the last variable's, the lowest guard bit of them all
            v = min([T & -T for T in facets])
            simplices = _simplices((q - ones) & guards)
            kept = dropped = 0
            for T in facets:
                if T & v:
                    dropped |= simplices[T ^ v]
                else:
                    kept |= simplices[T]
            faces = kept & ~dropped
            betti = tuple((i + 1, b) for i, b in _block_betti(faces)) if faces else ()
            if not betti:
                continue
        mask = 0
        for i, b in betti:
            graded[i, j] = graded.get((i, j), 0) + b
            mask |= 1 << i
        support[p] = (j, mask, betti)
    return _Record(layout, packed, support, graded, lcm)


def _repack(points, layout: _Layout, other: _Layout) -> list:
    """The packed points moved from layout into `other`, a layout at least as wide."""
    pairs = tuple(zip(layout.shifts, other.shifts))
    field = layout.field
    return [sum([((p >> s) & field) << t for s, t in pairs]) for p in points]


def _compose(a: _Record, b: _Record) -> dict:
    """The nonzero {(i, j): beta_{i,j}(A/B)} from the records of S/A and S/B, B ⊆ A.

    Off the points where Tor(S/A) and Tor(S/B) share a degree the table is
    graded(S/B) plus graded(S/A) one degree down; at those points both are
    taken back and the relative block, from A's generators outside B, added.
    """
    entries = dict(b.graded)
    for (i, j), v in a.graded.items():
        entries[i - 1, j] = entries.get((i - 1, j), 0) + v
    # walk the narrower record's support (the smaller on a tie, A's on a full
    # tie), look its points up in the other's, and rank in the other's layout
    swap = (a.layout.bits, len(a.support)) > (b.layout.bits, len(b.support))
    walk, other = (b, a) if swap else (a, b)
    if walk.support:  # empty only when A = S
        wide = other.layout
        points = walk.support if walk.layout.bits == wide.bits else _repack(walk.support, walk.layout, wide)
        a_packed = a.packed if a.layout.bits == wide.bits else _repack(a.packed, a.layout, wide)
        b_packed = b.packed if b.layout.bits == wide.bits else _repack(b.packed, b.layout, wide)
        # B ⊆ A and both generating sets are minimal, so a generator of A lies
        # in B exactly when it is one of B's
        in_b = set(b_packed)
        outside = [g for g in a_packed if g not in in_b]
        guards, ones, get, down = wide.guards, wide.ones, other.support.get, int(not swap)
        for p, (j, mask, betti) in zip(points, walk.support.values()):
            hit = get(p)
            if hit is None or not hit[1] & mask:
                continue
            for i, v in betti:
                entries[i - down, j] -= v
            for i, v in hit[2]:
                entries[i + down - 1, j] -= v
            # the relative block (K^alpha(A), K^alpha(B)), the faces F with
            # x^(alpha - F) in A and not in B, from the facets
            q = p | guards
            facets = [(d - ones) & guards for d in [q - g for g in outside] if d & guards == guards]
            if not facets:
                continue
            simplices = _simplices((q - ones) & guards)
            faces = 0
            for T in facets:
                faces |= simplices[T]
            for g in b_packed:
                d = q - g
                if d & guards == guards:
                    faces &= ~simplices[(d - ones) & guards]
                    if not faces:
                        break
            else:
                for i, v in _block_betti(faces):
                    entries[i, j] = entries.get((i, j), 0) + v
    if min(entries.values(), default=0) < 0:
        raise RuntimeError(f"negative Betti number in the composed table {entries}")
    return {key: v for key, v in entries.items() if v}


def _compute_betti_table(module: Subquotient) -> BettiTable:
    a, b = _quotient_betti(module.numerator), _quotient_betti(module.denominator)
    search_bound = max(sum(map(max, a.lcm, b.lcm)), 1) + module.ring.nvars
    return BettiTable(_compose(a, b), search_bound)


def _canonical_key(module: Subquotient) -> str:
    """SHA-256 of the format tag, the ring and both generating sets, as 64 hex digits."""
    ring = module.ring
    text = "{}\nring {}\nnum {}\nden {}\n".format(
        CACHE_FORMAT,
        " ".join(ring.variables),
        " ".join(str(g) for g in module.numerator.gens) or "0",
        " ".join(str(g) for g in module.denominator.gens) or "0",
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# Absolute path -> (stat signature, records) of the file as this process last
# parsed or wrote it.  The signature of a missing file is None.
_views = {}

# Inside deferred_cache_writes: absolute path -> {key: record} not yet written.
_pending = ContextVar("regpow_betti_cache_pending", default=None)


def _signature(path: str):
    try:
        st = os.stat(path)
    except OSError:
        return None
    return (st.st_ino, st.st_size, st.st_mtime_ns)


def _cache_records(path: str) -> dict:
    """The file's records, parsed again only when its stat signature has changed.

    {} when the file is missing, unreadable or not a JSON object.  Callers
    must not mutate the result: it is the view the next lookup reads.
    """
    sig = _signature(path)
    view = _views.get(path)
    if view is not None and view[0] == sig:
        return view[1]
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        data = None
    records = data if isinstance(data, dict) else {}
    _views[path] = (sig, records)
    return records


def _cache_read(path: str, key: str):
    pending = _pending.get()
    record = pending.get(path, {}).get(key) if pending else None
    if record is None:
        record = _cache_records(path).get(key)
    if record is None:
        return None
    try:
        entries = {(int(i), int(j)): int(b) for i, j, b in record["entries"]}
        return BettiTable(entries, int(record["search_bound"]))
    except (LookupError, TypeError, ValueError):
        return None


def _cache_save(path: str, new: dict):
    """Merge records into the file; the new file replaces the old one whole, so an interrupted write loses nothing."""
    records = {**_cache_records(path), **new}
    try:
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(path),
            prefix=os.path.basename(path) + ".",
            suffix=".tmp",
        )
    except OSError:
        return
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(records, sort_keys=True))
        # A rename keeps inode, size and mtime, so this is the signature of the replaced file.
        sig = _signature(tmp)
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        return
    _views[path] = (sig, records)


def _cache_write(path: str, key: str, table: BettiTable):
    record = {
        "search_bound": table.search_bound,
        "entries": sorted([i, j, b] for (i, j), b in table.entries.items()),
    }
    pending = _pending.get()
    if pending is None:
        _cache_save(path, {key: record})
    else:
        pending.setdefault(path, {})[key] = record


@contextmanager
def deferred_cache_writes():
    """Collect the disk-cache records computed in the block and write each cache file once on leaving it.

    The write runs in a `finally`, so records computed before an exception
    are kept.  Lookups in the block see the records not yet written.  The
    state lives in a context variable, so other threads and contexts keep
    writing through at once.
    """
    pending = {}
    token = _pending.set(pending)
    try:
        yield
    finally:
        _pending.reset(token)
        for path, records in pending.items():
            _cache_save(path, records)


@lru_cache(maxsize=1024)
def _betti_table_memo(module: Subquotient) -> BettiTable:
    return _compute_betti_table(module)


def betti_table(module: Subquotient) -> BettiTable:
    """Complete Betti table of the module; the disk cache (`REGPOW_CACHE`) is a pure accelerator."""
    cache_path = os.environ.get(CACHE_ENV)
    if cache_path:
        path = os.path.abspath(cache_path)
        key = _canonical_key(module)
        cached = _cache_read(path, key)
        if cached is not None:
            return cached
        table = _betti_table_memo(module)
        _cache_write(path, key, table)
        return table
    return _betti_table_memo(module)


def betti(module: Subquotient, i: int, j: int) -> int:
    if i < 0 or i > module.ring.nvars:
        raise ValueError("homological index out of range")
    return betti_table(module).betti(i, j)


def regularity(module: Subquotient):
    """Castelnuovo-Mumford regularity, max(j - i) over the Betti table; NEG_INF for the zero module's empty table."""
    return betti_table(module).regularity()
