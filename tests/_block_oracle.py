"""The engine's former Betti block path, kept as a test oracle for the facet path.

At each point alpha of L(A) ∪ L(B) it tests every squarefree x^F with
x^F | x^alpha for x^(alpha - F) ∈ A and x^(alpha - F) ∉ B with the packed
divisibility kernel, builds each block's boundary matrices on sorted tuples of
variables and ranks them by rational Gaussian elimination (`_rank_dense`, the
reference of the engine's Bareiss rank).
The lcm lattice comes from a frontier search.  Tor(S/J) lives on L(J) ∪ {0},
where the Taylor resolution of S/J lives (Gasharov–Peeva–Welker, "The
lcm-lattice in monomial resolutions", Math. Res. Lett. 6, 1999), and by the
long exact Tor sequence Tor(A/B) lives on L(A) ∪ L(B): at 0 it vanishes
unless A = S, whose lattice is {0}.  So the oracle visits every point where
a Betti number can be nonzero.

`pivots` is the engine's former Mayer–Vietoris tree on exponent tuples,
kept as the oracle of the packed tree.  `tor_by_multidegree` is the engine's
former composition of a table point by point, kept as the oracle of the
composition from graded sums.
"""
from __future__ import annotations

import itertools
from fractions import Fraction

from regpow.betti import _block_betti, _quotient_betti, _repack, _simplices
from regpow.monomials import _divides_any, _layout, _minimal, _pack


def lcm_closure_by_frontier(gens) -> set:
    """Every lcm of a nonempty subset of `gens`, grown from the generators by frontier."""
    closure = set(gens)
    frontier = list(closure)
    while frontier:
        fresh = []
        for a in frontier:
            for g in gens:
                point = tuple(map(max, a, g))
                if point not in closure:
                    closure.add(point)
                    fresh.append(point)
        frontier = fresh
    return closure


def _rank_dense(rows) -> int:
    """Exact rank by Gaussian elimination over the rationals; deterministic pivoting."""
    mat = [[Fraction(x) for x in row] for row in rows]
    if not mat or not mat[0]:
        return 0
    nrows, ncols = len(mat), len(mat[0])
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, nrows):
            if mat[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        prow = mat[rank]
        inv = 1 / prow[col]
        for r in range(rank + 1, nrows):
            factor = mat[r][col]
            if factor != 0:
                factor *= inv
                row = mat[r]
                for c in range(col, ncols):
                    row[c] -= factor * prow[c]
        rank += 1
        if rank == nrows:
            break
    return rank


def _by_degree(e) -> tuple:
    return sum(e), e


def pivots(exps) -> dict:
    """alpha -> {d: number of pivots at alpha in dimension d} over the Mayer–Vietoris tree of exps.

    A node holds its generators sorted by degree, ties in tuple order; the
    child of its j-th generator m (j > 0) is the minimal lcm(g, m) of the
    generators g before it.
    """
    out = {}
    stack = [(sorted(exps, key=_by_degree), 0)]
    while stack:
        gens, d = stack.pop()
        for j, m in enumerate(gens):
            counts = out.setdefault(m, {})
            counts[d] = counts.get(d, 0) + 1
            if j:
                child = _minimal([tuple(map(max, g, m)) for g in gens[:j]])
                stack.append((sorted(child, key=_by_degree), d + 1))
    return out


def block_levels(alpha, a_exps, b_exps) -> dict:
    """{i: faces of size i} of the block at alpha, each face a sorted tuple of variables."""
    nv = len(alpha)
    top = max(itertools.chain(alpha, *a_exps, *b_exps, (1,)))
    layout = _layout(nv, top)
    shifts, guards = layout.shifts, layout.guards
    a_packed = [_pack(e, shifts) for e in a_exps]
    b_packed = [_pack(e, shifts) for e in b_exps]
    point = _pack(alpha, shifts)
    levels = {}
    # x^F divides x^alpha exactly when F lies in supp(alpha)
    supp = [v for v in range(nv) if alpha[v]]
    units = [1 << shifts[v] for v in supp]
    for i in range(nv + 1):
        for F, x_F in zip(itertools.combinations(supp, i), itertools.combinations(units, i)):
            e = point - sum(x_F)
            if _divides_any(b_packed, e, guards) or not _divides_any(a_packed, e, guards):
                continue
            levels.setdefault(i, []).append(F)
    return levels


def block_betti(levels: dict, nv: int, rank=_rank_dense) -> dict:
    """Homology dimensions {i: beta_i} of one block given by its faces by size, with the given exact rank."""
    ranks = {}
    for i in range(1, nv + 1):
        domain = levels.get(i)
        codomain = levels.get(i - 1)
        if not domain or not codomain:
            ranks[i] = 0
            continue
        index = {F: r for r, F in enumerate(codomain)}
        rows = [[0] * len(domain) for _ in codomain]
        for c, F in enumerate(domain):
            for k in range(len(F)):
                G = F[:k] + F[k + 1:]
                if G in index:
                    rows[index[G]][c] = (-1) ** k
        ranks[i] = rank(rows)
    ranks[nv + 1] = 0
    out = {}
    for i in range(nv + 1):
        dim = len(levels.get(i, ()))
        if dim:
            b = dim - ranks.get(i, 0) - ranks[i + 1]
            if b:
                out[i] = b
    return out


def betti_entries(a_exps, b_exps) -> dict:
    """{(i, j): beta_{i,j}(A/B)} for minimal generating tuples of ideals B ⊆ A."""
    entries = {}
    if not a_exps:
        return entries
    nv = len(a_exps[0])
    for alpha in sorted(lcm_closure_by_frontier(a_exps) | lcm_closure_by_frontier(b_exps)):
        levels = block_levels(alpha, a_exps, b_exps)
        if not levels:
            continue
        j = sum(alpha)
        for i, b in block_betti(levels, nv).items():
            entries[(i, j)] = entries.get((i, j), 0) + b
    return entries


def tor_by_multidegree(A, B):
    """Yield (alpha, |alpha|, ((i, beta_i), ...)) for each multidegree alpha with Tor(A/B)_alpha != 0.

    alpha is packed in the wider of the two ideals' layouts; the narrower
    ideal is repacked into it as far as it is needed.  Both supports are
    walked whole.  Where Tor(S/A)_alpha and Tor(S/B)_alpha share no
    homological degree, a point of both is yielded twice, once with the
    pairs of S/B and once with those of S/A one degree down, and the values
    of one i add; where they share one, the relative block of (A, B) is
    built from every generator of A and of B that divides x^alpha.
    """
    a, b = _quotient_betti(A), _quotient_betti(B)
    a_layout, a_packed, a_support = a.layout, a.packed, a.support
    b_layout, b_packed, b_support = b.layout, b.packed, b.support
    layout = a_layout if a_layout.bits >= b_layout.bits else b_layout
    if a_layout.bits < layout.bits and a_support:
        a_support = dict(zip(_repack(a_support, a_layout, layout), a_support.values()))
    elif b_layout.bits < layout.bits and b_support:
        b_support = dict(zip(_repack(b_support, b_layout, layout), b_support.values()))
    shared = {}
    for p, (j, _, betti) in a_support.items():
        if p in b_support and not {i for i, _ in betti}.isdisjoint([i for i, _ in b_support[p][2]]):
            shared[p] = j
        else:
            yield p, j, tuple([(i - 1, b) for i, b in betti])
    for p, (j, _, betti) in b_support.items():
        if p not in shared:
            yield p, j, betti
    if a_layout.bits < layout.bits:
        a_packed = _repack(a_packed, a_layout, layout)
    elif b_layout.bits < layout.bits:
        b_packed = _repack(b_packed, b_layout, layout)
    guards, ones = layout.guards, layout.ones
    for p, j in shared.items():
        q = p | guards
        simplices = _simplices((q - ones) & guards)
        faces = 0
        for g in a_packed:
            d = q - g
            if d & guards == guards:
                faces |= simplices[(d - ones) & guards]
        for g in b_packed:
            d = q - g
            if d & guards == guards:
                faces &= ~simplices[(d - ones) & guards]
        betti = _block_betti(faces) if faces else ()
        if betti:
            yield p, j, betti


def composed_entries(A, B) -> dict:
    """{(i, j): beta_{i,j}(A/B)}: the pairs of `tor_by_multidegree` summed per bidegree."""
    entries = {}
    for _, j, betti in tor_by_multidegree(A, B):
        for i, b in betti:
            entries[i, j] = entries.get((i, j), 0) + b
    return entries
