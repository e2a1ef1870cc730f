"""The engine's former Betti block path, kept as a test oracle for the facet path.

At each point alpha of L(A) ∪ L(B) it tests every squarefree x^F with
x^F | x^alpha for x^(alpha - F) ∈ A and x^(alpha - F) ∉ B with the packed
divisibility kernel, builds each block's boundary matrices on sorted tuples of
variables and ranks them by rational Gaussian elimination (`_rank_dense`).
The lcm lattice comes from a frontier search.  Tor(S/J) lives on L(J) ∪ {0},
where the Taylor resolution of S/J lives (Gasharov–Peeva–Welker, "The
lcm-lattice in monomial resolutions", Math. Res. Lett. 6, 1999), and by the
long exact Tor sequence Tor(A/B) lives on L(A) ∪ L(B): at 0 it vanishes
unless A = S, whose lattice is {0}.  So the oracle visits every point where
a Betti number can be nonzero.

`pivots` is the engine's former Mayer–Vietoris tree on exponent tuples,
kept as the oracle of the packed tree.
"""
from __future__ import annotations

import itertools

from regpow.betti import _rank_dense
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
