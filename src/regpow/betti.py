"""Graded Betti numbers of monomial subquotients via Koszul homology, exact over the rationals.

The production path decomposes the Koszul complex K(x_1..x_r) ⊗ A/B by
multidegree: each multidegree block is a complex of dimension at most
2^r.  A block can carry homology only at a point of L(A) ∪ L(B), the lcm
lattices of the two generating sets (every lcm of a nonempty subset of
generators).  The Taylor resolutions of A and B live on those lattices
(Gasharov–Peeva–Welker, "The lcm-lattice in monomial resolutions", Math.
Res. Lett. 6, 1999), and the long exact Tor sequence of 0 → B → A → A/B → 0
puts Tor_i(A/B)_b between Tor_i(A)_b and Tor_{i-1}(B)_b.  At each lattice
point the block is the relative upper Koszul simplicial complex of
(A, B) (Miller–Sturmfels, Combinatorial Commutative Algebra, Thm 1.34).

Every lattice point lies in the componentwise-lcm box of the generators,
so the box degree plus r still bounds every degree j with a nonzero Betti
number.  `search_bound` keeps that box value rather than the lattice's top
degree: `regpow betti --format json` prints it and the disk cache stores
it, and it depends only on the generators' lcms, not on which lattice
points carry homology.  A full bidegree-matrix path (`koszul_piece`,
`betti_bidegree`) is kept as an independent cross-check.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import os
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .modules import NEG_INF, Subquotient, basis
from .monomials import _divides_any, _layout, _lcm_closure, _pack

CACHE_ENV = "REGPOW_CACHE"


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

    def max_degree_at(self, i: int):
        degs = [j for (k, j) in self.entries if k == i]
        return max(degs) if degs else NEG_INF


@dataclass(frozen=True)
class KoszulPiece:
    """One bidegree (i, j) of K ⊗ M: its basis and the boundary matrix to (i-1, j).

    Basis elements are pairs (F, m) with F a sorted tuple of variable
    indices, |F| = i, and m a degree j-i monomial of the module.  The
    boundary is a sparse column map: columns[c] lists (row, coefficient)
    pairs against the basis of the (i-1, j) piece.
    """

    i: int
    j: int
    domain_basis: tuple
    codomain_basis: tuple
    columns: tuple


def _piece_basis(module: Subquotient, i: int, j: int) -> tuple:
    nv = module.ring.nvars
    if i < 0 or i > nv:
        return ()
    mons = basis(module, j - i)
    return tuple(
        (F, m) for F in itertools.combinations(range(nv), i) for m in mons
    )


def koszul_piece(module: Subquotient, i: int, j: int) -> KoszulPiece:
    domain = _piece_basis(module, i, j)
    codomain = _piece_basis(module, i - 1, j)
    index = {key: row for row, key in enumerate(codomain)}
    A, B = module.numerator, module.denominator
    columns = []
    for F, m in domain:
        col = []
        for k, v in enumerate(F):
            target = m.times_var(v)
            if B.contains(target):
                continue
            G = F[:k] + F[k + 1 :]
            col.append((index[(G, target)], (-1) ** k))
        columns.append(tuple(col))
    return KoszulPiece(i, j, domain, codomain, tuple(columns))


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


def rank_of_piece(piece: KoszulPiece) -> int:
    """Rank of the sparse boundary matrix of a Koszul piece."""
    nrows = len(piece.codomain_basis)
    rows = [[0] * len(piece.domain_basis) for _ in range(nrows)]
    for c, col in enumerate(piece.columns):
        for r, coeff in col:
            rows[r][c] = coeff
    return _rank_dense(rows)


def betti_bidegree(module: Subquotient, i: int, j: int) -> int:
    """beta_{i,j} by rank-nullity on full bidegree matrices (cross-check path)."""
    here = koszul_piece(module, i, j)
    above = koszul_piece(module, i + 1, j)
    dim = len(here.domain_basis)
    return dim - rank_of_piece(here) - rank_of_piece(above)


def _block_betti(levels: dict, nv: int) -> dict:
    """Homology dimensions of one multidegree block of the Koszul complex.

    levels maps homological index i to the sorted tuple of variable
    subsets F present in the block.
    """
    ranks = {}
    for i in range(1, nv + 1):
        domain = levels.get(i)
        codomain = levels.get(i - 1)
        if not domain or not codomain:
            ranks[i] = 0
            continue
        index = {F: r for r, F in enumerate(codomain)}
        codomain_set = set(codomain)
        rows = [[0] * len(domain) for _ in codomain]
        for c, F in enumerate(domain):
            for k in range(len(F)):
                G = F[:k] + F[k + 1 :]
                if G in codomain_set:
                    rows[index[G]][c] = (-1) ** k
        ranks[i] = _rank_dense(rows)
    ranks[nv + 1] = 0
    out = {}
    for i in range(nv + 1):
        dim = len(levels.get(i, ()))
        if dim:
            b = dim - ranks.get(i, 0) - ranks[i + 1]
            if b:
                out[i] = b
    return out


def _compute_betti_table(module: Subquotient) -> BettiTable:
    ring = module.ring
    nv = ring.nvars
    A, B = module.numerator, module.denominator
    a_exps = [g.exponents for g in A.gens]
    b_exps = [g.exponents for g in B.gens]
    box = tuple(
        max(a, b)
        for a, b in zip(A.lcm_exponents(), B.lcm_exponents())
    )
    union_lcm_degree = sum(box)
    search_bound = max(union_lcm_degree, 1) + nv
    entries = {}
    if module.is_zero():
        return BettiTable(entries, search_bound)
    # Every coordinate of a lattice point, a generator or a squarefree x^F is at most max(box, 1).
    shifts, guards = _layout(nv, max(max(box), 1))
    a_packed = [_pack(e, shifts) for e in a_exps]
    b_packed = [_pack(e, shifts) for e in b_exps]
    subsets = [
        (F, _pack([int(v in F) for v in range(nv)], shifts))
        for i in range(nv + 1)
        for F in itertools.combinations(range(nv), i)
    ]
    for alpha in sorted(_lcm_closure(a_exps) | _lcm_closure(b_exps)):
        point = _pack(alpha, shifts)
        levels = {}
        for F, x_F in subsets:
            # alpha - F is a multidegree of the block iff x^F | x^alpha, and it
            # carries a basis element iff x^(alpha - F) lies in A and not in B.
            if not _divides_any((x_F,), point, guards):
                continue
            e = point - x_F
            if _divides_any(b_packed, e, guards) or not _divides_any(a_packed, e, guards):
                continue
            levels.setdefault(len(F), []).append(F)
        if not levels:
            continue
        levels = {i: tuple(v) for i, v in levels.items()}
        j = sum(alpha)
        for i, b in _block_betti(levels, nv).items():
            entries[(i, j)] = entries.get((i, j), 0) + b
    return BettiTable(entries, search_bound)


def _canonical_key(module: Subquotient) -> str:
    ring = module.ring
    text = "ring {}\nnum {}\nden {}\n".format(
        " ".join(ring.variables),
        " ".join(str(g) for g in module.numerator.gens) or "0",
        " ".join(str(g) for g in module.denominator.gens) or "0",
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _cache_load(path: str) -> dict:
    """The cache file's records; {} when it is missing, unreadable or not a JSON object."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        return {}
    return data if isinstance(data, dict) else {}


def _cache_read(path: str, key: str):
    record = _cache_load(path).get(key)
    if record is None:
        return None
    try:
        entries = {(int(i), int(j)): int(b) for i, j, b in record["entries"]}
        return BettiTable(entries, int(record["search_bound"]))
    except (LookupError, TypeError, ValueError):
        return None


def _cache_write(path: str, key: str, table: BettiTable):
    """Add one record; the new file replaces the old one whole, so an interrupted write loses nothing."""
    data = _cache_load(path)
    data[key] = {
        "search_bound": table.search_bound,
        "entries": sorted([i, j, b] for (i, j), b in table.entries.items()),
    }
    try:
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(os.path.abspath(path)),
            prefix=os.path.basename(path) + ".",
            suffix=".tmp",
        )
    except OSError:
        return
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(data, fh, sort_keys=True)
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass


@lru_cache(maxsize=None)
def _betti_table_memo(module: Subquotient) -> BettiTable:
    return _compute_betti_table(module)


def betti_table(module: Subquotient, cache_path: str = None) -> BettiTable:
    """Complete Betti table of the module; the disk cache is a pure accelerator."""
    if cache_path is None:
        cache_path = os.environ.get(CACHE_ENV)
    if cache_path:
        key = _canonical_key(module)
        cached = _cache_read(cache_path, key)
        if cached is not None:
            return cached
        table = _betti_table_memo(module)
        _cache_write(cache_path, key, table)
        return table
    return _betti_table_memo(module)


def betti(module: Subquotient, i: int, j: int) -> int:
    if i < 0 or i > module.ring.nvars:
        raise ValueError("homological index out of range")
    return betti_table(module).betti(i, j)


def regularity(module: Subquotient):
    """Castelnuovo-Mumford regularity, max(j - i) over the Betti table; NEG_INF for the zero module."""
    if module.is_zero():
        return NEG_INF
    return betti_table(module).regularity()
