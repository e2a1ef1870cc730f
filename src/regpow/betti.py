"""Graded Betti numbers of monomial subquotients via Koszul homology, exact over the integers.

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

The block at alpha comes from facets, one pass over the generators: a
generator g of A with g | x^alpha has the facet T_g = {j : g_j < alpha_j},
and the faces of K^alpha(A) are the subsets of some T_g (likewise for B).
A face is a bitmask of variables, and a complex is a face set, one int
with bit F set for each face F, so the block is K^alpha(A) & ~K^alpha(B).
Its boundary matrices have entries 0 and ±1 and are ranked exactly over
the integers by fraction-free (Bareiss) elimination.  Blocks repeat a lot
across lattice points and tables, so their homology is memoized on the
face set in a bounded LRU cache.

The lattices are built and read as packed ints, never as exponent tuples.
A table packs every exponent vector in one `_layout(r, top)`, top the
largest exponent of the lcm box: fields of w bits whose top bit, the
guard bit, is 0 (mask G).  In ((a | G) - g) no field borrows from the
next, and a field keeps its guard bit exactly when a_j >= g_j.  So with
sel = ((a | G) - g) & G and m = sel - (sel >> (w-1)), the value bits of
those fields,

    lcm(a, g) = (a & m) | (g & ~(m | G)),

a's field where a_j >= g_j and g's elsewhere.  `monomials._lcm_closure`
closes the generators under it, one generator at a time, and `_lattice`
memoizes each ideal's lattice per layout in a bounded cache.  The block
loop iterates the packed points directly: the same subtraction tells
which generators divide a point and gives their facets, and a point's
degree is unpacked only when its block is nonempty.

Every lattice point lies in the componentwise-lcm box of the generators,
so the box degree plus r still bounds every degree j with a nonzero Betti
number.  `search_bound` keeps that box value rather than the lattice's top
degree: `regpow betti --format json` prints it and the disk cache stores
it, and it depends only on the generators' lcms, not on which lattice
points carry homology.  A full bidegree-matrix path (`koszul_piece`,
`betti_bidegree`), ranked by rational Gaussian elimination, is kept as an
independent cross-check.

The disk cache (`REGPOW_CACHE`, or `cache_path=`) is a pure accelerator.
Its file is one JSON object mapping a key to {"search_bound", "entries"};
the key is the SHA-256 of a format tag (`CACHE_FORMAT`), the ring and
both generating sets, so records under another tag are misses.  A process
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
from fractions import Fraction
from functools import lru_cache

from .modules import NEG_INF, Subquotient, basis
from .monomials import MonomialIdeal, _layout, _lcm_closure, _pack

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


def _simplex(mask: int) -> int:
    """The face set of the full simplex on the vertex bitmask `mask`: bit S set for every S ⊆ mask."""
    faces = 1
    while mask:
        low = mask & -mask
        faces |= faces << low
        mask ^= low
    return faces


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
    across lattice points and tables, hence the memo on the face set.
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


@lru_cache(maxsize=64)
def _lattice(ideal: MonomialIdeal, top: int) -> frozenset:
    """L(ideal), the lcm lattice of the generators, packed in `_layout(nvars, top)`.

    top must be at least every generator exponent.  Neighbouring modules
    share ideals (I^n is the denominator of R/I^n and of I^(n-1)/I^n, and
    the numerator of I^n/I^(n+1)), and their tables share a layout, hence
    the memo.  Its key is the ideal with its ring and the layout's top, and
    it is bounded because a lattice can be large.
    """
    shifts, guards = _layout(ideal.ring.nvars, top)
    return frozenset(_lcm_closure([_pack(e, shifts) for e in ideal._exps], guards))


class _Simplices(dict):
    """Guard pattern of a facet -> face set of the simplex on it, filled on first lookup."""

    def __init__(self, field_guards):
        super().__init__()
        self.field_guards = field_guards

    def __missing__(self, pattern: int) -> int:
        mask = sum(1 << j for j, bit in enumerate(self.field_guards) if pattern & bit)
        faces = self[pattern] = _simplex(mask)
        return faces


def _compute_betti_table(module: Subquotient) -> BettiTable:
    ring = module.ring
    nv = ring.nvars
    A, B = module.numerator, module.denominator
    box = tuple(map(max, A.lcm_exponents(), B.lcm_exponents()))
    union_lcm_degree = sum(box)
    search_bound = max(union_lcm_degree, 1) + nv
    entries = {}
    if module.is_zero():
        return BettiTable(entries, search_bound)
    # Every coordinate of a lattice point or a generator is at most top.
    top = max(max(box), 1)
    shifts, guards = _layout(nv, top)
    value_bits = (1 << top.bit_length()) - 1
    ones = _pack((1,) * nv, shifts)
    a_packed = [_pack(e, shifts) for e in A._exps]
    b_packed = [_pack(e, shifts) for e in B._exps]
    simplices = _Simplices([1 << (s + top.bit_length()) for s in shifts])
    # The block at alpha is the relative complex (K^alpha(A), K^alpha(B)): the
    # faces F with x^(alpha - F) in A and not in B.  With q = x^alpha | guards,
    # a generator g divides x^alpha when q - g keeps every guard bit, and its
    # facet T_g = {j : g_j < alpha_j} is the guard pattern of (q - g) - ones:
    # a field keeps its guard bit exactly when alpha_j - g_j - 1 >= 0.
    for p in _lattice(A, top) | _lattice(B, top):
        q = p | guards
        faces = 0
        for g in a_packed:
            d = q - g
            if d & guards == guards:
                faces |= simplices[(d - ones) & guards]
        if not faces:
            continue
        for g in b_packed:
            d = q - g
            if d & guards == guards:
                faces &= ~simplices[(d - ones) & guards]
                if not faces:
                    break
        else:
            j = sum((p >> s) & value_bits for s in shifts)
            for i, b in _block_betti(faces):
                entries[(i, j)] = entries.get((i, j), 0) + b
    return BettiTable(entries, search_bound)


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


def betti_table(module: Subquotient, cache_path: str = None) -> BettiTable:
    """Complete Betti table of the module; the disk cache is a pure accelerator."""
    if cache_path is None:
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
    """Castelnuovo-Mumford regularity, max(j - i) over the Betti table; NEG_INF for the zero module."""
    if module.is_zero():
        return NEG_INF
    return betti_table(module).regularity()
