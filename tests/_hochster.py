"""Engine-free regularity of monomial subquotients, by Hochster's formula.

A test-only oracle on plain exponent tuples: it imports nothing from regpow,
so agreeing with the engine is evidence, not a tautology.

For monomial ideals D ⊆ N in S = ℚ[x_1..x_m] and b in ℕ^m, the upper Koszul
simplicial complex is K^b(N) = {F ⊆ supp b : x^(b - e_F) ∈ N}.  The Koszul
complex of N/D in multidegree b is the relative chain complex of the pair
(K^b(N), K^b(D)), a face F of size i spanning x^(b - e_F) ⊗ e_F, so

    beta_{i,b}(N/D) = dim H_{i-1}(K^b(N), K^b(D); ℚ).

With N = S and b ≠ 0 this is dim H̃_{i-2}(K^b(D)) = beta_{i-1,b}(D), Hochster's
formula (Miller–Sturmfels, Combinatorial Commutative Algebra, Thm 1.34).
Nonzero Betti numbers sit only at points of the lcm lattice of the two
generating sets (a mapping cone of Taylor resolutions resolves N/D), so
reg N/D = max |b| - i over those points.  `betti_numbers_over_box` makes no
use of that support: it visits every point of the componentwise-lcm box, the
engine's search before it enumerated lattices, and so checks any narrower
enumeration of multidegrees.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product


def _divides(a: tuple, b: tuple) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _lcm(a: tuple, b: tuple) -> tuple:
    return tuple(max(x, y) for x, y in zip(a, b))


def minimalize(gens) -> tuple:
    """The minimal generators of the ideal generated by ``gens``, sorted."""
    gens = set(gens)
    return tuple(sorted(g for g in gens if not any(h != g and _divides(h, g) for h in gens)))


def ideal_sum(a, b) -> tuple:
    return minimalize(tuple(a) + tuple(b))


def ideal_power(gens, n: int) -> tuple:
    """Minimal generators of the n-th power, n >= 1."""
    power = tuple(gens)
    for _ in range(n - 1):
        power = minimalize(tuple(x + y for x, y in zip(g, h)) for g in power for h in gens)
    return minimalize(power)


def _contains(gens, a: tuple) -> bool:
    return any(_divides(g, a) for g in gens)


def lcm_lattice(gens) -> set:
    """Every lcm of a nonempty subset of ``gens``."""
    lattice = set(gens)
    frontier = set(gens)
    while frontier:
        frontier = {_lcm(a, g) for a in frontier for g in gens} - lattice
        lattice |= frontier
    return lattice


def _rank(rows: list) -> int:
    """Rank over ℚ by Gaussian elimination on Fraction entries."""
    rows = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] / rows[rank][col]
            if factor:
                rows[r] = [v - factor * p for v, p in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _relative_homology(b: tuple, numerator, denominator) -> dict:
    """{i: beta_{i,b}} for the nonzero Betti numbers of N/D at multidegree b."""
    support = [j for j, e in enumerate(b) if e > 0]

    def relative_face(face) -> bool:
        a = tuple(e - (j in face) for j, e in enumerate(b))
        return _contains(numerator, a) and not _contains(denominator, a)

    # faces[i] lists the relative faces of size i, i.e. the basis of Koszul degree i
    faces = [
        [f for f in combinations(support, i) if relative_face(f)]
        for i in range(len(support) + 1)
    ]
    ranks = [0] * (len(faces) + 1)  # ranks[i] = rank of the boundary out of size i
    for i in range(1, len(faces)):
        index = {f: k for k, f in enumerate(faces[i - 1])}
        rows = []
        for f in faces[i]:
            row = [0] * len(faces[i - 1])
            for k in range(len(f)):
                sub = f[:k] + f[k + 1:]
                if sub in index:  # faces of K^b(D) are zero in the quotient
                    row[index[sub]] = (-1) ** k
            rows.append(row)
        ranks[i] = _rank(rows)
    betti = {}
    for i, basis in enumerate(faces):
        dim = len(basis) - ranks[i] - ranks[i + 1]
        if dim:
            betti[i] = dim
    return betti


def betti_numbers(numerator, denominator) -> dict:
    """{(i, b): beta_{i,b}(N/D)} for monomial ideals D ⊆ N given by exponent tuples."""
    numerator, denominator = minimalize(numerator), minimalize(denominator)
    table = {}
    for b in lcm_lattice(numerator + denominator):
        for i, dim in _relative_homology(b, numerator, denominator).items():
            table[i, b] = dim
    return table


def betti_numbers_over_box(numerator, denominator) -> dict:
    """{(i, b): beta_{i,b}(N/D)} as in `betti_numbers`, visiting every b in the lcm box."""
    numerator, denominator = minimalize(numerator), minimalize(denominator)
    box = [max(column) for column in zip(*numerator, *denominator)]
    table = {}
    for b in product(*(range(e + 1) for e in box)):
        for i, dim in _relative_homology(b, numerator, denominator).items():
            table[i, b] = dim
    return table


def reg_subquotient(numerator, denominator) -> int:
    """reg N/D, for N/D nonzero."""
    return max(sum(b) - i for i, b in betti_numbers(numerator, denominator))


def reg_quotient_ring(gens) -> int:
    """reg S/J for a proper monomial ideal J = (gens)."""
    nvars = len(next(iter(gens)))
    return reg_subquotient([(0,) * nvars], gens)
