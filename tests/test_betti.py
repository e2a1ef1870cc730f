"""Betti numbers via Koszul homology: golden examples, the dual-route cross-check,
chain-complex sanity, short-exact-sequence bounds, and the disk cache."""
import hashlib
import importlib
import json
import os
import random

import pytest

from regpow import (
    NEG_INF,
    FamilySpec,
    Monomial,
    PresentedIdeal,
    Subquotient,
    betti,
    betti_bidegree,
    betti_table,
    build,
    defect_report,
    hilbert,
    ideal,
    is_artinian,
    minimalize,
    quotient_ring,
    regularity,
    top_degree,
    unit_ideal,
    zero_ideal,
)
from regpow.betti import (
    CACHE_ENV,
    _betti_table_memo,
    _block_betti,
    _boundary,
    _canonical_key,
    _compute_betti_table,
    _koszul_rows,
    _levels,
    _pivots,
    _quotient_betti,
    _rank_int,
    _repack,
    _Simplices,
    deferred_cache_writes,
)
from regpow.monomials import _keys, _layout, _pack

import _block_oracle
import _hochster
from _block_oracle import _rank_dense
from _corpus import corpus
from conftest import random_ideal, ring


def test_koszul_resolution_of_regular_sequence():
    r = ring("x", "y")
    table = betti_table(quotient_ring(r.maximal_ideal()))
    assert table.entries == {(0, 0): 1, (1, 1): 2, (2, 2): 1}


def test_square_of_maximal_ideal():
    r = ring("x", "y")
    M = quotient_ring(ideal(r, ["x^2", "x*y", "y^2"]))
    table = betti_table(M)
    assert table.entries == {(0, 0): 1, (1, 2): 3, (2, 3): 2}
    assert regularity(M) == top_degree(M) == 1


def test_zero_module_has_empty_table():
    """A = B gives an empty table, and `regularity` reads NEG_INF off it with no test of its own."""
    r = ring("x", "y")
    for A in (unit_ideal(r), zero_ideal(r), ideal(r, ["x"]), random_ideal(random.Random(29), r)):
        M = Subquotient(A, A)
        assert _compute_betti_table(M).entries == betti_table(M).entries == {}, A
        assert regularity(M) == top_degree(M) == NEG_INF, A


def test_regularity_of_complete_intersection():
    r = ring("x", "y")
    assert regularity(quotient_ring(ideal(r, ["x^3", "y^2"]))) == 3


def test_betti_rejects_out_of_range_index():
    r = ring("x", "y")
    M = quotient_ring(ideal(r, ["x"]))
    with pytest.raises(ValueError):
        betti(M, 3, 0)


def _random_subquotient(rnd, r):
    B = random_ideal(rnd, r)
    A = B + random_ideal(rnd, r)
    return Subquotient(A, B)


def test_boundary_composes_to_zero():
    rnd = random.Random(23)
    r = ring("x", "y", "z")
    for _ in range(8):
        M = _random_subquotient(rnd, r)
        for j in range(1, 6):
            for i in range(2, r.nvars + 1):
                upper, lower = _koszul_rows(M, i, j), _koszul_rows(M, i - 1, j)
                for row in upper:
                    assert len(row) == len(lower)
                    assert not any(sum(a * b for a, b in zip(row, col)) for col in zip(*lower))


def test_block_path_matches_bidegree_matrix_path():
    rnd = random.Random(29)
    r = ring("x", "y", "z")
    for _ in range(10):
        M = _random_subquotient(rnd, r)
        table = betti_table(M)
        top = M.numerator.lcm_exponents()
        bot = M.denominator.lcm_exponents()
        jmax = sum(max(a, b) for a, b in zip(top, bot))
        for i in range(r.nvars + 1):
            for j in range(jmax + 2):
                assert table.betti(i, j) == betti_bidegree(M, i, j), (i, j, M)


def test_euler_characteristic_per_degree():
    from math import comb

    rnd = random.Random(31)
    r = ring("x", "y", "z")
    for _ in range(10):
        M = _random_subquotient(rnd, r)
        table = betti_table(M)
        for j in range(table.search_bound):
            chain = sum(
                (-1) ** i * comb(r.nvars, i) * hilbert(M, j - i)
                for i in range(r.nvars + 1)
            )
            homology = sum(
                (-1) ** i * table.betti(i, j) for i in range(r.nvars + 1)
            )
            assert chain == homology


def test_bottom_row_counts_minimal_generators():
    rnd = random.Random(37)
    r = ring("x", "y", "z")
    for _ in range(12):
        M = _random_subquotient(rnd, r)
        table = betti_table(M)
        expected = {}
        for g in M.numerator.gens:
            if not M.denominator.contains(g):
                expected[g.degree] = expected.get(g.degree, 0) + 1
        got = {j: b for (i, j), b in table.entries.items() if i == 0}
        assert got == expected


def test_short_exact_sequence_regularity_bounds():
    rnd = random.Random(41)
    r = ring("x", "y", "z")
    for _ in range(12):
        C = random_ideal(rnd, r)
        B = C + random_ideal(rnd, r)
        A = B + random_ideal(rnd, r)
        # 0 -> B/C -> A/C -> A/B -> 0
        reg_n = regularity(Subquotient(B, C))
        reg_m = regularity(Subquotient(A, C))
        reg_e = regularity(Subquotient(A, B))
        assert reg_e <= max(reg_n - 1, reg_m)
        if reg_n != reg_m:
            assert reg_e == max(reg_n - 1, reg_m)
        assert reg_n <= max(reg_m, reg_e + 1)
        if reg_m != reg_e:
            assert reg_n == max(reg_m, reg_e + 1)


def _graded(betti_numbers: dict) -> dict:
    """Collapse {(i, b): beta} over multidegrees b to {(i, |b|): beta}."""
    out = {}
    for (i, b), value in betti_numbers.items():
        out[i, sum(b)] = out.get((i, sum(b)), 0) + value
    return out


def test_hochster_oracle_matches_engine_betti_tables():
    """The engine-free oracle behind acceptance criterion 1 agrees with betti_table."""
    r = ring("x", "y")
    # R = S/(x^2, xy) and I = yR: reg R = reg R/I = 1 = reg I, so the exact
    # sequence 0 -> I -> R -> R/I -> 0 alone cannot pin reg I at reg R/I + 1
    quot = ideal(r, ["x^2", "x*y"])
    lift = quot + ideal(r, ["y"])
    cases = [(unit_ideal(r), quot), (unit_ideal(r), lift), (lift, quot)]
    assert [regularity(Subquotient(a, b)) for a, b in cases] == [1, 1, 1]
    rnd = random.Random(47)
    r3 = ring("x", "y", "z")
    while len(cases) < 15:
        C = random_ideal(rnd, r3)
        B = C + random_ideal(rnd, r3)
        if B != C:
            cases.append((B, C))
    for B, C in cases:
        oracle = _hochster.betti_numbers(
            [g.exponents for g in B.gens], [g.exponents for g in C.gens]
        )
        assert _graded(oracle) == betti_table(Subquotient(B, C)).entries, (B, C)


def test_lattice_betti_tables_match_box_oracle():
    """betti_table composes S/A and S/B from their Mayer–Vietoris trees; the oracle visits the whole lcm box."""
    rnd = random.Random(53)
    seen = set()
    for nv in range(1, 5):
        r = ring(*"xyzw"[:nv])
        for k in range(12):
            B = zero_ideal(r) if k % 3 == 0 else random_ideal(rnd, r)
            if k % 3 == 2:
                B = B + ideal(r, [
                    Monomial(r, tuple(rnd.randint(1, 3) * (v == w) for w in range(nv)))
                    for v in range(nv)
                ])
            A = unit_ideal(r) if k % 4 == 0 else B + random_ideal(rnd, r)
            M = Subquotient(A, B)
            oracle = _hochster.betti_numbers_over_box(
                [g.exponents for g in A.gens], [g.exponents for g in B.gens]
            )
            assert _graded(oracle) == betti_table(M).entries, (A, B)
            if not M.is_zero():
                seen.add("artinian" if is_artinian(M) else "not artinian")
            if not B.gens:
                seen.add("zero denominator")
            if A == unit_ideal(r):
                seen.add("unit numerator")
    assert seen == {"artinian", "not artinian", "zero denominator", "unit numerator"}


def _simplex(mask: int) -> int:
    """The face set of the full simplex on the vertex bitmask `mask`: bit S set for every S ⊆ mask."""
    faces = 1
    while mask:
        low = mask & -mask
        faces |= faces << low
        mask ^= low
    return faces


def _is_cone(faces: list) -> bool:
    """Whether some vertex v lies in every facet, i.e. F ∪ {v} is a face for every face F."""
    faces = {frozenset(F) for F in faces}
    vertices = set().union(*faces)
    return any(all(F | {v} in faces for F in faces) for v in vertices)


def _tree_pivots(ideal) -> list:
    """The packed tree's (alpha, {d: count}) items of the ideal, in tree order, decoded to tuples.

    The roots are the generators' keys in the layout `_quotient_betti` picks.
    `_pivots` counts by resolution position i = d + 1.
    """
    layout = _quotient_betti(ideal).layout
    items = []
    for key, counts in _pivots(_keys(ideal._exps, layout), layout).items():
        alpha = layout.unpack(key)
        assert key >> layout.above == sum(alpha), (ideal, alpha)
        items.append((alpha, {i - 1: c for i, c in counts.items()}))
    return items


def _support(ideal) -> dict:
    """{alpha: (|alpha|, ((i, beta_{i,alpha}), ...))} where Tor(S/ideal) is nonzero, as the per-ideal memo holds it.

    The memo's mask of each point is checked against its pairs, and its
    graded Betti numbers and lcm exponents against the support and the ideal.
    """
    record = _quotient_betti(ideal)
    graded = {}
    for j, mask, betti in record.support.values():
        assert mask == sum(1 << i for i, _ in betti), ideal
        for i, b in betti:
            graded[i, j] = graded.get((i, j), 0) + b
    assert record.graded == graded and record.lcm == ideal.lcm_exponents(), ideal
    return {record.layout.unpack(p): (j, betti) for p, (j, _, betti) in record.support.items()}


def _oracle_support(ideal) -> dict:
    """{alpha: {i: beta_i}} of S/ideal from the block oracle at 0 and at every point of L(ideal)."""
    nv = ideal.ring.nvars
    unit = [(0,) * nv]
    out = {}
    for alpha in _block_oracle.lcm_closure_by_frontier(ideal._exps) | {(0,) * nv}:
        levels = _block_oracle.block_levels(alpha, unit, ideal._exps)
        betti = _block_oracle.block_betti(levels, nv, _rank_int) if levels else {}
        if betti:
            out[alpha] = betti
    return out


def test_tree_support_matches_block_oracle():
    """The Mayer–Vietoris tree finds every point of supp(S/J) with its Betti numbers.

    The oracle ranks the block of S/J at 0 and at every point of L(J), which
    holds the whole support (Gasharov–Peeva–Welker).
    """
    rnd = random.Random(79)
    ideals = []
    for _ in range(70):
        r = ring(*"xyzwuvt"[:rnd.randint(1, 7)])
        ideals.append(minimalize(r, [
            Monomial(r, tuple(rnd.randint(0, 5) for _ in range(r.nvars)))
            for _ in range(rnd.randint(1, 14))
        ]))
    # tops that fill a packed field (7, 15, 63) or open a wider one (8, 16, 64)
    for k, edge in enumerate((7, 8, 15, 16, 63, 64) * 2):
        r = ring(*"xyzw"[:1 + k % 4])
        ideals.append(random_ideal(rnd, r, max_gens=5, max_exp=edge)
                      + ideal(r, [Monomial(r, (edge,) + (0,) * (r.nvars - 1))]))
    for spec, top in ((FamilySpec("m2_reg"), 6), (FamilySpec("cycle", t=3), 2), (FamilySpec("cycle", t=4), 1)):
        presented = build(spec)
        ideals += [presented.module_of("quotient", n).denominator for n in range(1, top + 1)]
    r = ring("x", "y")
    ideals += [zero_ideal(r), unit_ideal(r)]
    edges, seen = set(), set()
    for J in ideals:
        support = _support(J)
        assert all(j == sum(alpha) for alpha, (j, _) in support.items()), J
        assert {alpha: dict(betti) for alpha, (_, betti) in support.items()} == _oracle_support(J), J
        edges.update({7, 8, 15, 16, 63, 64} & set(J.lcm_exponents()))
        # a ranked point, with pivots in two adjacent dimensions, whose complex
        # K^alpha(J) may be the whole simplex: then Tor(S/J)_alpha = 0
        for alpha, counts in _tree_pivots(J):
            if any(d + 1 in counts for d in counts):
                whole = any(all(g_k < a_k if a_k else not g_k for g_k, a_k in zip(g, alpha)) for g in J._exps)
                seen.add("ranked, a facet is all of supp(alpha)" if whole else "ranked, no facet is all of supp(alpha)")
                assert not (whole and alpha in support), (J, alpha)
    assert edges == {7, 8, 15, 16, 63, 64}
    assert seen == {"ranked, a facet is all of supp(alpha)", "ranked, no facet is all of supp(alpha)"}


def test_tree_pivot_cases():
    """Pivot counts are read off where no two of their dimensions are adjacent; elsewhere the block is ranked.

    J = (y^3, x^2z^2, x^2yz): x^2y^3z^2 = lcm(y^3, x^2z^2) is a pivot at
    dimension 1, and again at 2 below the node (x^2yz^2, x^2y^3z); the Taylor
    complex is not minimal there, and its block ranks to zero.  In
    (wuv, zu, yu, xu, xyzwv) the squarefree point xyzwuv is a pivot at
    dimensions 1 and 3, which are not adjacent, so beta_2 = beta_4 = 1 there
    with no rank taken.
    """
    r, r6 = ring("x", "y", "z"), ring(*"xyzwuv")
    cases = {
        "single pivot": (ideal(r, ["x", "y"]), (1, 1, 0), {1: 1}, {2: 1}),
        "repeated in one dimension": (ideal(r, ["x*y", "x*z", "y*z"]), (1, 1, 1), {1: 2}, {2: 2}),
        "ranks to zero": (ideal(r, ["y^3", "x^2*z^2", "x^2*y*z"]), (2, 3, 2), {1: 1, 2: 1}, {}),
        "dimensions apart": (ideal(r6, ["w*u*v", "z*u", "y*u", "x*u", "x*y*z*w*v"]), (1,) * 6,
                             {1: 1, 3: 1}, {2: 1, 4: 1}),
    }
    for name, (J, alpha, counts, betti) in cases.items():
        assert dict(_tree_pivots(J))[alpha] == counts, name
        assert dict(_support(J).get(alpha, (0, ()))[1]) == betti == _oracle_support(J).get(alpha, {}), name
    ranked = []

    def recording(faces):
        ranked.append(faces)
        return _block_betti(faces)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(importlib.import_module("regpow.betti"), "_block_betti", recording)
        _quotient_betti.__wrapped__(cases["dimensions apart"][0])
    assert ranked == []
    # over seeded random ideals: every case occurs, the oracle agrees at
    # every pivot, and a generator is a pivot once, at dimension 0, so it is
    # never ranked
    rnd = random.Random(83)
    seen = set()
    for _ in range(300):
        s, top = ring(*"xyzw"[:rnd.randint(2, 4)]), rnd.randint(1, 3)
        J = minimalize(s, [Monomial(s, tuple(rnd.randint(0, top) for _ in range(s.nvars)))
                           for _ in range(rnd.randint(2, 8))])
        if J.is_unit():
            continue
        pivots = dict(_tree_pivots(J))
        assert all(pivots[g] == {0: 1} for g in J._exps), J
        support, oracle = _support(J), _oracle_support(J)
        for alpha, counts in pivots.items():
            betti = dict(support[alpha][1]) if alpha in support else {}
            assert betti == oracle.get(alpha, {}), (J, alpha)
            if any(d + 1 in counts for d in counts):
                seen.add("adjacent dimensions" if betti else "ranks to zero")
            else:
                assert betti == {d + 1: b for d, b in counts.items()}, (J, alpha)
                seen.add("dimensions apart" if len(counts) > 1 else
                         "single pivot" if set(counts.values()) == {1} else "repeated in one dimension")
    assert seen == {"single pivot", "repeated in one dimension", "adjacent dimensions", "ranks to zero"}, seen


def _rank_mod2(rows) -> int:
    """Rank over GF(2): each row is the bitmask of its odd entries, eliminated by XOR."""
    leading = {}
    for row in rows:
        x = sum(1 << c for c, v in enumerate(row) if v % 2)
        while x and x.bit_length() in leading:
            x ^= leading[x.bit_length()]
        if x:
            leading[x.bit_length()] = x
    return len(leading)


def test_rp2_block_has_two_torsion(monkeypatch):
    """The six-vertex RP² has 2-torsion, so its Betti table over ℚ needs an exact rank, not one mod 2.

    J is its Stanley–Reisner ideal, the ten cubics of its minimal nonfaces.
    At alpha = (1, ..., 1) the tree has one pivot in each of positions 3
    and 4, so the block is ranked; shrunk at x6 it has five faces of sizes
    2 and 3, and its boundary between them has rank 5 over ℚ but 4 over
    GF(2), where beta_{3,6} = beta_{4,6} = 1 would appear.
    """
    r = ring(*(f"x{k}" for k in range(1, 7)))
    J = ideal(r, ["x1*x2*x3", "x1*x2*x5", "x1*x3*x4", "x1*x4*x6", "x1*x5*x6",
                  "x2*x3*x6", "x2*x4*x5", "x2*x4*x6", "x3*x4*x5", "x3*x5*x6"])
    entries = betti_table(quotient_ring(J)).entries
    assert entries == {(0, 0): 1, (1, 3): 10, (2, 4): 15, (3, 5): 6}
    assert entries == _graded(_hochster.betti_numbers([(0,) * 6], J._exps))
    record = _quotient_betti(J)
    alpha = (1,) * 6
    pivots = _pivots(_keys(J._exps, record.layout), record.layout)
    assert [counts for key, counts in pivots.items() if record.layout.unpack(key) == alpha] == [{3: 1, 4: 1}]
    assert alpha not in {record.layout.unpack(p) for p in record.support}
    # the block as the module docstring shrinks it: the facets are the
    # complements of the nonfaces, v is vertex 5 (x6)
    v = 1 << 5
    kept = dropped = 0
    for g in J._exps:
        T = sum(1 << k for k in range(6) if not g[k])
        if T & v:
            dropped |= _simplex(T ^ v)
        else:
            kept |= _simplex(T)
    faces = kept & ~dropped
    ranked = []

    def recording(faces):
        ranked.append(faces)
        return _block_betti(faces)

    monkeypatch.setattr(importlib.import_module("regpow.betti"), "_block_betti", recording)
    _quotient_betti.__wrapped__(J)
    assert faces in ranked and _block_betti(faces) == ()
    levels = _levels(faces)
    assert {i: len(level) for i, level in levels.items()} == {2: 5, 3: 5}
    rows = _boundary(levels, 3)
    assert _rank_int(rows) == 5 and _rank_mod2(rows) == 4


def test_packed_tree_matches_tuple_tree():
    """The packed Mayer–Vietoris tree is the tuple tree: the same pivots and counts, found in the same order."""
    rnd = random.Random(89)
    ideals = []
    for _ in range(320):
        r = ring(*"xyzwuvts"[:rnd.randint(1, 8)])
        top = rnd.choice((1, 2, 3, 5))
        ideals.append(minimalize(r, [
            Monomial(r, tuple(rnd.randint(0, top) for _ in range(r.nvars)))
            for _ in range(rnd.randint(1, 10))
        ]))
    # tops that fill a value field (7, 15, 63) or open a wider one (8, 16, 64);
    # on one variable the field holds top itself, on more the box degree
    for k, edge in enumerate((7, 8, 15, 16, 63, 64) * 2):
        r = ring(*"xyzw"[:1 + k % 4])
        ideals.append(random_ideal(rnd, r, max_gens=6, max_exp=edge)
                      + ideal(r, [Monomial(r, (edge,) + (0,) * (r.nvars - 1))]))
        # and box degrees on those edges: the lcm box (edge - 4, 2, 2)
        s = ring("x", "y", "z")
        ideals.append(minimalize(s, [Monomial(s, e) for e in ((edge - 4, 0, 0), (0, 2, 0), (0, 0, 2))] + [
            Monomial(s, (rnd.randint(0, edge - 5),) + rnd.choice(((1, 0), (0, 1), (1, 1)))) for _ in range(4)
        ]))
    for spec, top in ((FamilySpec("m2_reg"), 6), (FamilySpec("cycle", t=3), 3), (FamilySpec("cycle", t=4), 2)):
        presented = build(spec)
        ideals += [presented.module_of("quotient", n).denominator for n in range(1, top + 1)]
    r = ring("x", "y")
    ideals += [zero_ideal(r), unit_ideal(r)]
    tops, boxes = set(), set()
    for J in ideals:
        assert _tree_pivots(J) == list(_block_oracle.pivots(J._exps).items()), J
        tops.update({7, 8, 15, 16, 63, 64} & set(J.lcm_exponents()))
        boxes.update({7, 8, 15, 16, 63, 64} & {sum(J.lcm_exponents())})
    assert tops == boxes == {7, 8, 15, 16, 63, 64}


def test_reduction_uses_the_last_variable(monkeypatch):
    """The block of S/J at a pivot of adjacent dimensions is shrunk at the last variable of its facets.

    Every vertex gives the same homology, so only the blocks handed to
    `_block_betti` show which vertex was used; they are rebuilt here from
    the facets T_g = {j : g_j < alpha_j} with v = max of their union.  A
    face numbers the variables of supp(alpha) in order, so variable j is
    vertex #{k in supp(alpha) : k < j}.
    """
    ranked = []

    def recording(faces):
        ranked.append(faces)
        return _block_betti(faces)

    monkeypatch.setattr(importlib.import_module("regpow.betti"), "_block_betti", recording)
    rnd = random.Random(97)
    ideals = []
    for _ in range(60):
        s = ring(*"xyzwu"[:rnd.randint(3, 5)])
        ideals.append(minimalize(s, [Monomial(s, tuple(rnd.randint(0, 3) for _ in range(s.nvars)))
                                     for _ in range(rnd.randint(3, 8))]))
    presented = build(FamilySpec("cycle", t=3))
    ideals += [presented.module_of("quotient", n).denominator for n in (1, 2)]
    checked = 0
    for J in ideals:
        if J.is_unit():
            continue
        s = J.ring
        ranked.clear()
        _quotient_betti.__wrapped__(J)
        expected = []
        for alpha, counts in _block_oracle.pivots(J._exps).items():
            if not any(d + 1 in counts for d in counts):
                continue  # the counts are the Betti numbers
            supp = [j for j in range(s.nvars) if alpha[j]]
            vertex = {j: k for k, j in enumerate(supp)}
            facets = [sum(1 << vertex[j] for j in supp if g[j] < alpha[j])
                      for g in J._exps if all(map(int.__le__, g, alpha))]
            if any(T == (1 << len(supp)) - 1 for T in facets):
                continue  # a facet is all of supp(alpha): K^alpha is the whole simplex
            union = 0
            for T in facets:
                union |= T
            v = 1 << (union.bit_length() - 1)
            kept = dropped = 0
            for T in facets:
                if T & v:
                    dropped |= _simplex(T ^ v)
                else:
                    kept |= _simplex(T)
            if kept & ~dropped:
                expected.append(kept & ~dropped)
        assert ranked == expected, J
        checked += len(expected)
    assert checked >= 50


def test_unused_variables_change_no_table(monkeypatch):
    """In 44 variables, of which the ideals use 8, a table is the one in those 8 variables.

    The 8 are the first or the last of the ring.  Nothing is built per
    variable of the ring beyond its layout, and a block numbers its vertices
    within supp(alpha), so its face sets have 2^|supp(alpha)| bits however
    high the variables' indices are: the wide ring costs about what the
    narrow one does.  The modules are cycle t=3 ones that rank blocks of S/J
    and relative blocks at shared points.
    """
    monkeypatch.delenv(CACHE_ENV, raising=False)
    ranked = []

    def recording(faces):
        ranked.append(faces)
        return _block_betti(faces)

    monkeypatch.setattr(importlib.import_module("regpow.betti"), "_block_betti", recording)
    presented = build(FamilySpec("cycle", t=3))
    wide = ring(*(f"x{j}" for j in range(44)))

    def widen(I, first):
        pad = (0,) * 36
        return minimalize(wide, [Monomial(wide, g + pad if first else pad + g) for g in I._exps])

    for kind, n in (("quotient", 1), ("diff", 2)):
        M = presented.module_of(kind, n)
        expected = betti_table(M).entries
        for first in (True, False):
            ranked.clear()
            table = betti_table(Subquotient(widen(M.numerator, first), widen(M.denominator, first)))
            assert table.entries == expected, (kind, n, first)
            assert len(ranked) > 50, (kind, n, first)
            assert max(ranked).bit_length() <= 1 << 8, (kind, n, first)


def test_facet_blocks_match_membership_oracle():
    """Bitmask facet blocks with integer rank against the former membership-test path.

    The table, and the composed Tor(A/B) at every point of L(A) ∪ L(B),
    equal the direct relative block of (A, B) there: at the points of both
    supports that share a homological degree the block is ranked, and at
    those that share none Tor(S/B) and Tor(S/A) one degree down add.
    """
    rnd = random.Random(59)
    modules = []
    for nv in range(1, 7):
        r = ring(*"xyzwuv"[:nv])
        for k in range(90):
            B = zero_ideal(r) if k % 5 == 0 else random_ideal(rnd, r)
            A = unit_ideal(r) if k % 4 == 0 else B + random_ideal(rnd, r)
            modules.append((A, B))
    # boxes whose top fills a packed field (7, 15, 63) or opens a wider one (8, 16, 64)
    for k, edge in enumerate((7, 8, 15, 16, 63, 64) * 2):
        r = ring(*"xyzw"[:2 + k % 3])
        B = random_ideal(rnd, r, max_exp=edge) + ideal(r, [Monomial(r, (edge,) + (0,) * (r.nvars - 1))])
        A = unit_ideal(r) if k % 2 else B + random_ideal(rnd, r, max_exp=edge)
        modules.append((A, B))
    # the shapes a window produces: I^n, R/I^n and I^(n-1)/I^n over S/Q
    presented = build(FamilySpec("m2_reg"))
    for n in range(1, 5):
        for kind in ("power", "quotient", "diff"):
            M = presented.module_of(kind, n)
            modules.append((M.numerator, M.denominator))
    seen = set()
    cases = 0
    for A, B in modules:
        a_exps = [g.exponents for g in A.gens]
        b_exps = [g.exponents for g in B.gens]
        oracle = {} if A == B else _block_oracle.betti_entries(a_exps, b_exps)
        assert betti_table(Subquotient(A, B)).entries == oracle, (A, B)
        cases += 1
        if not B.gens:
            seen.add("zero denominator")
        if A == unit_ideal(A.ring):
            seen.add("unit numerator")
        if max(A.lcm_exponents() + B.lcm_exponents()) in (7, 8, 15, 16, 63, 64):
            seen.add("box top on a field edge")
        if "non-cone B-complex" not in seen:
            for alpha in _block_oracle.lcm_closure_by_frontier(a_exps + b_exps):
                # K^alpha(B): the faces F with x^(alpha - F) in B
                b_faces = [F for level in _block_oracle.block_levels(alpha, b_exps, []).values()
                           for F in level]
                if b_faces and not _is_cone(b_faces):
                    seen.add("non-cone B-complex")
                    break
        if A == B:
            continue
        layout = max(_quotient_betti(A).layout, _quotient_betti(B).layout, key=lambda layout: layout.bits)
        # a point where the composition splits comes once from each support, so the pairs add
        composed = {}
        for p, _, betti in _block_oracle.tor_by_multidegree(A, B):
            at = composed.setdefault(layout.unpack(p), {})
            for i, b in betti:
                at[i] = at.get(i, 0) + b
        points = _block_oracle.lcm_closure_by_frontier(a_exps) | _block_oracle.lcm_closure_by_frontier(b_exps)
        assert set(composed) <= points, (A, B)
        supp_a, supp_b = _support(A), _support(B)
        for alpha in points:
            levels = _block_oracle.block_levels(alpha, a_exps, b_exps)
            direct = _block_oracle.block_betti(levels, A.ring.nvars) if levels else {}
            assert composed.get(alpha, {}) == direct, (A, B, alpha)
            if alpha in supp_a and alpha in supp_b:
                shares = {i for i, _ in supp_a[alpha][1]} & {i for i, _ in supp_b[alpha][1]}
                seen.add("both supports, shared degree" if shares else "both supports, no shared degree")
            elif alpha in supp_a or alpha in supp_b:
                seen.add("only in supp(S/A)" if alpha in supp_a else "only in supp(S/B)")
    assert cases >= 500
    assert seen == {
        "zero denominator", "unit numerator", "non-cone B-complex", "box top on a field edge",
        "only in supp(S/B)", "only in supp(S/A)",
        "both supports, no shared degree", "both supports, shared degree",
    }


def test_graded_composition_matches_per_point_oracle():
    """The table composed from graded sums is the per-point composition's and the membership oracle's.

    Every table of the golden families and the seeded corpus is compared
    with the sums of `_block_oracle.tor_by_multidegree`, which walks both
    supports whole and builds each relative block from all generators of A
    and B, and, where the lcm lattice is small, with
    `_block_oracle.betti_entries`.  At a point where Tor(S/A) and Tor(S/B)
    share a degree the composition builds the block from A's generators
    outside B only; both kinds of such points occur.
    """
    modules = []
    for spec, top in ((FamilySpec("m2_reg"), 6), (FamilySpec("m2_sdeg"), 6), (FamilySpec("ehl", r=3), 6),
                      (FamilySpec("cycle", t=3), 4), (FamilySpec("cycle", t=4), 4)):
        presented = build(spec)
        modules += [presented.module_of(kind, n) for n in range(1, top + 1) for kind in ("power", "quotient", "diff")]
    for case in corpus():
        modules += [case.presented.module_of(kind, n)
                    for n in range(1, case.n_max + 1) for kind in ("power", "quotient", "diff")]
    r, s = ring("x", "y"), ring("x", "y", "z")
    modules.append(Subquotient(ideal(r, ["x^2", "x*y"]), ideal(r, ["x^2", "x*y"])))
    # the narrower record, of B, holds the larger support: A's points x^40 and x^40 y could not move into it
    # (the lcm box of x^20, y has degree below 32, so its record would share B's layout)
    modules.append(Subquotient(ideal(s, ["x^40", "y"]), ideal(s, ["x^3*y", "x^2*y*z", "x*y*z^2", "y*z^3"])))
    seen = set()
    for M in modules:
        A, B = M.numerator, M.denominator
        a_exps, b_exps = list(A._exps), list(B._exps)
        entries = _compute_betti_table(M).entries
        assert entries == _block_oracle.composed_entries(A, B), (A, B)
        if len(a_exps) + len(b_exps) <= 24 and A.ring.nvars <= 8:
            assert entries == ({} if A == B else _block_oracle.betti_entries(a_exps, b_exps)), (A, B)
            seen.add("membership oracle")
        # the composition walks the narrower record (the smaller support on a tie) and looks it up in the other
        walk, other = sorted((_quotient_betti(A), _quotient_betti(B)),
                             key=lambda record: (record.layout.bits, len(record.support)))
        seen.update(name for name, case in (
            ("A unit", A.is_unit()), ("B zero", B.is_zero()), ("A = B", A == B),
            ("layouts of different width", walk.support and walk.layout.bits != other.layout.bits),
            ("narrower record holds the larger support",
             walk.layout.bits < other.layout.bits and len(walk.support) > len(other.support)),
        ) if case)
        if {"shared, no generator outside B divides", "shared, nonempty block"} <= seen:
            continue
        outside = set(a_exps) - set(b_exps)
        supp_a, supp_b = _support(A), _support(B)
        for alpha in supp_a.keys() & supp_b.keys():
            if not any(alpha) or {i for i, _ in supp_a[alpha][1]}.isdisjoint([i for i, _ in supp_b[alpha][1]]):
                continue
            if not any(all(map(int.__le__, g, alpha)) for g in outside):
                seen.add("shared, no generator outside B divides")
                assert not _block_oracle.block_levels(alpha, a_exps, b_exps), (A, B, alpha)
            elif _block_oracle.block_levels(alpha, a_exps, b_exps):
                seen.add("shared, nonempty block")
    assert len(modules) > 700
    assert seen == {
        "membership oracle", "A unit", "B zero", "A = B", "layouts of different width",
        "narrower record holds the larger support", "shared, no generator outside B divides", "shared, nonempty block",
    }, seen


def test_repack_moves_points_between_layouts():
    """A point moves into a wider layout with its exponents unchanged."""
    narrow, wide = _layout(3, 7), _layout(3, 40)
    for e in ((0, 0, 0), (7, 1, 3), (0, 5, 7)):
        assert _repack([_pack(e, narrow.shifts)], narrow, wide) == [_pack(e, wide.shifts)]


def test_integer_rank_matches_rational_rank():
    rnd = random.Random(61)
    seen = set()
    for _ in range(400):
        nrows, ncols = rnd.randint(0, 7), rnd.randint(1, 7)
        if rnd.random() < 0.4:
            # a product through k dimensions has rank at most k
            k = rnd.randint(0, 3)
            left = [[rnd.randint(-3, 3) for _ in range(k)] for _ in range(nrows)]
            right = [[rnd.randint(-3, 3) for _ in range(ncols)] for _ in range(k)]
            rows = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] if k else [0] * ncols
                    for row in left]
        else:
            rows = [[rnd.randint(-2, 2) for _ in range(ncols)] for _ in range(nrows)]
        for c in range(ncols):
            if rnd.random() < 0.2:
                for row in rows:
                    row[c] = 0
        rank = _rank_dense(rows)
        assert _rank_int(rows) == rank, rows
        if rows and rank < min(nrows, ncols):
            seen.add("rank-deficient")
        if rows and any(not any(col) for col in zip(*rows)):
            seen.add("zero column")
    assert seen == {"rank-deficient", "zero column"}


def _random_block(rnd, nv: int) -> int:
    """The face set of a relative complex (K_A, K_B) on nv vertices with K_B ⊆ K_A."""
    a_facets = [rnd.randrange(1 << nv) for _ in range(rnd.randint(1, 4))]
    b_facets = [T & rnd.randrange(1 << nv) for T in a_facets if rnd.random() < 0.7]
    a_faces = b_faces = 0
    for T in a_facets:
        a_faces |= _simplex(T)
    for T in b_facets:
        b_faces |= _simplex(T)
    return a_faces & ~b_faces


def test_bitmask_block_boundaries_compose_to_zero():
    rnd = random.Random(67)
    checked = 0
    for _ in range(300):
        levels = _levels(_random_block(rnd, rnd.randint(1, 6)))
        for i in range(2, max(levels, default=0) + 1):
            upper, lower = _boundary(levels, i), _boundary(levels, i - 1)
            for row in upper:
                composed = [sum(a * b for a, b in zip(row, col)) for col in zip(*lower)]
                assert not any(composed)
                checked += 1
    assert checked > 1000


def test_simplex_face_set():
    assert _simplex(0) == 1
    assert _simplex(0b101) == sum(1 << S for S in (0b000, 0b001, 0b100, 0b101))
    assert _levels(_simplex(0b111)) == {0: [0], 1: [1, 2, 4], 2: [3, 5, 6], 3: [7]}
    # within a support, vertex k is its k-th highest bit, whatever the bits' positions
    support = (1 << 40) | (1 << 21) | (1 << 3)
    assert _Simplices(support)[1 << 40] == _simplex(0b001)
    assert _Simplices(support)[1 << 3] == _simplex(0b100)
    assert _Simplices(support)[(1 << 21) | (1 << 3)] == _simplex(0b110)
    assert _Simplices(support)[support] == _simplex(0b111)


def test_block_memo_is_bounded_and_transparent():
    """The block, per-ideal and table memos are bounded, and cold memos give the warm tables."""
    memos = (_block_betti, _quotient_betti, _betti_table_memo)
    assert all(memo.cache_info().maxsize is not None for memo in memos)
    rnd = random.Random(71)
    r = ring("x", "y", "z", "w")
    modules = [_random_subquotient(rnd, r) for _ in range(15)]
    warm = [_compute_betti_table(M).entries for M in modules]
    assert [_compute_betti_table(M).entries for M in modules] == warm
    assert [betti_table(M).entries for M in modules] == warm
    assert _quotient_betti.cache_info().hits > 0
    for memo in memos:
        memo.cache_clear()
        assert [_compute_betti_table(M).entries for M in modules] == warm
        assert [betti_table(M).entries for M in modules] == warm
    assert all(memo.cache_info().misses > 0 for memo in memos)
    # the per-ideal memo is keyed by the ideal with its ring: the same
    # generators in another ring get their own entry
    s = ring("a", "b", "c", "d")
    A, B = modules[0].numerator, modules[0].denominator
    moved = Subquotient(*(minimalize(s, [Monomial(s, e) for e in I._exps]) for I in (A, B)))
    before = _quotient_betti.cache_info().currsize
    assert _compute_betti_table(moved).entries == warm[0]
    assert _quotient_betti.cache_info().currsize > before


def test_artinian_regularity_agrees_with_top_degree():
    rnd = random.Random(43)
    r = ring("x", "y", "z")
    checked = 0
    while checked < 10:
        B = random_ideal(rnd, r) + ideal(
            r, [Monomial(r, (rnd.randint(1, 3), 0, 0)),
                Monomial(r, (0, rnd.randint(1, 3), 0)),
                Monomial(r, (0, 0, rnd.randint(1, 3)))]
        )
        A = B + random_ideal(rnd, r)
        M = Subquotient(A, B)
        if M.is_zero():
            continue
        assert is_artinian(M)
        assert regularity(M) == top_degree(M)
        checked += 1


def test_no_entry_reaches_the_search_bound():
    rnd = random.Random(47)
    r = ring("x", "y", "z")
    for _ in range(12):
        M = _random_subquotient(rnd, r)
        table = betti_table(M)
        assert all(j < table.search_bound for (_, j) in table.entries)


def test_rank_of_piece_on_known_matrix():
    r = ring("x", "y")
    M = quotient_ring(ideal(r, ["x^2", "y^2"]))
    # d_{1,2}: four rows e_x/e_y tensor the degree-1 basis, onto span{xy}
    rows = _koszul_rows(M, 1, 2)
    assert len(rows) == 4
    assert all(len(row) == 1 for row in rows)
    assert _rank_dense(rows) == 1


def _cached(M, cache):
    """betti_table(M) with the disk cache at `cache`, set by its environment variable."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(CACHE_ENV, str(cache))
        return betti_table(M)


def test_disk_cache_is_a_pure_accelerator(tmp_path):
    r = ring("x", "y", "z")
    M = quotient_ring(ideal(r, ["x^2", "x*y", "z^3"]))
    plain = betti_table(M)
    cache = tmp_path / "betti.json"
    first = _cached(M, cache)
    assert cache.exists()
    second = _cached(M, cache)
    assert first.entries == plain.entries == second.entries
    assert first.search_bound == plain.search_bound == second.search_bound
    data = json.loads(cache.read_text())
    assert len(data) == 1


def test_corrupted_cache_file_is_ignored(tmp_path):
    r = ring("x", "y")
    M = quotient_ring(ideal(r, ["x^2", "y^2"]))
    key = _canonical_key(M)
    cache = tmp_path / "betti.json"
    for text in ("not json at all", "[]", '"str"', json.dumps({key: {"entries": 5}})):
        cache.write_text(text)
        table = _cached(M, cache)
        assert table.entries == betti_table(M).entries, text
        assert key in json.loads(cache.read_text()), text


def _fail_cache_writes(monkeypatch):
    """Make every cache write put 10 characters into its temp file and then raise OSError."""
    real_fdopen = os.fdopen

    class ShortWrite:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[:10])
            raise OSError("no space left on device")

    monkeypatch.setattr(os, "fdopen", lambda fd, *args, **kwargs: ShortWrite(real_fdopen(fd, *args, **kwargs)))


def test_interrupted_cache_write_keeps_the_previous_file(tmp_path, monkeypatch):
    r = ring("x", "y")
    cache = tmp_path / "betti.json"
    _cached(quotient_ring(ideal(r, ["x^2", "y^2"])), cache)
    before = cache.read_text()

    _fail_cache_writes(monkeypatch)
    M = quotient_ring(ideal(r, ["x^3", "y"]))
    assert _cached(M, cache).entries == betti_table(M).entries
    assert cache.read_text() == before
    assert len(json.loads(before)) == 1
    assert list(tmp_path.iterdir()) == [cache]


def test_interrupted_deferred_write_keeps_the_previous_file(tmp_path, monkeypatch):
    """The one write at the end of a report fails: the old file stays whole and the values still come back."""
    r = ring("x", "y")
    X = PresentedIdeal(zero_ideal(r), ideal(r, ["x^2", "x*y"]))
    expected = defect_report(X, "reg_quotient", 1, 4).values
    cache = tmp_path / "betti.json"
    _cached(quotient_ring(ideal(r, ["x^2", "y^2"])), cache)
    before = cache.read_text()

    _fail_cache_writes(monkeypatch)
    monkeypatch.setenv("REGPOW_CACHE", str(cache))
    assert defect_report(X, "reg_quotient", 1, 4).values == expected
    assert cache.read_text() == before
    assert list(tmp_path.iterdir()) == [cache]


def _replace_cache_file(path, records):
    """Replace the cache file as another process would: a new file renamed over it."""
    tmp = path.with_name(path.name + ".other")
    tmp.write_text(json.dumps(records))
    os.replace(tmp, path)


def _count_parses(monkeypatch) -> list:
    """One entry per JSON parse from now on; json.load parses through json.loads."""
    calls = []
    real_loads = json.loads

    def counting_loads(*args, **kwargs):
        calls.append(1)
        return real_loads(*args, **kwargs)

    monkeypatch.setattr(json, "loads", counting_loads)
    return calls


# A record the engine would never produce, so a table carrying it came from the file.
_MARKER = {"search_bound": 99, "entries": [[0, 0, 1]]}


def test_cache_key_carries_the_format_tag(tmp_path):
    r = ring("x", "y")
    M = quotient_ring(ideal(r, ["x^2", "y^2"]))
    key = _canonical_key(M)
    assert len(key) == 64 and int(key, 16) >= 0
    # The key of the previous format, which hashed no tag line.
    untagged = hashlib.sha256(b"ring x y\nnum 1\nden y^2 x^2\n").hexdigest()
    assert untagged != key
    cache = tmp_path / "betti.json"
    _replace_cache_file(cache, {untagged: _MARKER})
    table = _cached(M, cache)
    assert table.entries == betti_table(M).entries
    assert table.search_bound != 99
    assert set(json.loads(cache.read_text())) == {untagged, key}


def test_cache_file_is_parsed_once_per_process(tmp_path, monkeypatch):
    r = ring("x", "y")
    M = quotient_ring(ideal(r, ["x^2", "y^2"]))
    N = quotient_ring(ideal(r, ["x^3", "x*y"]))
    cache = tmp_path / "betti.json"
    _replace_cache_file(cache, {_canonical_key(M): _MARKER})
    parses = _count_parses(monkeypatch)
    assert _cached(M, cache).search_bound == 99
    assert len(parses) == 1
    _cached(M, cache)  # hit
    _cached(N, cache)  # miss, written through
    assert _cached(N, cache).entries == betti_table(N).entries  # hit
    assert len(parses) == 1


def test_replaced_cache_file_is_parsed_again(tmp_path, monkeypatch):
    r = ring("x", "y")
    M = quotient_ring(ideal(r, ["x^2", "y^2"]))
    N = quotient_ring(ideal(r, ["x^3", "x*y"]))
    cache = tmp_path / "betti.json"
    _cached(M, cache)
    parses = _count_parses(monkeypatch)
    _replace_cache_file(cache, {_canonical_key(N): _MARKER})
    assert _cached(N, cache).search_bound == 99
    assert len(parses) == 1
    _cached(N, cache)  # hit
    _cached(M, cache)  # miss: the other writer's file lacks M
    assert len(parses) == 1
    data = json.loads(cache.read_text())
    assert set(data) == {_canonical_key(M), _canonical_key(N)}
    assert data[_canonical_key(N)] == _MARKER


def test_deferred_records_are_read_before_they_are_written(tmp_path, monkeypatch):
    r = ring("x", "y")
    M = quotient_ring(ideal(r, ["x^3", "y^2"]))
    cache = tmp_path / "betti.json"
    with deferred_cache_writes():
        table = _cached(M, cache)
        assert not cache.exists()
        with monkeypatch.context() as patch:
            # A second lookup in the scope must come from the pending record, not the engine.
            patch.setattr(importlib.import_module("regpow.betti"), "_betti_table_memo", None)
            assert _cached(M, cache).entries == table.entries
    assert list(json.loads(cache.read_text())) == [_canonical_key(M)]


def test_cache_env_variable_is_honored(tmp_path, monkeypatch):
    cache = tmp_path / "env_cache.json"
    monkeypatch.setenv("REGPOW_CACHE", str(cache))
    r = ring("x", "y")
    M = quotient_ring(ideal(r, ["x^3", "x*y"]))
    betti_table(M)
    assert cache.exists()
