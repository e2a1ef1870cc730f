"""Monomial and monomial-ideal arithmetic, checked against brute-force membership oracles."""
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from regpow import (
    Monomial,
    MonomialIdeal,
    MonomialSyntaxError,
    RingMismatchError,
    RingSpec,
    ideal,
    minimalize,
    parse_monomial,
    unit_ideal,
    zero_ideal,
)
from regpow.modules import Subquotient
from regpow.monomials import NEG_INF, _colon, _keys, _layout, _minimal, _pack, _socle_top, _split
from regpow.regfun import PresentedIdeal

from conftest import (
    all_monomials,
    colon_by_objects,
    colon_ideal_by_fold,
    intersect_by_lcms,
    minimalize_by_objects,
    monomials_up_to,
    product_by_objects,
    random_ideal,
    ring,
    saturate_by_colon_fixpoint,
)


# ---------------------------------------------------------------- construction


def test_ring_spec_validation():
    with pytest.raises(ValueError):
        RingSpec(())
    with pytest.raises(ValueError):
        RingSpec(("x", "x"))
    with pytest.raises(ValueError):
        RingSpec(("x", ""))
    # names a monomial string cannot write back
    for name in ("1", "y^2", "a*b", "x#1", "a b", "\tx"):
        with pytest.raises(ValueError):
            RingSpec(("x", name))


def test_monomial_validation():
    r = ring("x", "y")
    with pytest.raises(ValueError):
        Monomial(r, (1,))
    with pytest.raises(ValueError):
        Monomial(r, (1, -1))


def test_ideal_constructor_checks_each_exponent_tuple():
    r = ring("x", "y")
    assert MonomialIdeal(r, [(0, 2), (1, 0)])._exps == ((0, 2), (1, 0))
    for bad in [(1,), (1, -1), (1.0, 0), Monomial(r, (1, 0))]:
        with pytest.raises(ValueError):
            MonomialIdeal(r, (bad,))


def test_monomial_degree_and_support():
    r = ring("x", "y", "z")
    m = Monomial(r, (2, 0, 3))
    assert m.degree == 5
    assert m.support == frozenset({0, 2})
    assert r.one().is_one()


def test_ring_mismatch_is_rejected():
    a = ring("x", "y").var("x")
    b = ring("x", "z").var("x")
    with pytest.raises(RingMismatchError):
        a * b
    I, J = ideal(a.ring, [a]), ideal(b.ring, [b])
    for mixed in (
        lambda: I + J,
        lambda: I * J,
        lambda: I.intersect(J),
        lambda: I.colon(b),
        lambda: I.colon_ideal(J),
        lambda: I.contains(b),
        lambda: I.is_subset_of(J),
        lambda: zero_ideal(a.ring).is_subset_of(J),
        lambda: minimalize(a.ring, [a, b]),
        lambda: ideal(a.ring, [a, b]),
    ):
        with pytest.raises(RingMismatchError):
            mixed()


# ------------------------------------------------------------------ parsing


def test_parse_monomial_examples():
    r = ring("x", "y")
    assert parse_monomial(r, "x^4*y^3").exponents == (4, 3)
    assert parse_monomial(r, "y").exponents == (0, 1)
    assert parse_monomial(r, "1") == r.one()


@pytest.mark.parametrize(
    "bad", ["", "z", "x^0", "x^-1", "x*x", "x^", "x^a", "x*", "*x", "x^²", "x^٣"]
)
def test_parse_monomial_rejects(bad):
    r = ring("x", "y")
    with pytest.raises(MonomialSyntaxError):
        parse_monomial(r, bad)


def test_monomial_str_round_trip():
    r = ring("x", "y", "z")
    for m in monomials_up_to(r, 4):
        assert parse_monomial(r, str(m)) == m


# -------------------------------------------------------------- minimalize


def test_minimalize_drops_divisible_generators():
    r = ring("x", "y")
    got = ideal(r, ["x^2", "x^2*y", "y^3"])
    assert got == ideal(r, ["x^2", "y^3"])


def test_minimalize_empty_is_zero_ideal():
    r = ring("x", "y")
    assert ideal(r, []).is_zero()


def test_minimalize_unit_absorbs_everything():
    r = ring("x", "y")
    assert ideal(r, ["1", "x"]) == unit_ideal(r)
    assert unit_ideal(r).is_unit()


def test_minimalize_idempotent_and_pairwise_nondivisible():
    rnd = random.Random(7)
    r = ring("x", "y", "z")
    for _ in range(30):
        I = random_ideal(rnd, r, max_gens=5)
        assert minimalize(r, I.gens) == I
        for g in I.gens:
            for h in I.gens:
                if g != h:
                    assert not g.divides(h)


def test_minimal_drops_candidates_divided_by_lower_degree_levels():
    r = ring("x", "y", "z")
    # Degree levels 1 to 4: x (level 1) divides x^2*y and x*y*z (level 3), y^2
    # (level 2) divides y^2*z^2 (level 4), z^3 (level 3) divides y*z^3 (level 4).
    raw = [parse_monomial(r, t) for t in ("x*y*z", "y^2*z^2", "x", "y^2", "x^2*y", "z^3", "y*z^3")]
    got = minimalize(r, raw)
    assert got == minimalize_by_objects(r, raw)
    assert [str(g) for g in got.gens] == ["z^3", "y^2", "x"]


def test_minimal_of_one_degree_inputs():
    """_minimal returns an input of one degree sorted and deduplicated, and still minimalizes a mixed one.

    The seeded inputs are tuples of one degree with repeats, alone and with
    multiples of some of them added one degree or more higher, so that the
    two lowest candidates share a degree while a later one is divisible.
    """
    rnd = random.Random(41)
    seen = {"one degree": 0, "repeats": 0, "dropped multiple": 0}
    for case in range(300):
        r = RingSpec(tuple(f"x{i}" for i in range(1 + case % 5)))
        degree = rnd.randint(1, 6)
        level = []
        for _ in range(rnd.randint(2, 8)):
            e = [0] * r.nvars
            for _ in range(degree):
                e[rnd.randrange(r.nvars)] += 1
            level.append(tuple(e))
        level += rnd.sample(level, rnd.randint(0, len(level)))  # repeats
        raw = list(level)
        if case % 2:
            for g in rnd.sample(level, rnd.randint(1, len(level))):
                raw.append(tuple(a + rnd.randint(0, 2) + (i == 0) for i, a in enumerate(g)))
        rnd.shuffle(raw)
        got = _minimal(raw)
        assert got == list(minimalize_by_objects(r, [Monomial(r, e) for e in raw])._exps), raw
        if case % 2:
            seen["dropped multiple"] += len(set(level)) > 1 and len(got) < len(set(raw))
        else:
            assert got == sorted(set(level))
            seen["one degree"] += 1
            seen["repeats"] += len(set(level)) < len(level)
    assert min(seen.values()) >= 40, seen


def test_layout_invariants():
    """The packed format of `_layout` at the field-width edges, on one variable and with top = 0.

    unpack inverts packing, sorted keys run in (degree, tuple) order, the
    degree read ((x * up) >> above) & field is the degree while that fits a
    field, and the guard-bit test is tuple divisibility.
    """
    rnd = random.Random(107)
    tops = [0] + [t for k in range(1, 6) for t in (2 ** k - 1, 2 ** k)]
    full_reads = set()
    for nv in (1, 2, 3, 5):
        for top in tops:
            layout = _layout(nv, top)
            assert layout.bits == top.bit_length() and len(layout.shifts) == nv
            assert layout.unpack(layout.ones) == (1,) * nv and layout.guards == layout.ones << layout.bits
            # a vector whose degree fills a field, where the entries allow it
            rest, edge = layout.field, []
            for _ in range(nv):
                edge.append(min(top, rest))
                rest -= edge[-1]
            vectors = {tuple(rnd.randint(0, top) for _ in range(nv)) for _ in range(30)}
            vectors |= {(0,) * nv, (top,) * nv, tuple(edge)}
            keys = _keys(vectors, layout)
            assert [layout.unpack(key) for key in keys] == sorted(vectors, key=lambda e: (sum(e), e))
            assert [key >> layout.above for key in keys] == sorted(map(sum, vectors))
            for e in vectors:
                x = _pack(e, layout.shifts)
                assert layout.unpack(x) == e and x & layout.guards == 0 and x == x & layout.exps
                if sum(e) <= layout.field:
                    assert ((x * layout.up) >> layout.above) & layout.field == sum(e), (nv, top, e)
                    if sum(e) == layout.field:
                        full_reads.add(top)
                q = x | layout.guards
                for h in vectors:
                    divides = all(a <= b for a, b in zip(h, e))
                    assert ((q - _pack(h, layout.shifts)) & layout.guards == layout.guards) == divides, (h, e)
    assert full_reads == set(tops) - {0}


def test_packed_split_gives_the_minimal_colon_generators():
    """In J : x_i^k the unchanged generators (g_i = 0) need not serve as divisors."""
    rnd = random.Random(79)
    dropped = 0
    for case in range(400):
        nv = 2 + case % 4
        gens = _minimal([tuple(rnd.randint(0, 4) for _ in range(nv)) for _ in range(rnd.randint(1, 12))])
        i = rnd.randrange(nv)
        k = rnd.randint(1, max(1, *(g[i] for g in gens)))  # a pivot never exceeds the lcm
        # the socle search's layout, with room for the box degree and the number of generators
        layout = _layout(nv, max(sum(map(max, zip(*gens))), len(gens)))
        plus, colon = _split(_keys(gens, layout), layout.shifts[i], k, layout)
        p = tuple(k if j == i else 0 for j in range(nv))
        assert sorted(plus) == _keys([g for g in gens if g[i] < k] + [p], layout), (gens, i, k)
        high = [g[:i] + (g[i] - k,) + g[i + 1:] for g in gens if g[i] > k]
        lowered = [g[:i] + (0,) + g[i + 1:] for g in gens if 0 < g[i] <= k]
        unchanged = [g for g in gens if not g[i]]
        expected = high + _minimal(lowered + unchanged)
        assert sorted(colon) == _keys(expected, layout) and sorted(expected) == _colon(gens, p), (gens, i, k)
        dropped += len(set(unchanged) - set(expected))
    assert dropped > 50  # lowered generators do divide unchanged ones


# ------------------------------------------------------------- arithmetic


def test_maximal_ideal_is_the_ideal_of_the_variables():
    for nv in range(1, 7):
        r = RingSpec(tuple(f"x{i}" for i in range(nv)))
        assert r.maximal_ideal() == ideal(r, [r.var(v) for v in r.variables])


def test_power_of_maximal_ideal():
    r = ring("x", "y")
    m = r.maximal_ideal()
    assert m.power(2) == ideal(r, ["x^2", "x*y", "y^2"])
    assert m.power(1) == m
    assert m.power(0) == unit_ideal(r)
    with pytest.raises(ValueError):
        m.power(-1)


def test_sum_example():
    r = ring("x", "y")
    assert ideal(r, ["x^3"]) + ideal(r, ["x*y^2"]) == ideal(r, ["x^3", "x*y^2"])


def test_sum_with_the_zero_ideal_is_the_other_operand():
    r, s = ring("x", "y"), ring("x", "z")
    I, zero = ideal(r, ["x^3", "x*y^2"]), zero_ideal(r)
    assert I + zero is I
    assert zero + I is I
    assert (zero + zero).is_zero()
    for mixed in (lambda: I + zero_ideal(s), lambda: zero_ideal(s) + I):
        with pytest.raises(RingMismatchError):
            mixed()


def test_intersection_examples():
    r = ring("x", "y")
    assert ideal(r, ["x"]).intersect(ideal(r, ["y"])) == ideal(r, ["x*y"])
    assert ideal(r, ["x^2", "x*y"]).intersect(ideal(r, ["y^2"])) == ideal(r, ["x*y^2"])
    I = ideal(r, ["x^2", "y^3"])
    assert I.intersect(unit_ideal(r)) == I


def test_colon_examples():
    r = ring("x", "y")
    assert ideal(r, ["x^2", "x*y"]).colon(r.var("x")) == ideal(r, ["x", "y"])
    I = ideal(r, ["x^2", "y^3"])
    assert I.colon(r.one()) == I
    # the displayed shape (Q : y^{dn}) = (x^{c_n}, y^{d(m-n)}) at d=2, c=(3,1), n=1
    Q = ideal(r, ["x^3", "x*y^2"])
    assert Q.colon(Monomial(r, (0, 2))) == ideal(r, ["x"])


def test_socle_top_examples():
    assert _socle_top([(2, 0), (0, 3)], 2) == 3  # x*y^2, the pure-power leaf
    assert _socle_top([(2, 0), (1, 1), (0, 2)], 2) == 1  # x and y
    assert _socle_top([(3, 0), (2, 1), (0, 2)], 2) == 2  # x^2 and x*y
    assert _socle_top([(1, 0)], 2) == NEG_INF  # y divides no generator
    assert _socle_top([], 2) == NEG_INF  # the zero ideal
    assert _socle_top([(0, 0)], 2) == NEG_INF  # the unit ideal
    # (y^2, x*y*z, x^2*z) is saturated; without the w*x_i in J filter a split
    # on it would report a spurious socle monomial of degree 2.
    assert _socle_top([(0, 2, 0), (1, 1, 1), (2, 0, 1)], 3) == NEG_INF


def test_colon_by_zero_ideal_raises():
    r = ring("x", "y")
    with pytest.raises(ValueError):
        ideal(r, ["x"]).colon_ideal(zero_ideal(r))


def test_saturation_examples():
    r = ring("x", "y")
    assert ideal(r, ["x^2", "x*y"]).saturate() == ideal(r, ["x"])
    assert ideal(r, ["x^2", "y^2"]).saturate() == unit_ideal(r)
    assert ideal(r, ["x"]).saturate() == ideal(r, ["x"])
    assert zero_ideal(r).saturate().is_zero()


def test_saturate_matches_colon_fixpoint_oracle():
    rnd = random.Random(4)
    unsaturated = 0
    for nvars in range(1, 6):
        r = RingSpec(tuple(f"x{i}" for i in range(nvars)))
        ideals = [zero_ideal(r), unit_ideal(r)]
        ideals += [random_ideal(rnd, r, max_gens=4) for _ in range(80)]
        for I in ideals:
            saturated = I.saturate()
            assert saturated == saturate_by_colon_fixpoint(I), I
            unsaturated += saturated != I
    assert unsaturated >= 100


# Exponents at the packed field-width edges: 7 | 8, 15 | 16 and 63 | 64 need one more bit.
EDGE_EXPONENTS = (7, 8, 15, 16, 63, 64, 200)


def _edge_monomial(rnd, r, edge):
    return Monomial(r, tuple(rnd.choice((0, 0, 1, 2, 3, edge - 1, edge)) for _ in range(r.nvars)))


def _edge_ideal(rnd, r, edge):
    roll = rnd.random()
    if roll < 0.05:
        return zero_ideal(r)
    if roll < 0.1:
        return unit_ideal(r)
    return ideal(r, [_edge_monomial(rnd, r, edge) for _ in range(rnd.randint(1, 5))])


def test_kernel_matches_object_oracle():
    """The exponent-tuple kernel against the former object-level routes, on 2,100 seeded cases."""
    rnd = random.Random(5)
    seen = {"zero": 0, "unit": 0, "member": 0, "lcm pair": 0, "subset": 0, "not subset": 0}
    for case in range(2100):
        r = RingSpec(tuple(f"x{i}" for i in range(1 + case % 6)))
        edge = EDGE_EXPONENTS[case % len(EDGE_EXPONENTS)]
        raw = [_edge_monomial(rnd, r, edge) for _ in range(rnd.randint(0, 8))]
        assert minimalize(r, raw) == minimalize_by_objects(r, raw)
        I, J = _edge_ideal(rnd, r, edge), _edge_ideal(rnd, r, edge)
        u = _edge_monomial(rnd, r, edge)
        assert I.contains(u) == any(g.divides(u) for g in I.gens)
        assert I * J == product_by_objects(I, J)
        assert I.power(2) == product_by_objects(I, I)
        assert I.intersect(J) == intersect_by_lcms(I, J)
        assert I.colon(u) == colon_by_objects(I, u)
        assert I.colon_ideal(r.maximal_ideal()) == colon_ideal_by_fold(I, r.maximal_ideal())
        if not J.is_zero():
            assert I.colon_ideal(J) == colon_ideal_by_fold(I, J)
        subset = all(J.contains(g) for g in I.gens)
        assert I.is_subset_of(J) == subset
        assert Subquotient(I + J, J).is_zero() == subset
        seen["subset" if subset else "not subset"] += 1
        seen["zero"] += I.is_zero()
        seen["unit"] += I.is_unit()
        seen["member"] += any(J.contains(g) for g in I.gens)
        seen["lcm pair"] += any(not J.contains(g) for g in I.gens) and any(
            not I.contains(h) for h in J.gens
        )
    assert min(seen.values()) >= 100, seen


def test_equal_ideals_hash_equal_and_share_a_dict_key():
    rnd = random.Random(11)
    for case in range(200):
        r = RingSpec(tuple(f"x{i}" for i in range(1 + case % 4)))
        I, J = random_ideal(rnd, r), random_ideal(rnd, r)
        builds = [
            ideal(r, [str(g) for g in (I * J).gens]),
            minimalize(r, [g * h for g in I.gens for h in J.gens] + list((I * J).gens)),
            I * J,
            J * I,
            (I * J).intersect(J),  # I * J lies in J
        ]
        builds.append(pickle.loads(pickle.dumps(builds[0])))
        memo = {}
        for K in builds:
            assert K == builds[0] and hash(K) == hash(builds[0])
            assert K.gens == tuple(Monomial(K.ring, e) for e in K._exps)
            memo[K] = memo.get(K, 0) + 1
        assert memo == {builds[0]: len(builds)}
        # ideals with the same generators in another ring are a different key
        other = RingSpec(tuple(f"y{i}" for i in range(r.nvars)))
        moved = MonomialIdeal(other, builds[0]._exps)
        assert moved != builds[0] and moved not in memo
        assert hash(moved) != hash(builds[0])
        # so are modules and presented ideals built separately from equal ideals
        for first, second in (
            (Subquotient(builds[0], builds[0] * J), Subquotient(builds[3], builds[3] * J)),
            (PresentedIdeal(builds[0] * J, builds[0]), PresentedIdeal(builds[3] * J, builds[3])),
        ):
            assert first is not second and first == second and hash(first) == hash(second)
            thawed = pickle.loads(pickle.dumps(second))
            assert thawed == first and hash(thawed) == hash(first)


def test_krull_dim_examples():
    r = ring("x", "y")
    assert ideal(r, ["x^2", "y^2"]).krull_dim_quotient() == 0
    assert ideal(r, ["x"]).krull_dim_quotient() == 1
    assert zero_ideal(r).krull_dim_quotient() == 2
    assert unit_ideal(r).krull_dim_quotient() == -1


def test_krull_dim_four_variable_benchmark_ring():
    r = ring("x", "y", "u", "v")
    Q = ideal(r, ["x^7", "x^4*y^3", "x^3*y^4", "y^7", "x*u^6", "y*u^6", "u^6*v"])
    I = ideal(r, ["x*y*v", "u^3"]) + Q
    assert I.krull_dim_quotient() >= 1


def test_degree_accessors():
    r = ring("x", "y", "u", "v")
    I = ideal(r, ["x*y*v", "u^3"])
    assert I.max_gen_degree() == 3
    assert I.lcm_exponents() == (1, 1, 3, 1)
    assert zero_ideal(r).max_gen_degree() == 0
    assert zero_ideal(r).lcm_exponents() == (0, 0, 0, 0)


# ----------------------------------------------- brute-force membership oracle


def _member_set(I: MonomialIdeal, max_degree: int):
    return {m for m in monomials_up_to(I.ring, max_degree) if I.contains(m)}


_small_exps = st.tuples(
    st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)
).filter(lambda e: any(e))
_small_ideal = st.lists(_small_exps, min_size=1, max_size=3)


def _mk(gens):
    r = ring("x", "y", "z")
    return ideal(r, [Monomial(r, e) for e in gens])


@settings(max_examples=25, deadline=None)
@given(_small_ideal, _small_ideal)
def test_sum_product_intersect_against_membership_oracle(ga, gb):
    I, J = _mk(ga), _mk(gb)
    bound = sum(I.lcm_exponents()) + sum(J.lcm_exponents()) + 2
    mi, mj = _member_set(I, bound), _member_set(J, bound)
    assert _member_set(I + J, bound) == mi | mj
    assert _member_set(I.intersect(J), bound) == mi & mj
    product_members = {
        m
        for m in monomials_up_to(I.ring, bound)
        if any(
            g.divides(m) and J.contains(m.colon_factor(g))
            for g in I.gens
        )
    }
    assert _member_set(I * J, bound) == product_members


@settings(max_examples=25, deadline=None)
@given(_small_ideal, _small_exps)
def test_colon_against_membership_oracle(ga, ue):
    I = _mk(ga)
    u = Monomial(I.ring, ue)
    bound = sum(I.lcm_exponents()) + u.degree + 2
    got = I.colon(u)
    expected = {m for m in monomials_up_to(I.ring, bound) if I.contains(m * u)}
    assert _member_set(got, bound) == expected
    # containments: I <= I:u and (I:u)*u <= I
    assert I.is_subset_of(got)
    assert got.scale(u).is_subset_of(I)


@settings(max_examples=15, deadline=None)
@given(_small_ideal, st.integers(1, 2), st.integers(1, 2))
def test_power_additivity(ga, a, b):
    I = _mk(ga)
    assert I.power(a + b) == I.power(a) * I.power(b)


@settings(max_examples=15, deadline=None)
@given(_small_ideal)
def test_saturation_is_a_fixpoint_containing_the_ideal(ga):
    I = _mk(ga)
    m = I.ring.maximal_ideal()
    sat = I.saturate()
    assert I.is_subset_of(sat)
    assert sat.colon_ideal(m) == sat
