"""Power functions of a presented ideal: modules, values, defects, diagnostics."""
import itertools
import json
import os
import random

import pytest

from regpow import (
    NEG_INF,
    FamilySpec,
    InputError,
    Monomial,
    MonomialIdeal,
    PresentedIdeal,
    RingSpec,
    RingMismatchError,
    StandingHypothesisError,
    Subquotient,
    betti_table,
    build,
    defect_report,
    ideal,
    top_degree,
    quotient_ring,
    unit_ideal,
    verify,
    zero_ideal,
)
from regpow import families, monomials, regfun
from regpow.betti import _betti_table_memo
from regpow.monomials import _minimal

from _corpus import corpus
from _socle_oracle import pivot, socle_top
from conftest import random_ideal, ring, saturate_by_colon_fixpoint, sdeg_by_colon_fold


def _one_dim_instance():
    # k[x,y], Q = (x^3, x*y^2), I = (y^2, Q)/Q  (d = 2, c = (3, 1))
    r = ring("x", "y")
    return PresentedIdeal(ideal(r, ["x^3", "x*y^2"]), ideal(r, ["y^2"]))


def test_standing_hypotheses_checked_at_construction():
    r = ring("x", "y")
    with pytest.raises(StandingHypothesisError):
        PresentedIdeal(ideal(r, ["x"]), ideal(r, ["x^2"]))  # I = 0 in R
    with pytest.raises(StandingHypothesisError):
        PresentedIdeal(zero_ideal(r), unit_ideal(r))  # I = (1)
    with pytest.raises(RingMismatchError):
        PresentedIdeal(zero_ideal(r), ideal(ring("x", "z"), ["x"]))


def test_derived_attributes():
    X = _one_dim_instance()
    assert X.d == 2
    assert X.equigenerated
    assert X.minimal_gen_degrees() == (2,)
    assert X.dim_ring() == 1
    assert X.dim_quotient_by_ideal() == 0
    r = ring("x", "y")
    Y = PresentedIdeal(zero_ideal(r), ideal(r, ["x", "y^2"]))
    assert not Y.equigenerated
    assert Y.d == 2


def test_module_of_kinds():
    X = _one_dim_instance()
    r = X.ring
    quot1 = X.module_of("quotient", 1)
    assert quot1.numerator == unit_ideal(r)
    assert quot1.denominator == ideal(r, ["x^3", "y^2"])
    # I^0/I^1 is literally R/I
    assert X.module_of("diff", 1) == quot1
    pow2 = X.module_of("power", 2)
    assert pow2.numerator == ideal(r, ["y^4"]) + X.quot
    assert pow2.denominator == X.quot
    with pytest.raises(InputError):
        X.module_of("power", 0)
    with pytest.raises(InputError):
        X.module_of("socle", 1)


def test_incremental_power_matches_direct_power():
    """_lifted_power(n), built as (lift^(n-1) + quot) * lift + quot, equals lift^n + quot; J_1 is total."""
    rnd = random.Random(29)
    seen = {
        "zero quot": 0,
        "quot absorbs a lift generator": 0,
        "needs + quot": 0,
        "a generator of J_(n-1) is one of quot's": 0,
    }
    cases = 0
    while cases < 120:
        r = RingSpec(tuple(f"x{i}" for i in range(rnd.randint(1, 4))))
        lift = random_ideal(rnd, r, max_gens=4)
        roll = rnd.random()
        if roll < 0.25:
            quot = zero_ideal(r)
        elif roll < 0.6:
            quot = ideal(r, [rnd.choice(lift.gens)]) + random_ideal(rnd, r, max_exp=4)
        else:
            quot = random_ideal(rnd, r, max_exp=4)
        try:
            X = PresentedIdeal(quot, lift)
        except StandingHypothesisError:
            continue
        cases += 1
        PresentedIdeal._lifted_power.cache_clear()  # an equal earlier case would share the memo
        seen["zero quot"] += quot.is_zero()
        seen["quot absorbs a lift generator"] += any(quot.contains(g) for g in lift.gens)
        order = range(5, 0, -1) if cases % 2 else range(1, 6)  # cold from the top, or upward
        for n in order:
            assert X._lifted_power(n) == lift.power(n) + quot, (X, n)
        assert X._lifted_power(1) is X.total
        # Without the final + quot the recursion would give lift^n + quot * lift.
        seen["needs + quot"] += any(
            X._lifted_power(n - 1) * lift != X._lifted_power(n) for n in range(2, 6)
        )
        # such a generator is not multiplied by lift, its products lying in quot
        seen["a generator of J_(n-1) is one of quot's"] += any(
            set(X._lifted_power(n - 1)._exps) & set(quot._exps) for n in range(2, 6)
        )
    assert min(seen.values()) >= 20, seen


def test_high_power_is_not_a_deep_recursion():
    r = ring("x")
    X = PresentedIdeal(zero_ideal(r), ideal(r, ["x"]))
    assert X._lifted_power(1500) == ideal(r, ["x^1500"])


def test_vanishing_power_violates_standing_hypothesis():
    r = ring("x", "y")
    X = PresentedIdeal(ideal(r, ["x^2"]), ideal(r, ["x"]))
    assert X.module_of("power", 1) is not None
    with pytest.raises(StandingHypothesisError):
        X.module_of("power", 2)
    with pytest.raises(StandingHypothesisError):
        X.sdeg(2)
    with pytest.raises(StandingHypothesisError):
        X.gen_degree(2)


def test_gen_degree_examples():
    r = ring("x", "y")
    powers_of_m = PresentedIdeal(zero_ideal(r), r.maximal_ideal())
    assert [powers_of_m.gen_degree(n) for n in (1, 2, 5)] == [1, 2, 5]
    assert _one_dim_instance().gen_degree(1) == 2


def test_sdeg_of_saturated_power_is_bottom():
    r = ring("x", "y")
    X = PresentedIdeal(zero_ideal(r), ideal(r, ["x"]))
    assert X.sdeg(1) == NEG_INF
    assert X.sdeg(3) == NEG_INF


def test_sdeg_never_saturates(monkeypatch):
    def refuse(self):
        raise AssertionError("sdeg called saturate")

    monkeypatch.setattr(MonomialIdeal, "saturate", refuse)
    X = build(FamilySpec("m2_sdeg"))
    assert tuple(X.sdeg(n) for n in range(1, 6)) == (15, 19, 18, 24, 30)
    X = build(FamilySpec("ehl", r=3))
    assert [X.sdeg(n) for n in range(1, 4)] == [3 * n + 2 for n in range(1, 4)]
    X = build(FamilySpec("cycle", t=3))
    assert [X.sdeg(n) for n in range(1, 4)] == [2, 2, 2]


def _sdeg_by_saturation(power_n):
    """The top degree of sat(J)/J plus one, by the colon fixpoint and a Hilbert walk."""
    return top_degree(Subquotient(saturate_by_colon_fixpoint(power_n), power_n)) + 1


def test_socle_sdeg_matches_saturation_oracle():
    rnd = random.Random(11)
    seen = set()
    cases = 0
    while cases < 300:
        r = RingSpec(tuple(f"x{i}" for i in range(rnd.randint(1, 4))))
        quot = random_ideal(rnd, r, max_exp=4) if rnd.random() < 0.6 else zero_ideal(r)
        try:
            X = PresentedIdeal(quot, random_ideal(rnd, r))
        except StandingHypothesisError:
            continue
        for n in (1, 2):
            try:
                value = X.sdeg(n)
            except StandingHypothesisError:
                break
            power_n = X._lifted_power(n)
            assert value == _sdeg_by_saturation(power_n), (X, n)
            seen.add("non-artinian" if power_n.krull_dim_quotient() > 0 else "artinian")
            seen.add("saturated" if value == NEG_INF else "unsaturated")
            seen.add("quot" if not quot.is_zero() else "no quot")
            cases += 1
    assert seen == {"non-artinian", "artinian", "saturated", "unsaturated", "quot", "no quot"}


# One window per family, two for ehl and cycle, at the sizes the CLI and acceptance tests use.
FAMILY_WINDOWS = (
    (FamilySpec("m2_sdeg"), 5),
    (FamilySpec("m2_reg"), 4),
    (FamilySpec("ehl", r=2), 4),
    (FamilySpec("ehl", r=3), 4),
    (FamilySpec("cycle", t=2), 3),
    (FamilySpec("cycle", t=3), 4),
    (FamilySpec("dim1b", d=2, c=(4, 3, 1)), 6),
    (FamilySpec("dim1", d=1, c=(3, 1)), 6),
    (FamilySpec("one_dim", d=2, c=(3, 1)), 6),
    (FamilySpec("ubiquity3", d=3, e=(9, 5, 2, 2)), 6),
)


def _sdeg_case_kinds(X, J, value) -> set:
    kinds = {
        "artinian" if J.krull_dim_quotient() == 0 else "non-artinian",
        "saturated" if value == NEG_INF else "unsaturated",
        "quot" if not X.quot.is_zero() else "no quot",
    }
    if not all(J.lcm_exponents()):
        kinds.add("variable missing")
    return kinds


def test_sdeg_matches_the_colon_fold():
    rnd = random.Random(9)
    seen = set()
    ideals = 0
    while ideals < 1000:
        r = RingSpec(tuple(f"x{i}" for i in range(rnd.randint(1, 6))))
        quot = random_ideal(rnd, r, max_exp=4) if rnd.random() < 0.5 else zero_ideal(r)
        try:
            X = PresentedIdeal(quot, random_ideal(rnd, r))
        except StandingHypothesisError:
            continue
        ideals += 1
        for n in (1, 2, 3):
            try:
                value = X.sdeg(n)
            except StandingHypothesisError:
                break
            J = X._lifted_power(n)
            assert value == sdeg_by_colon_fold(J), (X, n)
            seen |= _sdeg_case_kinds(X, J, value)
    for spec, n_max in FAMILY_WINDOWS:
        X = build(spec)
        for n in range(1, n_max + 1):
            assert X.sdeg(n) == sdeg_by_colon_fold(X._lifted_power(n)), (spec, n)
    assert seen == {
        "artinian", "non-artinian", "saturated", "unsaturated", "variable missing", "quot", "no quot",
    }


def _socle_cases(rnd):
    """(gens, nvars) pairs: the zero and unit ideals, random ideals, then field-width edges."""
    cases = [([], 1), ([(0,)], 1), ([], 4), ([(0,) * 4], 4)]
    for _ in range(2000):
        nv = rnd.randint(1, 8)
        top = rnd.choice((1, 2, 3, 4, 7, 8, 15, 16))
        gens = [tuple(rnd.randint(0, top) for _ in range(nv)) for _ in range(rnd.randint(1, 12))]
        if rnd.random() < 0.5:  # one pure power per variable makes most of them Artinian
            gens += [tuple(rnd.randint(1, top) if j == i else 0 for j in range(nv)) for i in range(nv)]
        cases.append((_minimal(gens), nv))
    # lcm boxes of degree 7, 8, 15 and 16: the pure powers at the box's corner
    # and generators with two or more variables, which divide none of them
    for box in (7, 8, 15, 16):
        for nv in range(1, 7):
            for _ in range(12):
                cuts = sorted(rnd.sample(range(1, box), nv - 1))
                lcm = [b - a for a, b in zip([0, *cuts], [*cuts, box])]
                gens = [tuple(a if j == i else 0 for j, a in enumerate(lcm)) for i in range(nv)]
                for _ in range(rnd.randint(0, 10)):
                    g = tuple(rnd.randint(0, a) for a in lcm)
                    if sum(map(bool, g)) > 1:
                        gens.append(g)
                cases.append((_minimal(gens), nv))
    # at least as many generators as the box degree, 7, 8, 15, 16, 31 or 32: the count sets the field width
    for nv, d, sizes in ((4, 2, (7, 8)), (3, 5, (15, 16)), (4, 4, (31, 32))):
        level = [e for e in itertools.product(range(d + 1), repeat=nv) if sum(e) == d]
        for size in sizes:
            for _ in range(6):
                cases.append((sorted(rnd.sample(level, size)), nv))
    return cases


def test_packed_socle_search_matches_the_tuple_search():
    seen_top, seen_box, seen_count, values = set(), set(), set(), set()
    for gens, nv in _socle_cases(random.Random(23)):
        value = monomials._socle_top(gens, nv)
        assert value == socle_top(gens, nv), (gens, nv)
        if gens:
            box = sum(map(max, zip(*gens)))
            seen_top.add(max(map(max, gens)))
            seen_box.add(box)
            if len(gens) >= box:
                seen_count.add(len(gens))
        values.add(value == NEG_INF)
    assert {7, 8, 15, 16} <= seen_top & seen_box and {7, 8, 15, 16, 31, 32} <= seen_count
    assert values == {True, False}
    for spec, n_max in (*FAMILY_WINDOWS, (FamilySpec("cycle", t=4), 5)):
        X = build(spec)
        for n in range(1, n_max + 1):
            J = X._lifted_power(n)
            assert monomials._socle_top(J._exps, X.ring.nvars) == socle_top(J._exps, X.ring.nvars), (spec, n)


def test_packed_socle_search_splits_at_the_tuple_pivot(monkeypatch):
    """Every split of the packed search is at the tuple rule's pivot of its node.

    A count field that overflows moves the pivot but need not change the
    value, so the splits are recorded and checked one by one.  m^5 in 8
    variables has 792 generators in a box of degree 40 and 329 non-pure
    generators on each variable, more than a field sized by the box holds.
    """
    calls = []
    split = monomials._split

    def recording(keys, s, k, layout):
        calls.append((keys, layout.shifts.index(s), k, layout))
        return split(keys, s, k, layout)

    monkeypatch.setattr(monomials, "_split", recording)
    m5 = sorted(tuple(c.count(j) for j in range(8)) for c in itertools.combinations_with_replacement(range(8), 5))
    assert len(m5) == 792 and all(sum(0 < g[j] < 5 for g in m5) == 329 for j in range(8))
    splits = 0
    for gens, nv in [(m5, 8), *_socle_cases(random.Random(31))[::4]]:
        calls.clear()
        assert monomials._socle_top(gens, nv) == socle_top(gens, nv), (gens, nv)
        for keys, i, k, layout in calls:
            assert (i, k) == pivot([layout.unpack(g) for g in keys], nv), (gens, nv)
        splits += len(calls)
        if gens is m5:
            assert calls[0][1:3] == (0, 1)
    assert splits > 1000


def test_sdeg_at_the_frontier_runs_no_colon_fold(monkeypatch):
    def refuse(*args):
        raise AssertionError("sdeg folded J : m")

    # the kernel fold where it is defined and wherever regfun might bind it by name
    for module in (monomials, regfun):
        monkeypatch.setattr(module, "_colon_ideal", refuse, raising=False)
    monkeypatch.setattr(MonomialIdeal, "colon_ideal", refuse)
    assert build(FamilySpec("cycle", t=4)).sdeg(5) == 10  # the colon fold's value
    assert build(FamilySpec("cycle", t=5)).sdeg(5) == 2  # sdeg = 2 for n <= t


def test_kernel_ops_and_values_build_no_monomials(monkeypatch):
    monkeypatch.delenv("REGPOW_CACHE", raising=False)  # a disk-cache key is written from `gens`
    X = build(FamilySpec("m2_reg"))
    I, Q, m = X.lift, X.quot, X.ring.maximal_ideal()
    u = I.gens[0]
    # cold memos, so every value below runs the whole path
    regfun.PresentedIdeal._lifted_power.cache_clear()
    _betti_table_memo.cache_clear()
    built = []
    original = Monomial.__post_init__

    def counting(self):
        built.append(self.exponents)
        original(self)

    monkeypatch.setattr(Monomial, "__post_init__", counting)
    I * Q, I + Q, I.intersect(Q), Q.colon(u), Q.colon_ideal(m), Q.saturate(), I.power(3)
    for n in (1, 2, 3):
        X.reg_quotient(n), X.reg_diff(n), X.reg_power(n), X.sdeg(n), X.gen_degree(n)
    assert built == []


def test_sdeg_equals_quotient_regularity_plus_one_in_dimension_zero():
    r = ring("x", "y")
    X = PresentedIdeal(zero_ideal(r), ideal(r, ["x^2", "y^3"]))
    assert X.dim_quotient_by_ideal() == 0
    for n in range(1, 5):
        assert X.sdeg(n) == X.reg_quotient(n) + 1


def test_sdeg_is_read_off_the_top_koszul_degree():
    """sdeg(n) = 1 + max{j - r : beta_{r,j}(S/J_n) != 0}, r the number of variables, in any dimension.

    Tor_r(k, M) is the socle of M shifted by r, and sdeg is one more than the
    top degree of the socle of S/J_n, J_n = lift^n + quot; NEG_INF when the
    row i = r is empty.  This ties the slice search of `_socle_top` to the
    Mayer–Vietoris tree of the Betti table.
    """
    windows = [(case.presented, case.n_max) for case in corpus()]
    windows += [(build(FamilySpec("m2_reg")), 6), (build(FamilySpec("m2_sdeg")), 5),
                (build(FamilySpec("ehl", r=3)), 5), (build(FamilySpec("cycle", t=3)), 3),
                (build(FamilySpec("dim1b", d=2, c=(4, 3, 1))), 5)]
    seen, values = set(), 0
    for X, n_max in windows:
        r = X.ring.nvars
        for n in range(1, n_max + 1):
            entries = betti_table(X.module_of("quotient", n)).entries
            top = max((j - r for i, j in entries if i == r), default=NEG_INF)
            assert X.sdeg(n) == top + 1, (X, n)
            seen.add("saturated" if top == NEG_INF else "unsaturated")
            seen.add("dimension zero" if X.dim_quotient_by_ideal() == 0 else "positive dimension")
            values += 1
    assert values == 274, values
    assert seen == {"saturated", "unsaturated", "dimension zero", "positive dimension"}


def test_regularity_triangle_against_ambient_ring():
    for X in (_one_dim_instance(),):
        reg_ring = X.reg_ring()
        for n in range(1, 5):
            rp, rq = X.reg_power(n), X.reg_quotient(n)
            assert rq <= max(rp - 1, reg_ring)
            if rp != reg_ring:
                assert rq == max(rp - 1, reg_ring)


def test_window_stable_power_function_pins_successive_quotients():
    X = _one_dim_instance()
    values = [X.reg_power(n) for n in range(1, 7)]
    # slope-d window stability with intercept e forces reg I^{n-1}/I^n = dn + e - 1
    d = X.d
    assert all(b - a == d for a, b in zip(values, values[1:]))
    e = values[0] - d
    for n in range(2, 7):
        assert X.reg_diff(n) == d * n + e - 1


def test_defect_report_offsets_and_stability():
    X = _one_dim_instance()
    rep = defect_report(X, "reg_diff", 1, 5)
    assert rep.slope == 2
    assert rep.values == [X.reg_diff(n) for n in range(1, 6)]
    assert rep.defects == [v - 2 * n + 1 for n, v in zip(range(1, 6), rep.values)]
    assert rep.stable_suffix_length >= 3
    assert rep.stabilized_in_window

    rep_pow = defect_report(X, "reg_power", 1, 4)
    assert rep_pow.defects == [v - 2 * n for n, v in zip(range(1, 5), rep_pow.values)]

    rep_quot = defect_report(X, "reg_quotient", 2, 4)
    assert rep_quot.n_from == 2
    assert rep_quot.defects == [
        v - 2 * n + 1 for n, v in zip(range(2, 5), rep_quot.values)
    ]


def test_defect_report_on_non_equigenerated_input():
    r = ring("x", "y")
    X = PresentedIdeal(zero_ideal(r), ideal(r, ["x", "y^2"]))
    rep = defect_report(X, "gen_degree", 1, 3)
    assert rep.slope is None
    assert rep.defects is None
    assert rep.stable_suffix_length == 0


def test_defect_report_encodes_bottom_values():
    r = ring("x", "y")
    X = PresentedIdeal(zero_ideal(r), ideal(r, ["x"]))
    rep = defect_report(X, "sdeg", 1, 3)
    assert rep.values == [NEG_INF] * 3
    assert rep.defects == [None] * 3


def test_defect_report_input_validation():
    X = _one_dim_instance()
    with pytest.raises(InputError):
        defect_report(X, "reg_power", 0, 3)
    with pytest.raises(InputError):
        defect_report(X, "reg_power", 3, 2)
    with pytest.raises(InputError):
        defect_report(X, "socle_degree", 1, 3)


def test_function_dispatch():
    X = _one_dim_instance()
    assert X.function("reg_power")(1) == X.reg_power(1)
    with pytest.raises(InputError):
        X.function("nope")


def test_reg_ring_of_polynomial_ring_is_zero():
    r = ring("x", "y")
    X = PresentedIdeal(zero_ideal(r), ideal(r, ["x^2", "y^2"]))
    assert X.reg_ring() == 0


def _count_replaces(monkeypatch) -> list:
    calls = []
    real_replace = os.replace

    def counting_replace(*args, **kwargs):
        calls.append(args)
        return real_replace(*args, **kwargs)

    monkeypatch.setattr(os, "replace", counting_replace)
    return calls


def test_report_writes_the_disk_cache_once(tmp_path, monkeypatch):
    X = _one_dim_instance()
    expected = defect_report(X, "reg_quotient", 1, 5).values
    cache = tmp_path / "cache.json"
    monkeypatch.setenv("REGPOW_CACHE", str(cache))
    replaces = _count_replaces(monkeypatch)
    assert defect_report(X, "reg_quotient", 1, 5).values == expected
    assert len(replaces) == 1
    assert len(json.loads(cache.read_text())) == 5


def test_report_stopped_by_a_vanishing_power_still_writes_the_disk_cache(tmp_path, monkeypatch):
    r = ring("x", "y")
    X = PresentedIdeal(ideal(r, ["x^3"]), ideal(r, ["x"]))  # I^3 = 0 in R
    cache = tmp_path / "cache.json"
    monkeypatch.setenv("REGPOW_CACHE", str(cache))
    replaces = _count_replaces(monkeypatch)
    with pytest.raises(StandingHypothesisError):
        defect_report(X, "reg_quotient", 1, 5)
    assert len(replaces) == 1
    assert len(json.loads(cache.read_text())) == 2


def test_verify_writes_the_disk_cache_once(tmp_path, monkeypatch):
    spec = FamilySpec("one_dim", d=2, c=(3, 1))
    cache = tmp_path / "cache.json"
    monkeypatch.setenv("REGPOW_CACHE", str(cache))
    replaces = _count_replaces(monkeypatch)
    assert len(verify(spec, "reg_quotient", 1, 6).rows) == 6
    assert len(replaces) == 1
    assert len(json.loads(cache.read_text())) == 6


def test_verify_stopped_by_a_mismatch_still_writes_the_disk_cache_once(tmp_path, monkeypatch):
    real_predict = families.predict

    def off_at_three(spec, function):
        prediction = real_predict(spec, function)
        return lambda n: prediction(n) + (n == 3)

    monkeypatch.setattr(families, "predict", off_at_three)
    cache = tmp_path / "cache.json"
    monkeypatch.setenv("REGPOW_CACHE", str(cache))
    replaces = _count_replaces(monkeypatch)
    report = verify(FamilySpec("one_dim", d=2, c=(3, 1)), "reg_quotient", 1, 6)
    assert not report.ok and len(report.rows) == 3
    assert len(replaces) == 1
    assert len(json.loads(cache.read_text())) == 3
