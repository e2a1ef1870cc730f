"""Window properties of the power functions on the seeded randomized corpus."""
from regpow import (
    is_artinian,
    regularity,
    top_degree,
)

from _corpus import CORPUS_SIZE, corpus


def test_corpus_is_large_and_equigenerated():
    cases = corpus()
    assert len(cases) >= CORPUS_SIZE
    for case in cases:
        assert case.presented.equigenerated
        assert case.presented.ring.nvars <= 4
        assert case.d <= 4
        assert case.n_max >= 3


def test_successive_quotient_regularity_lower_bound():
    for case in corpus():
        if not case.ht_positive:
            continue
        for n, value in enumerate(case.reg_diff, start=1):
            assert value >= case.d * n - 1, (case.presented, n)


def test_quotient_regularity_lower_bound():
    for case in corpus():
        if not case.ht_positive:
            continue
        for n, value in enumerate(case.reg_quotient, start=1):
            assert value >= case.d * n - 1, (case.presented, n)


def test_diff_defects_weakly_decrease_in_dimension_zero():
    for case in corpus():
        if not case.dim_zero:
            continue
        c = [v - case.d * n + 1 for n, v in enumerate(case.reg_diff, start=1)]
        assert all(a >= b for a, b in zip(c, c[1:])), (case.presented, c)


def test_quotient_defect_steps_bounded_in_dimension_zero():
    for case in corpus():
        if not case.dim_zero:
            continue
        a = [v - case.d * n + 1 for n, v in enumerate(case.reg_quotient, start=1)]
        assert all(x - y <= case.d for x, y in zip(a, a[1:])), (case.presented, a)


def test_sdeg_matches_quotient_regularity_in_dimension_zero():
    for case in corpus():
        if not case.dim_zero:
            continue
        for rq, sd in zip(case.reg_quotient, case.sdeg):
            assert sd == rq + 1, case.presented


def test_artinian_koszul_regularity_equals_top_degree_on_corpus():
    checked = 0
    for case in corpus():
        for kind in ("power", "quotient", "diff"):
            M = case.presented.module_of(kind, 1)
            if M.is_zero() or not is_artinian(M):
                continue
            assert regularity(M) == top_degree(M), (case.presented, kind)
            checked += 1
    assert checked >= 5


def test_search_bound_has_slack_on_corpus():
    from regpow import betti_table

    for case in corpus()[:20]:
        for kind in ("power", "quotient", "diff"):
            table = betti_table(case.presented.module_of(kind, 1))
            assert all(j < table.search_bound for (_, j) in table.entries)
