"""Subquotient modules: Hilbert functions, Artinian detection, top degree."""
import random

import pytest

from regpow import (
    NEG_INF,
    Subquotient,
    basis,
    hilbert,
    ideal,
    ideal_module,
    is_artinian,
    quotient_ring,
    top_degree,
    unit_ideal,
    zero_ideal,
)

from conftest import all_monomials, random_ideal, ring


def test_subquotient_requires_containment():
    r = ring("x", "y")
    with pytest.raises(ValueError):
        Subquotient(ideal(r, ["x"]), ideal(r, ["y"]))


def test_hilbert_of_artinian_quotient():
    r = ring("x", "y")
    M = quotient_ring(ideal(r, ["x^2", "y^2"]))
    assert [hilbert(M, a) for a in range(4)] == [1, 2, 1, 0]


def test_hilbert_of_zero_module_vanishes():
    r = ring("x", "y")
    A = ideal(r, ["x"])
    M = Subquotient(A, A)
    assert M.is_zero()
    assert all(hilbert(M, a) == 0 for a in range(6))


def test_hilbert_negative_degree_is_zero():
    r = ring("x")
    assert hilbert(quotient_ring(zero_ideal(r)), -1) == 0


def test_basis_lists_numerator_monomials_outside_denominator():
    r = ring("x", "y")
    Q = ideal(r, ["x^3", "x*y^2"])
    M = Subquotient(ideal(r, ["y^2"]) + Q, ideal(r, ["y^4"]) + Q)
    got = basis(M, 3)
    assert len(got) == hilbert(M, 3)
    for m in got:
        assert M.numerator.contains(m)
        assert not M.denominator.contains(m)
    for m in all_monomials(r, 3):
        assert (m in got) == (M.numerator.contains(m) and not M.denominator.contains(m))


def test_hilbert_difference_of_cyclic_quotients():
    rnd = random.Random(3)
    r = ring("x", "y", "z")
    for _ in range(20):
        B = random_ideal(rnd, r)
        A = B + random_ideal(rnd, r)
        M = Subquotient(A, B)
        for a in range(6):
            assert hilbert(M, a) == hilbert(quotient_ring(B), a) - hilbert(
                quotient_ring(A), a
            )


def test_hilbert_additivity_along_chains():
    rnd = random.Random(11)
    r = ring("x", "y", "z")
    for _ in range(20):
        B = random_ideal(rnd, r)
        C = B + random_ideal(rnd, r)
        A = C + random_ideal(rnd, r)
        for a in range(6):
            assert hilbert(Subquotient(A, B), a) == hilbert(
                Subquotient(A, C), a
            ) + hilbert(Subquotient(C, B), a)


def test_is_artinian_examples():
    r = ring("x", "y")
    assert is_artinian(quotient_ring(ideal(r, ["x^2", "y^2"])))
    assert not is_artinian(quotient_ring(ideal(r, ["x"])))
    Q = ideal(r, ["x^3", "x*y^2"])
    assert is_artinian(Subquotient(ideal(r, ["y^2"]) + Q, ideal(r, ["y^4"]) + Q))
    assert is_artinian(Subquotient(Q, Q))  # zero module


def test_top_degree_examples():
    r = ring("x", "y")
    assert top_degree(quotient_ring(ideal(r, ["x^2", "y^2"]))) == 2
    A = ideal(r, ["x"])
    assert top_degree(Subquotient(A, A)) == NEG_INF
    with pytest.raises(ValueError):
        top_degree(quotient_ring(ideal(r, ["x"])))


def test_top_degree_of_successive_power_quotient():
    # d=2, c=(3,1): the first successive-power quotient has top degree d + c_0 - 2 = 3
    r = ring("x", "y")
    Q = ideal(r, ["x^3", "x*y^2"])
    M = Subquotient(unit_ideal(r), ideal(r, ["y^2"]) + Q)
    assert top_degree(M) == 3


def test_artinian_top_degree_bounded_by_denominator_lcm():
    rnd = random.Random(13)
    r = ring("x", "y", "z")
    checked = 0
    while checked < 10:
        B = random_ideal(rnd, r)
        A = B + random_ideal(rnd, r)
        M = Subquotient(A, B)
        if B.is_zero() or M.is_zero() or not is_artinian(M):
            continue
        assert top_degree(M) <= B.lcm_degree()
        checked += 1


def test_no_gaps_above_generator_degrees():
    rnd = random.Random(17)
    r = ring("x", "y", "z")
    for _ in range(20):
        B = random_ideal(rnd, r)
        A = B + random_ideal(rnd, r)
        M = Subquotient(A, B)
        seen_zero_at = None
        for a in range(A.max_gen_degree(), A.max_gen_degree() + 8):
            if hilbert(M, a) == 0:
                seen_zero_at = a
            elif seen_zero_at is not None:
                pytest.fail(f"gap in Hilbert function at degree {seen_zero_at}")


def test_ideal_module_helper():
    r = ring("x", "y")
    M = ideal_module(ideal(r, ["x"]))
    assert M.denominator.is_zero()
    assert hilbert(M, 1) == 1
