"""Built-in families: builder output, closed-form predictors, and verification."""
import pytest

from regpow import (
    FamilySpec,
    InputError,
    NoClosedFormError,
    build,
    ideal,
    parse_monomial,
    predict,
    verify,
    zero_ideal,
)
from regpow.families import supported_predictions, trim_constant_tail

from conftest import ring


def test_family_spec_rejects_unknown_family():
    with pytest.raises(InputError):
        FamilySpec("moebius")


def test_family_spec_rejects_parameters_its_family_does_not_take():
    with pytest.raises(InputError, match="does not take parameter d"):
        FamilySpec("ehl", r=2, d=5)
    with pytest.raises(InputError, match="does not take parameter t"):
        FamilySpec("m2_reg", t=1)
    with pytest.raises(InputError, match="does not take parameter e"):
        FamilySpec("one_dim", d=2, c=(3, 1), e=(2,))
    assert FamilySpec("ubiquity3", d=2, e=(2, 0)).e == (2, 0)


def test_trim_constant_tail():
    assert trim_constant_tail((4, 2, 2, 2)) == (4, 2)
    assert trim_constant_tail((3,)) == (3,)
    assert trim_constant_tail((2, 2)) == (2,)


def test_one_dim_builder_output():
    X = build(FamilySpec("one_dim", d=2, c=(3, 1)))
    r = X.ring
    assert r.variables == ("x", "y")
    assert X.quot == ideal(r, ["x^3", "x*y^2"])
    assert X.lift == ideal(r, ["y^2"])
    assert X.d == 2
    assert X.dim_ring() == 1


def test_one_dim_builder_validation():
    with pytest.raises(InputError):
        build(FamilySpec("one_dim", d=0, c=(3, 1)))
    with pytest.raises(InputError):
        build(FamilySpec("one_dim", d=2, c=()))
    with pytest.raises(InputError):
        build(FamilySpec("one_dim", d=2, c=(1, 3)))  # not weakly decreasing
    with pytest.raises(InputError):
        build(FamilySpec("one_dim", d=2, c=(3, 0)))


def test_dim1_builders():
    X = build(FamilySpec("dim1", d=1, c=(3, 1)))
    assert X.ring.variables == ("x1", "x2", "y1")
    assert X.dim_quotient_by_ideal() == 1
    Y = build(FamilySpec("dim1b", d=1, c=(3, 1)))
    assert Y.quot.contains(parse_monomial(Y.ring, "x1*x2"))
    assert not X.quot.contains(parse_monomial(X.ring, "x1*x2"))
    with pytest.raises(InputError):
        build(FamilySpec("dim1", d=1, c=(3,)))  # constant c has no y block


def test_ehl_builder_output():
    X = build(FamilySpec("ehl", r=2))
    rg = X.ring
    assert rg.variables == ("x0", "x1", "x2")
    assert X.quot == zero_ideal(rg)
    assert X.lift == ideal(
        rg, ["x0^3", "x0*x1^2", "x0*x2^2", "x0^2*x1*x2"]
    )
    with pytest.raises(InputError):
        build(FamilySpec("ehl", r=0))


def test_cycle_builder_output():
    X = build(FamilySpec("cycle", t=1))
    rg = X.ring
    assert rg.variables == ("x0", "x1", "x2", "x3")
    assert X.quot == ideal(rg, ["x0^2", "x0*x1", "x0*x2", "x0*x3"])
    assert X.lift == ideal(rg, ["x1*x2", "x2*x3", "x3*x1"])
    assert X.d == 2
    with pytest.raises(InputError):
        build(FamilySpec("cycle", t=0))


def test_benchmark_builders_match_their_displays():
    A = build(FamilySpec("m2_reg"))
    assert A.ring.variables == ("x", "y", "u", "v")
    assert A.quot == ideal(
        A.ring, ["x^7", "x^4*y^3", "x^3*y^4", "y^7", "x*u^6", "y*u^6", "u^6*v"]
    )
    assert A.lift == ideal(A.ring, ["x*y*v", "u^3"])
    B = build(FamilySpec("m2_sdeg"))
    assert B.quot == ideal(
        B.ring, ["x^6", "x^3*y^3", "y^6", "x*u^5", "y*u^5", "u^5*v"]
    )
    assert B.lift == ideal(B.ring, ["x*y*v^4", "u^6"])


def test_ubiquity3_builder_validation():
    with pytest.raises(InputError):
        build(FamilySpec("ubiquity3", d=2, e=(1, 2)))  # increasing
    with pytest.raises(InputError):
        build(FamilySpec("ubiquity3", d=3, e=(4, 2, 0)))  # step < d before tail
    with pytest.raises(InputError):
        build(FamilySpec("ubiquity3", d=2, e=(2, -1)))


def test_ubiquity3_small_round_trip():
    spec = FamilySpec("ubiquity3", d=2, e=(2, 0))
    X = build(spec)
    p = predict(spec, "reg_power")
    for n in range(1, 4):
        assert X.reg_power(n) == p(n)
    # defect of reg_power equals the requested sequence (tail extended)
    assert [X.reg_power(n) - 2 * n for n in range(1, 4)] == [2, 0, 0]


def test_one_dim_predictors():
    spec = FamilySpec("one_dim", d=2, c=(3, 1))
    reg_diff = predict(spec, "reg_diff")
    assert [reg_diff(n) for n in (1, 2, 3)] == [3, 3, 5]
    reg_power = predict(spec, "reg_power")
    assert [reg_power(n) for n in (1, 2, 3)] == [2, 4, 6]
    reg_quot = predict(spec, "reg_quotient")
    assert [reg_quot(n) for n in (1, 2, 3)] == [3, 3, 5]


def test_ehl_predictor():
    p = predict(FamilySpec("ehl", r=3), "sdeg")
    assert [p(n) for n in (1, 2, 3)] == [5, 8, 11]


def test_unsupported_prediction_raises():
    with pytest.raises(NoClosedFormError):
        predict(FamilySpec("cycle", t=2), "reg_power")
    with pytest.raises(NoClosedFormError):
        predict(FamilySpec("one_dim", d=2, c=(3, 1)), "sdeg")
    with pytest.raises(NoClosedFormError):
        predict(FamilySpec("m2_reg"), "reg_power")


def test_sdeg_closed_form_gate_for_dim1b():
    # c_0 > c_1 + d violates the gate
    with pytest.raises(NoClosedFormError):
        predict(FamilySpec("dim1b", d=1, c=(4, 1)), "sdeg")
    p = predict(FamilySpec("dim1b", d=2, c=(3, 1)), "sdeg")
    assert p(1) == 2 * 1 + 3 - 1


def test_supported_predictions():
    assert supported_predictions(FamilySpec("one_dim", d=2, c=(3, 1))) == (
        "reg_power",
        "reg_quotient",
        "reg_diff",
    )
    assert supported_predictions(FamilySpec("ehl", r=2)) == ("sdeg",)
    assert supported_predictions(FamilySpec("m2_reg")) == ()


def test_verify_all_pass():
    assert verify(FamilySpec("one_dim", d=2, c=(3, 1)), "reg_diff", 1, 6).ok
    assert verify(FamilySpec("ehl", r=2), "sdeg", 1, 4).ok


def test_verify_negative_control_stops_at_first_mismatch(monkeypatch):
    import regpow.families as fam

    spec = FamilySpec("one_dim", d=2, c=(3, 1))
    good = fam.predict

    def corrupted(s, function):
        p = good(s, function)
        return lambda n: p(n) + 1

    monkeypatch.setattr(fam, "predict", corrupted)
    report = fam.verify(spec, "reg_diff", 1, 6)
    assert not report.ok
    assert len(report.rows) == 1
    assert report.rows[0].n == 1


def test_verify_range_validation():
    with pytest.raises(InputError):
        verify(FamilySpec("ehl", r=2), "sdeg", 0, 3)
    with pytest.raises(InputError):
        verify(FamilySpec("ehl", r=2), "sdeg", 3, 1)
