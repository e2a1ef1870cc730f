"""Ideal-spec file format: parsing, error reporting, canonical serialization."""
import pytest

from regpow import (
    FamilySpec,
    ParseError,
    StandingHypothesisError,
    build,
    ideal,
    parse_spec,
    serialize,
)

from conftest import ring


def test_parse_full_file():
    X = parse_spec("ring x y\nquot x^3 x*y^2\nideal y^2\n")
    assert X.ring.variables == ("x", "y")
    assert X.quot == ideal(X.ring, ["x^3", "x*y^2"])
    assert X.lift == ideal(X.ring, ["y^2"])
    assert X == build(FamilySpec("one_dim", d=2, c=(3, 1)))


def test_parse_minimal_file_without_quot():
    X = parse_spec("ring x\nideal x\n")
    assert X.quot.is_zero()
    assert X.lift == ideal(X.ring, ["x"])


def test_parse_tolerates_comments_and_blank_lines():
    text = "# header\n\nring x y  # two variables\n  ideal x*y   # one generator\n\n"
    X = parse_spec(text)
    assert X.lift == ideal(X.ring, ["x*y"])


def _parse_error(text):
    with pytest.raises(ParseError) as exc:
        parse_spec(text)
    return exc.value


def test_parse_error_unknown_variable():
    err = _parse_error("ring x y\nideal z\n")
    assert err.line == 2
    assert "z" in err.reason


def test_parse_error_positions():
    err = _parse_error("ring x y\nquot x^3\nideal x^\n")
    assert (err.line, err.column) == (3, 7)
    assert _parse_error("ideal x\n").line == 1
    assert "ring" in _parse_error("ideal x\n").reason
    assert _parse_error("ring x x\nideal x\n").reason == "duplicate variable name"
    assert "ideal" in _parse_error("ring x\nquot x\n").reason
    assert "empty" in _parse_error("ring x\nideal\n").reason
    assert _parse_error("").reason == "empty spec file"
    err = _parse_error("ring x\nideal x\nextra line\n")
    assert err.line == 3


def test_parse_rejects_standing_hypothesis_violations():
    with pytest.raises(StandingHypothesisError):
        parse_spec("ring x\nquot x\nideal x^2\n")  # I = 0 in R
    with pytest.raises(StandingHypothesisError):
        parse_spec("ring x\nideal 1\n")  # unit ideal


def test_serialize_canonical_form():
    X = build(FamilySpec("one_dim", d=2, c=(3, 1)))
    assert serialize(X) == "ring x y\nquot x*y^2 x^3\nideal y^2\n"
    Y = parse_spec("ring x\nideal x\n")
    assert serialize(Y) == "ring x\nideal x\n"


def test_round_trip_is_byte_identical():
    specs = [
        FamilySpec("one_dim", d=2, c=(3, 1)),
        FamilySpec("dim1", d=1, c=(3, 1)),
        FamilySpec("dim1b", d=2, c=(4, 2, 1)),
        FamilySpec("ehl", r=2),
        FamilySpec("cycle", t=1),
        FamilySpec("m2_reg"),
        FamilySpec("m2_sdeg"),
        FamilySpec("ubiquity3", d=2, e=(2, 0)),
    ]
    for spec in specs:
        text = serialize(build(spec))
        assert serialize(parse_spec(text)) == text
        assert parse_spec(text) == build(spec)


def test_parse_normalizes_to_minimal_generators():
    X = parse_spec("ring x y\nideal x x*y x^2\n")
    assert X.lift == ideal(X.ring, ["x"])


@pytest.mark.parametrize(
    "names, column",
    [("1 x", 6), ("x y^2", 8), ("a*b x", 6), ("x 1", 8)],
)
def test_ring_rejects_names_a_monomial_cannot_write(names, column):
    """`1`, or a name with `*` or `^`, would serialize to a different ideal (or none)."""
    err = _parse_error(f"ring {names}\nquot x^2\nideal x\n")
    assert (err.line, err.column) == (1, column)
    assert "variable name" in err.reason

