from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from eulersym.exact_arith import format_rational, parse_rational


def test_parse_and_format():
    assert parse_rational("2/7") == Fraction(2, 7)
    assert parse_rational("-1/3") == Fraction(-1, 3)
    assert parse_rational(" 4 ") == 4
    assert format_rational(Fraction(-1, 2)) == "-1/2"
    assert format_rational(Fraction(6, 3)) == "2"
    assert format_rational(Fraction(0)) == "0"
    for bad in ("", "1/0", "one", "1/2/3"):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_format_accepts_ints_and_fractions_only():
    assert format_rational(-7) == "-7"
    assert format_rational(Fraction(123457, 999983)) == "123457/999983"
    # Neither the binary expansion of 0.1, nor "True", nor a parsed string.
    for bad in (0.1, True, "1/2", 2.0):
        with pytest.raises(ValueError):
            format_rational(bad)


rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)


@given(rationals, rationals, rationals)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@given(rationals, st.integers(min_value=1, max_value=1000))
def test_canonical_form_is_stable(q, scale):
    rescaled = Fraction(q.numerator * scale, q.denominator * scale)
    assert rescaled.numerator == q.numerator
    assert rescaled.denominator == q.denominator
    assert rescaled.denominator > 0


@given(rationals)
def test_serialization_round_trip(q):
    assert parse_rational(format_rational(q)) == q
