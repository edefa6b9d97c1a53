from fractions import Fraction
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from eulersym.exact_arith import format_rational, multinomial3, parse_rational


def _pascal_triangle(n_max):
    rows = [[1]]
    for _ in range(n_max):
        prev = rows[-1]
        rows.append(
            [1] + [prev[j] + prev[j + 1] for j in range(len(prev) - 1)] + [1]
        )
    return rows


def test_multinomial3_examples():
    import math

    assert multinomial3(3, 1, 1, 1) == 6 == math.factorial(3)
    assert multinomial3(4, 4, 0, 0) == 1
    assert multinomial3(4, 2, 1, 1) == 12
    # factorial-definition oracle
    for n in range(9):
        for k in range(n + 1):
            for l in range(n - k + 1):
                m = n - k - l
                expected = math.factorial(n) // (
                    math.factorial(k) * math.factorial(l) * math.factorial(m)
                )
                assert multinomial3(n, k, l, m) == expected


def test_multinomial3_rejects_bad_composition():
    with pytest.raises(ValueError):
        multinomial3(4, 2, 1, 2)
    with pytest.raises(ValueError):
        multinomial3(3, -1, 2, 2)


def test_multinomial3_factors_through_binomials():
    for n in range(13):
        for k in range(n + 1):
            for l in range(n - k + 1):
                m = n - k - l
                assert multinomial3(n, k, l, m) == comb(n, k) * comb(n - k, l)


def test_multinomial3_row_sums_are_powers_of_three():
    for n in range(13):
        total = sum(
            multinomial3(n, k, l, n - k - l)
            for k in range(n + 1)
            for l in range(n - k + 1)
        )
        assert total == 3**n


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
