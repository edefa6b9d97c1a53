"""The integer kernels agree exactly with plain ``Fraction`` loops.

``fraction_reference`` holds the straightforward ``Fraction`` versions of the
Euler table, Horner evaluation and EGF mul/div; every result here must be
equal to them, not merely close.
"""

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import fraction_reference as ref
from eulersym.egf_series import NonInvertibleSeriesError, egf_div, egf_from_coeffs, egf_mul
from eulersym.euler import euler_eval, euler_number, euler_polynomial

TABLE_MAX = 60

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=40)
# Orders 0..30: a vector holds order + 1 coefficients.
vectors = st.lists(rationals, min_size=1, max_size=31)
# Any nonzero constant term: negative, fractional and non-power-of-2 ones all occur.
constant_terms = rationals.filter(lambda c: c != 0)


@lru_cache(maxsize=1)
def _reference_table():
    return ref.euler_table(TABLE_MAX)


def test_table_rows_match_reference():
    table = _reference_table()
    for n in range(TABLE_MAX + 1):
        assert euler_polynomial(n).coeffs == table[n]
        assert euler_number(n) == table[n][0]


@given(
    st.integers(min_value=0, max_value=TABLE_MAX),
    st.fractions(max_denominator=10**6),
)
@example(0, Fraction(0))
@example(0, Fraction(-7, 3))
@example(TABLE_MAX, Fraction(0))
@example(17, Fraction(1, 2))
def test_euler_eval_matches_reference_horner(n, x):
    assert euler_eval(n, x) == ref.horner(_reference_table()[n], x)


@given(vectors, vectors)
@example([Fraction(1)], [Fraction(-3, 5)])
def test_mul_matches_reference(a, b):
    assert egf_mul(egf_from_coeffs(a), egf_from_coeffs(b)).coeffs == ref.egf_mul(a, b)


@given(vectors, constant_terms, vectors)
@example([Fraction(2)], Fraction(-3), [])
@example([Fraction(1), Fraction(1, 3)], Fraction(5, 7), [Fraction(-2), Fraction(9, 4)])
@example([Fraction(0)] * 31, Fraction(-6), [Fraction(1)] * 30)
def test_div_matches_reference(f, g0, g_tail):
    g = [g0, *g_tail]
    expected = ref.egf_div(f, g)
    assert egf_div(egf_from_coeffs(f), egf_from_coeffs(g)).coeffs == expected


@given(vectors, st.lists(rationals, max_size=3))
def test_div_rejects_zero_constant_term(f, g_tail):
    with pytest.raises(NonInvertibleSeriesError):
        egf_div(egf_from_coeffs(f), egf_from_coeffs([0, *g_tail]))
