"""The integer kernels agree exactly with plain ``Fraction`` loops.

``fraction_reference`` holds the straightforward ``Fraction`` versions of the
Euler table, Horner evaluation, EGF mul/div, the quotient series, the two-
and three-factor identity-term sums and the alternating shifted sums of the
A/D factors; every result here must be equal to them, not merely close.
"""

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import fraction_reference as ref
from eulersym.egf_series import (
    NonInvertibleSeriesError, _over_common_denominator, _quotient, egf_div, egf_from_coeffs,
    egf_mul,
)
from eulersym.euler import euler_eval, euler_number, euler_polynomial
from eulersym.identities import _Table, _alt_vec, _product_vec

TABLE_MAX = 60

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=40)
# Orders 0..30: a vector holds order + 1 coefficients.
vectors = st.lists(rationals, min_size=1, max_size=31)
# Any nonzero constant term: negative, fractional and non-power-of-2 ones all occur.
constant_terms = rationals.filter(lambda c: c != 0)
# Term factors: negative and fractional entries, and 9-digit denominators.
entries = st.one_of(rationals, st.fractions(max_denominator=10**9))


@st.composite
def products(draw, factors):
    """(n, vecs, bases) for a term of the given number of factors; each
    vector holds at least coefficients 0..n and may run past index n."""
    n = draw(st.integers(min_value=0, max_value=12))
    vecs = [draw(st.lists(entries, min_size=n + 1, max_size=n + 3)) for _ in range(factors)]
    bases = [draw(st.integers(min_value=1, max_value=63)) for _ in range(factors)]
    return n, vecs, bases


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


# Quotient rates: 0, and either sign over denominators up to 10^7.
quotient_rates = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(min_value=-10**8, max_value=10**8),
              st.integers(min_value=1, max_value=10**7)),
)
exponents = st.lists(st.integers(min_value=1, max_value=9), max_size=3)


@given(
    st.integers(min_value=-8, max_value=8),
    quotient_rates,
    exponents,
    exponents,
    st.integers(min_value=0, max_value=40),
)
@example(8, Fraction(-9876543, 9999991), [3], [5, 7], 0)  # order 0
# Rates passed as int: L12_1, and L13 with i = 1 at w = 3, 5, 7 and shifts summing to -1.
@example(1, 0, [35, 21, 15], [3, 5, 7], 12)
@example(4, -105, [105], [3, 5, 7], 12)
# L23 with i = 0 at w = 3, 5, 7 and the shifts 1/2, -1/3, 2/7.
@example(8, Fraction(95, 2), [], [35, 21, 15], 40)
def test_quotient_matches_reference(scale, rate, ups, downs, order):
    expected = ref.quotient(scale, rate, ups, downs, order)
    assert _quotient(scale, rate, ups, downs, order).coeffs == expected


@given(st.sampled_from((1, 2, 3)).flatmap(products))
@example((0, [[Fraction(-7, 3)], [Fraction(1, 10**9 - 1)]], [1, 63]))
@example((4, [[Fraction(-1, 3), Fraction(2), Fraction(0), Fraction(5, 7), Fraction(9)]], [35]))
# All-ones factors at base 1 sum the trinomial row: 3^12.
@example((12, [[Fraction(1)] * 13] * 3, [1, 1, 1]))
@example((12, [[Fraction(-1, 3)] * 13, [Fraction(5, 7)] * 13, [Fraction(2)] * 13], [63, 1, 35]))
# The first two factors run past the table's n_max, the third does not.
@example((0, [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)], [Fraction(5)]], [1, 1, 1]))
def test_product_vec_matches_reference(case):
    n, vecs, bases = case
    table = _Table(min(map(len, vecs)) - 1)
    out = _product_vec([_over_common_denominator(vec) for vec in vecs], bases, table)
    assert len(out) == min(map(len, vecs)) >= n + 1
    if len(vecs) == 1:
        expected = [vecs[0][k] * bases[0] ** k for k in range(len(out))]
    elif len(vecs) == 2:
        expected = [ref.binom_sum(k, *vecs, *bases) for k in range(len(out))]
    else:
        expected = [ref.tri_sum(k, *vecs, *bases) for k in range(len(out))]
    assert out == expected


# A/D bases: 0, negative, and 6-digit denominators all occur.
alt_bases = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-9, max_value=0, max_denominator=50),
    st.fractions(min_value=-50, max_value=50, max_denominator=10**6),
)


@given(
    alt_bases,
    st.integers(min_value=1, max_value=81),
    st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=2),
    st.integers(min_value=0, max_value=12),
)
@example(Fraction(0), 1, [1], 0)
@example(Fraction(-7, 3), 81, [9, 9], 12)
@example(Fraction(123457, 999983), 15, [3, 5], 6)
@example(Fraction(-654321, 100003), 7, [7], 12)
def test_alt_vec_matches_reference(base, m, counts, n_max):
    assert _alt_vec(base, m, counts, _Table(n_max).rows) == ref.alt_vec(base, m, counts, n_max)
