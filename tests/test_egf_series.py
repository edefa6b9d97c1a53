from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from eulersym.altsum import alt_power_sum
from eulersym.egf_series import (
    NonInvertibleSeriesError,
    TruncatedEGF,
    egf_add,
    egf_coeff,
    egf_div,
    egf_exp,
    egf_from_coeffs,
    egf_mul,
    egf_one,
    egf_scale,
    lambda_series,
    quotient_alternating,
)
from eulersym.euler import euler_number, euler_values


def test_exp_atoms():
    assert egf_exp(0, 4).coeffs == (1, 0, 0, 0, 0)
    assert egf_exp(1, 3).coeffs == (1, 1, 1, 1)
    assert egf_exp(Fraction(2, 3), 2).coeffs == (1, Fraction(2, 3), Fraction(4, 9))


def test_mul_adds_exponents():
    e1 = egf_exp(1, 8)
    assert egf_mul(e1, e1).coeffs == egf_exp(2, 8).coeffs
    e23 = egf_exp(Fraction(2, 3), 6)
    e13 = egf_exp(Fraction(1, 3), 6)
    assert egf_mul(e23, e13).coeffs == egf_exp(1, 6).coeffs


def test_add_and_scale():
    e = egf_exp(1, 5)
    zero = egf_add(e, egf_scale(e, -1))
    assert all(c == 0 for c in zero.coeffs)


def test_order_is_minimum_of_operands():
    a = egf_exp(1, 8)
    b = egf_exp(2, 3)
    assert egf_add(a, b).order == 3
    assert egf_mul(a, b).order == 3
    assert egf_div(a, b).order == 3


def test_division_yields_euler_numbers():
    two = egf_scale(egf_one(4), 2)
    denom = egf_add(egf_exp(1, 4), egf_one(4))
    quotient = egf_div(two, denom)
    assert quotient.coeffs == (1, Fraction(-1, 2), 0, Fraction(1, 4), 0)
    deeper = egf_div(egf_scale(egf_one(24), 2), egf_add(egf_exp(1, 24), egf_one(24)))
    for n in range(25):
        assert deeper.coeffs[n] == euler_number(n)


def test_division_round_trip_fixed():
    f = egf_exp(Fraction(3, 2), 24)
    g = egf_add(egf_exp(2, 24), egf_one(24))
    assert egf_mul(egf_div(f, g), g).coeffs == f.coeffs


small_coeffs = st.lists(
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
    min_size=1,
    max_size=9,
)


@given(small_coeffs, small_coeffs)
def test_division_round_trip_random(f_coeffs, g_coeffs):
    g_coeffs = list(g_coeffs)
    if g_coeffs[0] == 0:
        g_coeffs[0] = Fraction(1)
    f = egf_from_coeffs(f_coeffs)
    g = egf_from_coeffs(g_coeffs)
    n = min(f.order, g.order)
    assert egf_mul(egf_div(f, g), g).coeffs == f.coeffs[: n + 1]


def test_non_invertible_division_rejected():
    f = egf_exp(1, 4)
    g = egf_from_coeffs([0, 1, 1])
    with pytest.raises(NonInvertibleSeriesError):
        egf_div(f, g)


def test_coeff_access():
    assert egf_coeff(egf_exp(2, 5), 3) == 8
    assert egf_coeff(quotient_alternating(3, 4), 1) == 1  # T_1(2)
    zero = egf_scale(egf_one(5), 0)
    assert egf_coeff(zero, 4) == 0
    with pytest.raises(IndexError):
        egf_coeff(egf_exp(1, 3), 4)
    with pytest.raises(IndexError):
        egf_coeff(egf_exp(1, 3), -1)


@pytest.mark.parametrize("k", [True, 1.0, Fraction(1)], ids=["True", "1.0", "Fraction"])
def test_coeff_rejects_non_int_index(k):
    # Not read as index 1, and never a TypeError from the tuple index.
    with pytest.raises(ValueError, match="^k must"):
        egf_coeff(egf_exp(2, 3), k)


def test_quotient_alternating_examples():
    unit = quotient_alternating(1, 6)
    assert unit.coeffs == (1, 0, 0, 0, 0, 0, 0)
    assert quotient_alternating(3, 2).coeffs == (1, 1, 3)
    assert quotient_alternating(5, 1).coeffs == (1, 2)


def test_quotient_alternating_matches_power_sums():
    for w in (1, 3, 5, 7, 9):
        series = quotient_alternating(w, 24)
        for k in range(25):
            assert series.coeffs[k] == alt_power_sum(k, w - 1)


def test_quotient_alternating_rejects_even_w():
    for w in (0, 2, 4, -3):
        with pytest.raises(ValueError):
            quotient_alternating(w, 4)


def test_lambda_series_unit_cases():
    unit = egf_one(10).coeffs
    assert lambda_series("L12_1", None, (1, 1, 1), (), order=10).coeffs == unit
    assert lambda_series("L23", 3, (1, 1, 1), (), order=10).coeffs == unit


def test_lambda_series_l23_from_factor_product():
    # Rebuild the i = 1 member the long way: the product of two shifted
    # Euler-polynomial factor series and one alternating power-sum factor,
    # each rescaled by its weight product.  This path never divides.
    order = 8
    w1, w2, w3 = 3, 5, 1
    y1, y2 = Fraction(1, 2), Fraction(-1, 3)

    def scaled(values, ratio):
        return egf_from_coeffs([v * ratio**k for k, v in enumerate(values)])

    f1 = scaled(euler_values(w1 * y1, order), w2 * w3)
    f2 = scaled(euler_values(w2 * y2, order), w1 * w3)
    f3 = scaled([alt_power_sum(m, w3 - 1) for m in range(order + 1)], w1 * w2)
    product = egf_mul(egf_mul(f1, f2), f3)
    direct = lambda_series("L23", 1, (w1, w2, w3), (y1, y2), order=order)
    assert product.coeffs == direct.coeffs


def test_lambda_series_l12_0_from_factor_product():
    order = 8
    w1, w2, w3 = 2, 3, 4
    y = Fraction(1, 2)

    def scaled(values, ratio):
        return egf_from_coeffs([v * ratio**k for k, v in enumerate(values)])

    f1 = scaled(euler_values(w2 * y, order), w1)
    f2 = scaled(euler_values(w3 * y, order), w2)
    f3 = scaled(euler_values(w1 * y, order), w3)
    product = egf_mul(egf_mul(f1, f2), f3)
    direct = lambda_series("L12_0", None, (w1, w2, w3), (y,), order=order)
    assert product.coeffs == direct.coeffs


def test_lambda_series_permutation_invariance():
    order = 6
    grids = {
        "L23": (0, (Fraction(1, 2), Fraction(-1, 3), Fraction(2, 7))),
        "L13": (2, (Fraction(1, 2),)),
        "L12_0": (None, (Fraction(-1, 3),)),
        "L12_1": (None, ()),
    }
    for family, (i, y) in grids.items():
        w = (2, 3, 4) if family in ("L23", "L12_0") and (i in (0, None)) else (1, 3, 5)
        reference = lambda_series(family, i, w, y, order=order).coeffs
        for perm in permutations(w):
            assert lambda_series(family, i, perm, y, order=order).coeffs == reference


def test_lambda_series_substitution_relation():
    # Substituting the pairwise products for the weights in the L23 family
    # rescales the L13 series: coefficient n picks up (w1 w2 w3)^n.
    order = 8
    for w in ((1, 1, 3), (1, 3, 5), (3, 3, 5)):
        w1, w2, w3 = w
        big = w1 * w2 * w3
        for i in range(4):
            y = (Fraction(1, 3), Fraction(-1, 2), Fraction(2, 7))[: 3 - i]
            substituted = lambda_series(
                "L23", i, (w2 * w3, w1 * w3, w1 * w2), y, order=order
            )
            plain = lambda_series("L13", i, w, y, order=order)
            for n in range(order + 1):
                assert substituted.coeffs[n] == big**n * plain.coeffs[n]


def test_lambda_series_validation():
    with pytest.raises(ValueError):
        lambda_series("L99", 0, (1, 1, 1), (Fraction(0),) * 3)
    with pytest.raises(ValueError):
        lambda_series("L23", None, (1, 1, 1), ())
    with pytest.raises(ValueError):
        lambda_series("L23", 4, (1, 1, 1), ())
    with pytest.raises(ValueError):
        lambda_series("L23", 1, (1, 2, 3), (Fraction(0), Fraction(0)))  # even w
    with pytest.raises(ValueError):
        lambda_series("L12_1", None, (1, 2, 1), ())
    with pytest.raises(ValueError):
        lambda_series("L23", 0, (1, 1, 1), (Fraction(0),))  # wrong y arity
    with pytest.raises(ValueError):
        lambda_series("L12_0", 1, (1, 1, 1), (Fraction(0),))  # wrong sub-index
    with pytest.raises(ValueError):
        lambda_series("L23", 0, (0, 1, 1), (Fraction(0),) * 3)
    # even weights are fine where no alternating expansion is involved
    lambda_series("L23", 0, (2, 4, 6), (Fraction(0),) * 3, order=3)
    lambda_series("L12_0", None, (2, 4, 6), (Fraction(1),), order=3)


@pytest.mark.parametrize("bad", [Fraction(5, 2), 2.9, True])
def test_lambda_series_rejects_non_integral_weights(bad):
    # Neither truncated (5/2 -> 2, 2.9 -> 2) nor read as a number (True -> 1).
    with pytest.raises(ValueError):
        lambda_series("L23", 0, (bad, 3, 1), (0, 0, 0))


@pytest.mark.parametrize("bad", [0.1, True, "1/2"])
def test_lambda_series_rejects_inexact_shifts(bad):
    with pytest.raises(ValueError):
        lambda_series("L12_0", None, (1, 3, 5), (bad,))


@pytest.mark.parametrize(
    "call",
    [
        lambda: lambda_series("L23", True, (1, 3, 5), (0, 0)),  # not read as i = 1
        lambda: lambda_series("L23", 2.0, (1, 3, 5), (0,)),
        lambda: lambda_series("L12_0", False, (1, 3, 5), (0,)),
        lambda: lambda_series("L12_0", 0.0, (1, 3, 5), (0,)),
        lambda: lambda_series("L12_1", True, (1, 3, 5), ()),
        lambda: lambda_series("L23", 2, (1, 3, 5), (0,), order=3.0),
        lambda: lambda_series("L23", 2, (1, 3, 5), (0,), order=True),
        lambda: quotient_alternating(True, 3),  # not the w = 1 series
        lambda: quotient_alternating(3.0, 3),
        lambda: quotient_alternating(3, 3.0),
    ],
    ids=["i=True", "i=2.0", "L12_0 i=False", "L12_0 i=0.0", "L12_1 i=True",
         "order=3.0", "order=True", "w=True", "w=3.0", "alt order=3.0"],
)
def test_series_reject_non_int_arguments(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("call", [lambda: egf_exp(1, True), lambda: egf_exp(1, 2.0),
                                  lambda: egf_one(True)], ids=["exp", "exp 2.0", "one"])
def test_exp_and_one_reject_non_int_order(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: egf_exp(0.1, 2),  # not the binary float's exact powers
        lambda: egf_exp("1/2", 2),  # not parsed
        lambda: egf_exp(True, 2),  # not read as e^t
        lambda: egf_scale(egf_one(2), "1/3"),
        lambda: egf_scale(egf_one(2), 0.5),
        lambda: egf_scale(egf_one(2), True),
        lambda: egf_from_coeffs([0.1]),
        lambda: egf_from_coeffs(["1/2"]),
        lambda: egf_from_coeffs([True]),
        lambda: egf_from_coeffs([1, Fraction(1, 2), 0.25]),
    ],
    ids=["exp 0.1", "exp str", "exp True", "scale str", "scale 0.5", "scale True",
         "coeffs 0.1", "coeffs str", "coeffs True", "coeffs mixed"],
)
def test_constructors_reject_inexact_values(call):
    with pytest.raises(ValueError):
        call()


def test_constructors_keep_exact_values():
    assert egf_exp(-2, 2).coeffs == (1, -2, 4)
    assert egf_scale(egf_exp(Fraction(1, 2), 1), Fraction(2, 3)).coeffs == (
        Fraction(2, 3), Fraction(1, 3))
    assert egf_from_coeffs([1, Fraction(-1, 2)]).coeffs == (1, Fraction(-1, 2))


def test_truncated_egf_validation():
    with pytest.raises(ValueError):
        TruncatedEGF(())
    with pytest.raises(ValueError):
        egf_exp(1, -1)
