from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from eulersym.altsum import alt_power_sum, alt_power_sum_closed
from eulersym.cli import SweepConfig
from eulersym.egf_series import (
    egf_coeff, egf_exp, egf_one, lambda_series, quotient_alternating,
)
from eulersym.euler import (
    euler_eval, euler_number, euler_polynomial, euler_polynomials_up_to, euler_values,
    scaled_numbers,
)
from eulersym.exact_arith import format_rational, parse_rational
from eulersym.identities import check_case, eval_variant, variant_values


def test_parse_and_format():
    assert parse_rational("2/7") == Fraction(2, 7)
    assert parse_rational("-1/3") == Fraction(-1, 3)
    assert parse_rational(" 4 ") == 4
    assert format_rational(Fraction(-1, 2)) == "-1/2"
    assert format_rational(Fraction(6, 3)) == "2"
    assert format_rational(Fraction(0)) == "0"
    for bad in ("", "1/0", "one", "1/2/3", "0.5", "1e-1", "1_0", "\u0663", "1 / 2"):
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


# Every public boundary that takes a degree, index or order: the function
# of the bad value, and the parameter's name in the error.
COUNT_BOUNDARIES = {
    "euler_eval": (lambda v: euler_eval(v, 0), "n"),
    "euler_number": (euler_number, "n"),
    "euler_polynomial": (euler_polynomial, "n"),
    "euler_polynomials_up_to": (euler_polynomials_up_to, "n_max"),
    "euler_values": (lambda v: euler_values(0, v), "n_max"),
    "scaled_numbers": (scaled_numbers, "n_max"),
    "alt_power_sum k": (lambda v: alt_power_sum(v, 3), "k"),
    "alt_power_sum n": (lambda v: alt_power_sum(2, v), "n"),
    "alt_power_sum_closed k": (lambda v: alt_power_sum_closed(v, 3), "k"),
    "alt_power_sum_closed n": (lambda v: alt_power_sum_closed(2, v), "n"),
    "egf_exp": (lambda v: egf_exp(1, v), "order"),
    "egf_one": (egf_one, "order"),
    "quotient_alternating": (lambda v: quotient_alternating(3, v), "order"),
    "lambda_series": (lambda v: lambda_series("L23", 2, (1, 3, 5), (0,), order=v), "order"),
    "egf_coeff": (lambda v: egf_coeff(egf_exp(1, 3), v), "k"),
    "variant_values": (lambda v: variant_values("T8", v, (3, 5, 7), (0,)), "n"),
    "check_case": (lambda v: check_case("T8", v, (3, 5, 7), (0,)), "n"),
    "eval_variant": (lambda v: eval_variant("T8", 0, v, (3, 5, 7), (0,)), "n"),
    "SweepConfig n_max": (lambda v: SweepConfig(("T8",), (1, 3), v, (0,)), "n_max"),
}


@pytest.mark.parametrize("bad", [True, 2.0, -1, "3"], ids=["True", "2.0", "-1", "str"])
@pytest.mark.parametrize("boundary", COUNT_BOUNDARIES)
def test_count_rule_at_every_boundary(boundary, bad):
    # One rule, one message: a non-bool int >= 0, else a ValueError naming
    # the parameter.  A negative coefficient index is out of range instead.
    call, name = COUNT_BOUNDARIES[boundary]
    if boundary == "egf_coeff" and bad == -1:
        with pytest.raises(IndexError):
            call(bad)
    else:
        with pytest.raises(ValueError, match=f"^{name} must"):
            call(bad)
