from fractions import Fraction

import pytest

from eulersym.altsum import alt_power_sum, alt_power_sum_closed
from eulersym.egf_series import egf_add, egf_exp, egf_scale


def _direct(k, n):
    # the defining sum, written independently of the implementation
    return sum((-1) ** i * i**k for i in range(n + 1))


def test_base_case_rows():
    # k = 0 row alternates 1, 0, 1, 0, ... in n
    for n in range(20):
        assert alt_power_sum(0, n) == (1 if n % 2 == 0 else 0)
    # n = 0 column is 1, 0, 0, ... in k
    assert alt_power_sum(0, 0) == 1
    for k in range(1, 20):
        assert alt_power_sum(k, 0) == 0


def test_worked_values():
    assert alt_power_sum(2, 3) == -6 == _direct(2, 3)  # 0 - 1 + 4 - 9
    assert alt_power_sum(3, 4) == 44 == _direct(3, 4)  # 0 - 1 + 8 - 27 + 64
    assert alt_power_sum(1, 2) == 1 == _direct(1, 2)  # 0 - 1 + 2
    assert alt_power_sum(5, 0) == 0


def test_closed_form_examples():
    assert alt_power_sum_closed(1, 2) == 1
    assert alt_power_sum_closed(0, 0) == 1
    assert alt_power_sum_closed(3, 4) == 44


def test_closed_form_matches_direct_summation():
    for k in range(9):
        for n in range(26):
            assert alt_power_sum(k, n) == alt_power_sum_closed(k, n)


def test_egf_consistency():
    # For odd w, the alternating exponential sum sum_{i<w} (-1)^i e^{it}
    # has coefficient vector (T_0(w-1), ..., T_N(w-1)).
    order = 16
    for w in (1, 3, 5, 7):
        series = egf_scale(egf_exp(0, order), 0)
        for i in range(w):
            series = egf_add(series, egf_scale(egf_exp(i, order), (-1) ** i))
        for k in range(order + 1):
            assert series.coeffs[k] == alt_power_sum(k, w - 1)


def test_values_are_integers_in_canonical_form():
    for k in range(6):
        for n in range(12):
            value = alt_power_sum(k, n)
            assert isinstance(value, Fraction)
            assert value.denominator == 1


def test_invalid_inputs():
    with pytest.raises(ValueError):
        alt_power_sum(-1, 3)
    with pytest.raises(ValueError):
        alt_power_sum(2, -1)
    with pytest.raises(ValueError):
        alt_power_sum_closed(-1, 0)


def test_invalid_inputs_after_caching():
    # The cached (1, 3) and (2, 3) must not answer for True or 2.0.
    assert alt_power_sum(1, 3) == -2
    assert alt_power_sum(2, 3) == -6
    for k, n in ((True, 3), (2.0, 3), (1, True), (1, 3.0)):
        with pytest.raises(ValueError):
            alt_power_sum(k, n)
        with pytest.raises(ValueError):
            alt_power_sum_closed(k, n)


def test_cache_is_bounded():
    # More distinct (k, n) calls than the bound leave at most the bound cached.
    params = alt_power_sum.cache_parameters()
    bound = params["maxsize"]
    assert bound is not None and params["typed"]
    for k in range(bound + 10):
        assert alt_power_sum(k, 1) == (0 if k == 0 else -1)  # 0^k - 1
    assert alt_power_sum.cache_info().currsize <= bound
