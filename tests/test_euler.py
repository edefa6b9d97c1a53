import sys
import threading
from fractions import Fraction

import pytest

from eulersym import euler
from eulersym.egf_series import egf_add, egf_div, egf_exp, egf_one, egf_scale
from eulersym.euler import (
    EulerPolynomial,
    euler_eval,
    euler_number,
    euler_polynomial,
    euler_polynomials_up_to,
    euler_values,
)


def _egf_euler_values(x, order):
    # independent oracle: coefficients of 2 e^{xt} / (e^t + 1)
    numerator = egf_scale(egf_exp(x, order), 2)
    denominator = egf_add(egf_exp(1, order), egf_one(order))
    return egf_div(numerator, denominator).coeffs


def test_first_polynomials():
    assert euler_polynomial(0).coeffs == (Fraction(1),)
    assert euler_polynomial(1).coeffs == (Fraction(-1, 2), Fraction(1))
    assert euler_polynomial(3).coeffs == (
        Fraction(1, 4),
        Fraction(0),
        Fraction(-3, 2),
        Fraction(1),
    )


def test_table_consistency():
    polys = euler_polynomials_up_to(12)
    assert [p.degree for p in polys] == list(range(13))
    for n, p in enumerate(polys):
        assert p.coeffs == euler_polynomial(n).coeffs


def test_monic_and_subleading_coefficients():
    for n, p in enumerate(euler_polynomials_up_to(40)):
        assert p.coeffs[n] == 1
        if n >= 1:
            assert p.coeffs[n - 1] == Fraction(-n, 2)


def test_reflection_pairing():
    # E_n(1) + E_n(0) = 0 for n >= 1
    for n in range(1, 41):
        assert euler_eval(n, 1) + euler_eval(n, 0) == 0


def test_point_values():
    assert euler_eval(1, 0) == Fraction(-1, 2)
    assert euler_eval(2, Fraction(1, 2)) == Fraction(-1, 4)
    for x in (0, 1, Fraction(-7, 3), Fraction(2, 7)):
        assert euler_eval(0, x) == 1


def test_euler_numbers():
    assert euler_number(0) == 1
    assert euler_number(1) == Fraction(-1, 2)
    assert euler_number(2) == 0
    for n in range(20):
        assert euler_number(n) == euler_polynomial(n).coeffs[0]
        assert euler_number(n) == euler_eval(n, 0)


def test_matches_series_division_oracle():
    # Recurrence values agree with the generating-function quotient at 13
    # distinct rational points, enough to pin every polynomial up to n = 12.
    points = [Fraction(j, 5) for j in range(-6, 7)]
    assert len(set(points)) == 13
    for x in points:
        oracle = _egf_euler_values(x, 12)
        mine = euler_values(x, 12)
        assert mine == oracle


def test_multiplication_formula():
    # E_n(w y) = w^n sum_{i<w} (-1)^i E_n(y + i/w) for odd w
    ys = (Fraction(0), Fraction(1), Fraction(-1, 3), Fraction(2, 7))
    for w in (1, 3, 5, 7, 9):
        for n in range(11):
            for y in ys:
                rhs = sum(
                    (-1) ** i * euler_eval(n, y + Fraction(i, w)) for i in range(w)
                )
                assert euler_eval(n, w * y) == w**n * rhs


def test_polynomial_coeffs_match_eval():
    p = euler_polynomial(7)
    for x in (0, Fraction(3, 4), Fraction(-5, 2)):
        assert sum(c * x**k for k, c in enumerate(p.coeffs)) == euler_eval(7, x)


def test_euler_values_vector():
    x = Fraction(-2, 3)
    vec = euler_values(x, 9)
    assert len(vec) == 10
    assert vec == tuple(euler_eval(n, x) for n in range(10))
    # shorter request is a prefix (shared cache must not corrupt)
    assert euler_values(x, 4) == vec[:5]


def test_invalid_inputs():
    with pytest.raises(ValueError):
        euler_polynomial(-1)
    with pytest.raises(ValueError):
        euler_eval(-2, 0)
    with pytest.raises(ValueError):
        euler_values(0, -1)
    with pytest.raises(ValueError):
        EulerPolynomial(2, (Fraction(1),))


@pytest.mark.parametrize(
    "call",
    [
        lambda: euler_eval(True, 0),  # not read as n = 1
        lambda: euler_eval(2.0, 0),
        lambda: euler_number(True),
        lambda: euler_polynomial(True),
        lambda: euler_polynomials_up_to(True),
        lambda: euler_values(0, True),
        lambda: euler_values(0, 3.0),
    ],
    ids=["eval n=True", "eval n=2.0", "number n=True", "polynomial n=True",
         "up_to n=True", "values n_max=True", "values n_max=3.0"],
)
def test_indices_reject_non_int(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: euler_eval(1, 0.1),  # not the binary float's exact value
        lambda: euler_eval(1, "1/2"),
        lambda: euler_eval(1, True),  # not read as x = 1
        lambda: euler_values(0.5, 1),
        lambda: euler_values("1/2", 1),
        lambda: euler_values(True, 1),
    ],
    ids=["eval x=0.1", "eval x='1/2'", "eval x=True", "values x=0.5", "values x='1/2'",
         "values x=True"],
)
def test_arguments_reject_non_rational(call):
    with pytest.raises(ValueError):
        call()


def test_scaled_numbers():
    assert euler.scaled_numbers(6) == [1, -1, 0, 2, 0, -16, 0]
    assert euler.scaled_numbers(0) == [1]
    for bad in (-1, True, 2.0):
        with pytest.raises(ValueError):
            euler.scaled_numbers(bad)


@pytest.fixture
def fresh_tables(monkeypatch):
    """Empty Euler tables for one test; the shared ones come back afterwards."""

    def reset():
        monkeypatch.setattr(euler, "_SCALED_NUMBERS", [1])

    reset()
    return reset


def test_concurrent_first_use(fresh_tables):
    n = 60
    points = [Fraction(j, 7) for j in range(-3, 4)]

    def work():
        polys = euler_polynomials_up_to(n)
        return [p.coeffs for p in polys], [euler_values(x, n) for x in points]

    expected = work()
    fresh_tables()
    results, errors = [], []
    barrier = threading.Barrier(4, timeout=60)

    def racer():
        try:
            barrier.wait()
            results.append(work())
        except Exception as exc:  # noqa: BLE001 - any failure is the finding
            errors.append(exc)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=racer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)

    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert results == [expected] * 4
    # Each entry was appended exactly once, in order.
    assert euler._SCALED_NUMBERS == [row[0] * 2**m for m, row in enumerate(expected[0])]
