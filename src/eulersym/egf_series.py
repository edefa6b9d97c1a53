"""Truncated exponential-generating-function calculus over exact rationals.

A series is stored as the coefficient vector (c_0, ..., c_N) of
sum_k c_k t^k / k!, truncated at a fixed order N.  In this convention a
product is the binomial convolution

    (f * g)_n = sum_k C(n, k) f_k g_{n-k},

which matches how products of the form e^{at} combine, and division is the
corresponding forward substitution (exact, O(N^2); Newton iteration buys
nothing over rationals).  Every arithmetic result carries the minimum of
the operand orders.

Both kernels run in integers.  ``egf_mul`` puts each operand over the lcm
of its denominators, convolves the integer numerators with Pascal-row
binomials, and divides once per output coefficient.  ``egf_div`` is
fraction-free forward substitution: it carries numerators scaled by
powers of the divisor's constant term and builds one ``Fraction`` per
coefficient.

Atoms are e^{at} for rational a (coefficients a^k).  From these the module
builds the two alternating-sum quotients the rest of the package leans on:

* ``quotient_alternating(w, N)``: (e^{wt} + 1)/(e^t + 1) for odd w, which
  equals sum_{i=0}^{w-1} (-1)^i e^{it} and therefore has coefficient vector
  (T_0(w-1), ..., T_N(w-1)).  Even w is rejected: the geometric identity
  behind the expansion fails and a silently different series would poison
  every identity check downstream.
* ``lambda_series``: the four closed-form quotient families of products of
  (e^{wt} + 1) factors whose coefficients reproduce the finite identity
  evaluators; see the function docstring.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add, mul
from typing import Sequence

from .exact_arith import RationalLike, int_weights

__all__ = [
    "TruncatedEGF",
    "NonInvertibleSeriesError",
    "egf_from_coeffs",
    "egf_one",
    "egf_exp",
    "egf_add",
    "egf_sub",
    "egf_mul",
    "egf_scale",
    "egf_div",
    "egf_pow",
    "egf_coeff",
    "quotient_alternating",
    "lambda_series",
    "LAMBDA_FAMILIES",
]

LAMBDA_FAMILIES = ("L23", "L13", "L12_0", "L12_1")


class NonInvertibleSeriesError(ZeroDivisionError):
    """Division by a series whose constant term is zero."""


@dataclass(frozen=True)
class TruncatedEGF:
    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("a truncated series needs at least the constant term")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __add__(self, other: "TruncatedEGF") -> "TruncatedEGF":
        return egf_add(self, other)

    def __sub__(self, other: "TruncatedEGF") -> "TruncatedEGF":
        return egf_sub(self, other)

    def __mul__(self, other: "TruncatedEGF") -> "TruncatedEGF":
        return egf_mul(self, other)

    def __truediv__(self, other: "TruncatedEGF") -> "TruncatedEGF":
        return egf_div(self, other)


def egf_from_coeffs(coeffs: Sequence[RationalLike]) -> TruncatedEGF:
    return TruncatedEGF(tuple(Fraction(c) for c in coeffs))


def egf_one(order: int) -> TruncatedEGF:
    """The unit series 1 (= e^{0t})."""
    return egf_exp(0, order)


def egf_exp(a: RationalLike, order: int) -> TruncatedEGF:
    """e^{at}: coefficient vector (1, a, a^2, ..., a^order)."""
    if order < 0:
        raise ValueError("order must be >= 0")
    a = Fraction(a)
    coeffs = [Fraction(1)]
    for _ in range(order):
        coeffs.append(coeffs[-1] * a)
    return TruncatedEGF(tuple(coeffs))


def _common_order(lhs: TruncatedEGF, rhs: TruncatedEGF) -> int:
    return min(lhs.order, rhs.order)


def egf_add(lhs: TruncatedEGF, rhs: TruncatedEGF) -> TruncatedEGF:
    n = _common_order(lhs, rhs)
    return TruncatedEGF(tuple(lhs.coeffs[k] + rhs.coeffs[k] for k in range(n + 1)))


def egf_sub(lhs: TruncatedEGF, rhs: TruncatedEGF) -> TruncatedEGF:
    n = _common_order(lhs, rhs)
    return TruncatedEGF(tuple(lhs.coeffs[k] - rhs.coeffs[k] for k in range(n + 1)))


def egf_scale(series: TruncatedEGF, factor: RationalLike) -> TruncatedEGF:
    factor = Fraction(factor)
    return TruncatedEGF(tuple(c * factor for c in series.coeffs))


def _over_common_denominator(coeffs: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integers c'_k and one d > 0 with coeffs[k] = c'_k / d (d the lcm)."""
    d = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (d // c.denominator) for c in coeffs], d


def _next_binomial_row(row: list[int]) -> list[int]:
    """C(k+1, 0..k+1) from C(k, 0..k); the empty row starts at C(0, 0)."""
    return [1, *map(add, row[1:], row[:-1]), 1] if row else [1]


def egf_mul(lhs: TruncatedEGF, rhs: TruncatedEGF) -> TruncatedEGF:
    n = _common_order(lhs, rhs)
    a, da = _over_common_denominator(lhs.coeffs[: n + 1])
    b, db = _over_common_denominator(rhs.coeffs[: n + 1])
    d = da * db
    out = []
    row: list[int] = []  # C(k, 0..k), Pascal's rule
    for k in range(n + 1):
        row = _next_binomial_row(row)
        acc = sum(map(mul, map(mul, row, a), b[k::-1]))
        out.append(Fraction(acc, d))
    return TruncatedEGF(tuple(out))


def egf_div(lhs: TruncatedEGF, rhs: TruncatedEGF) -> TruncatedEGF:
    """Quotient q with q * rhs = lhs up to the common order.

    Forward substitution on q_n = (f_n - sum_{j<n} C(n,j) q_j g_{n-j}) / g_0,
    fraction-free: with f = F/df and g = G/dg over integers, the integers

        Q_k = dg F_k G_0^k - sum_{j<k} C(k,j) Q_j G_{k-j} G_0^{k-j-1}

    satisfy q_k = Q_k / (df G_0^{k+1}).
    """
    if rhs.coeffs[0] == 0:
        raise NonInvertibleSeriesError("non-invertible series: constant term is zero")
    n = _common_order(lhs, rhs)
    f, df = _over_common_denominator(lhs.coeffs[: n + 1])
    g, dg = _over_common_denominator(rhs.coeffs[: n + 1])
    g0 = g[0]
    # h[i] = G_i G_0^{i-1}, the part of the inner term independent of k.
    h = [0] + [g[i] * g0 ** (i - 1) for i in range(1, n + 1)]
    big_q: list[int] = []
    out = []
    g0_pow = 1  # G_0^k
    row: list[int] = []
    for k in range(n + 1):
        row = _next_binomial_row(row)
        acc = dg * f[k] * g0_pow - sum(map(mul, map(mul, row, big_q), h[k:0:-1]))
        big_q.append(acc)
        g0_pow *= g0
        out.append(Fraction(acc, df * g0_pow))
    return TruncatedEGF(tuple(out))


def egf_pow(series: TruncatedEGF, exponent: int) -> TruncatedEGF:
    if exponent < 0:
        raise ValueError("exponent must be >= 0")
    result = egf_one(series.order)
    for _ in range(exponent):
        result = egf_mul(result, series)
    return result


def egf_coeff(series: TruncatedEGF, k: int) -> Fraction:
    if not 0 <= k <= series.order:
        raise IndexError(f"coefficient index {k} outside truncation order {series.order}")
    return series.coeffs[k]


def _exp_plus_one(a: RationalLike, order: int) -> TruncatedEGF:
    return egf_add(egf_exp(a, order), egf_one(order))


def quotient_alternating(w: int, order: int) -> TruncatedEGF:
    """(e^{wt} + 1)/(e^t + 1) for odd positive w.

    Coefficient k equals the alternating power sum T_k(w-1), because the
    quotient telescopes to sum_{i=0}^{w-1} (-1)^i e^{it} when w is odd.
    """
    if w < 1 or w % 2 == 0:
        raise ValueError(f"quotient_alternating requires odd positive w, got {w}")
    return egf_div(_exp_plus_one(w, order), _exp_plus_one(1, order))


def _validate_lambda_args(
    family: str,
    i: int | None,
    w: Sequence[int],
    y: Sequence[RationalLike],
) -> tuple[int, tuple[int, int, int], tuple[Fraction, ...]]:
    if family not in LAMBDA_FAMILIES:
        raise ValueError(f"unknown series family {family!r}; expected one of {LAMBDA_FAMILIES}")
    if len(w) != 3:
        raise ValueError("w must be a triple of positive integers")
    w3 = int_weights(w)

    if family == "L12_0":
        i = 0 if i is None else i
        if i != 0:
            raise ValueError("family L12_0 is the i = 0 member; pass i=0 or omit it")
    elif family == "L12_1":
        i = 1 if i is None else i
        if i != 1:
            raise ValueError("family L12_1 is the i = 1 member; pass i=1 or omit it")
    else:
        if i is None:
            raise ValueError(f"family {family} requires a sub-index i in 0..3")
        if not 0 <= i <= 3:
            raise ValueError(f"sub-index i must be in 0..3, got {i}")

    # Odd weights wherever an (e^{..t}+1) factor has to telescope into an
    # alternating sum: the quotient members of L23/L13, and all of L12_1.
    needs_odd = (family in ("L23", "L13") and i >= 1) or family == "L12_1"
    if needs_odd and any(v % 2 == 0 for v in w3):
        raise ValueError(f"family {family} with i={i} requires odd w components, got {w3}")

    expected_y = {"L23": 3 - i, "L13": 3 - i, "L12_0": 1, "L12_1": 0}[family]
    if len(y) != expected_y:
        raise ValueError(f"family {family} with i={i} takes {expected_y} shift value(s), got {len(y)}")
    return i, w3, tuple(Fraction(v) for v in y)


def lambda_series(
    family: str,
    i: int | None,
    w: Sequence[int],
    y: Sequence[RationalLike] = (),
    order: int = 24,
) -> TruncatedEGF:
    """Closed-form quotient series over the weight triple w = (w1, w2, w3).

    With W = w1*w2*w3 and S = sum of the shift values y, the families are:

    * L23, sub-index i in 0..3 (pairwise products downstairs):
        2^{3-i} e^{W S t} (e^{Wt} + 1)^i
        / ((e^{w2 w3 t}+1)(e^{w1 w3 t}+1)(e^{w1 w2 t}+1)),    len(y) = 3 - i
    * L13, sub-index i in 0..3 (single weights downstairs):
        2^{3-i} e^{W S t} (e^{Wt} + 1)^i
        / ((e^{w1 t}+1)(e^{w2 t}+1)(e^{w3 t}+1)),             len(y) = 3 - i
    * L12_0: 8 e^{(w1 w2 + w2 w3 + w3 w1) y t}
        / ((e^{w1 t}+1)(e^{w2 t}+1)(e^{w3 t}+1)),             len(y) = 1
    * L12_1: ((e^{w2 w3 t}+1)(e^{w1 w3 t}+1)(e^{w1 w2 t}+1))
        / ((e^{w1 t}+1)(e^{w2 t}+1)(e^{w3 t}+1)),             len(y) = 0

    All four are symmetric in (w1, w2, w3) coefficient-for-coefficient.
    Division is always well-defined here: every denominator has constant
    term a power of 2.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    i, w3, ys = _validate_lambda_args(family, i, w, y)
    w1, w2, wz = w3
    big = w1 * w2 * wz

    def pair_product() -> TruncatedEGF:
        out = _exp_plus_one(w2 * wz, order)
        out = egf_mul(out, _exp_plus_one(w1 * wz, order))
        return egf_mul(out, _exp_plus_one(w1 * w2, order))

    def single_product() -> TruncatedEGF:
        out = _exp_plus_one(w1, order)
        out = egf_mul(out, _exp_plus_one(w2, order))
        return egf_mul(out, _exp_plus_one(wz, order))

    if family == "L12_1":
        return egf_div(pair_product(), single_product())

    if family == "L12_0":
        shift = (w1 * w2 + w2 * wz + wz * w1) * ys[0]
        num = egf_scale(egf_exp(shift, order), 8)
        return egf_div(num, single_product())

    num = egf_scale(egf_exp(big * sum(ys, Fraction(0)), order), 2 ** (3 - i))
    if i:
        num = egf_mul(num, egf_pow(_exp_plus_one(big, order), i))
    den = pair_product() if family == "L23" else single_product()
    return egf_div(num, den)
