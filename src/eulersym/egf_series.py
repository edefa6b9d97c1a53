"""Truncated exponential-generating-function calculus over exact rationals.

A series is stored as the coefficient vector (c_0, ..., c_N) of
sum_k c_k t^k / k!, truncated at a fixed order N.  In this convention a
product is the binomial convolution

    (f * g)_n = sum_k C(n, k) f_k g_{n-k},

which matches how products of the form e^{at} combine, and division is the
corresponding forward substitution (exact, O(N^2); Newton iteration buys
nothing over rationals).  Every arithmetic result carries the minimum of
the operand orders.

Both kernels run in integers, and their binomials come from one row
builder, ``_pascal_rows``.  ``egf_mul`` puts each operand over the lcm of
its denominators, convolves the integer numerators against Pascal's rows
(``_binomial_conv``, shared with the identity evaluators, which keep one
set of rows per sweep), and divides once per output coefficient.
``egf_div`` is fraction-free forward substitution: it carries numerators
scaled by powers of the divisor's constant term and builds one
``Fraction`` per coefficient.

Atoms are e^{at} for rational a (coefficients a^k).  Every quotient the
package leans on has the shape

    scale e^{rate t} prod_u (e^{ut} + 1) / prod_d (e^{dt} + 1),

a ratio of two sums of at most eight exponentials.  ``_quotient`` divides
first, then shifts.  Expanding each product gives sum_r c_r e^{a_r t} at
integer rates a_r, whose coefficient k is the integer sum_r c_r a_r^k, so
one ``egf_div`` divides integers; only then is the quotient multiplied by
e^{rate t}, by the integer Taylor-shift recurrence, with no power of
rate's denominator inside the division.  The two families built this way:

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

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm
from operator import add, mul
from typing import Iterator, Sequence

from .exact_arith import RationalLike, as_rational, case_args, count, is_int

__all__ = [
    "TruncatedEGF",
    "NonInvertibleSeriesError",
    "egf_from_coeffs",
    "egf_one",
    "egf_exp",
    "egf_add",
    "egf_mul",
    "egf_scale",
    "egf_div",
    "egf_coeff",
    "quotient_alternating",
    "lambda_series",
    "LAMBDA_FAMILIES",
]

LAMBDA_FAMILIES = ("L23", "L13", "L12_0", "L12_1")
# The two families that are one fixed member, by sub-index.
_FIXED_I = {"L12_0": 0, "L12_1": 1}


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


def egf_from_coeffs(coeffs: Sequence[RationalLike]) -> TruncatedEGF:
    """The series with these coefficients, each an ``int`` or a ``Fraction``."""
    return TruncatedEGF(tuple(as_rational(c, "each coefficient") for c in coeffs))


def egf_one(order: int) -> TruncatedEGF:
    """The unit series 1 (= e^{0t})."""
    return egf_exp(0, order)


def egf_exp(a: RationalLike, order: int) -> TruncatedEGF:
    """e^{at}: coefficient vector (1, a, a^2, ..., a^order)."""
    count(order, "order")
    a = as_rational(a, "a")
    coeffs = [Fraction(1)]
    for _ in range(order):
        coeffs.append(coeffs[-1] * a)
    return TruncatedEGF(tuple(coeffs))


def egf_add(lhs: TruncatedEGF, rhs: TruncatedEGF) -> TruncatedEGF:
    n = min(lhs.order, rhs.order)
    return TruncatedEGF(tuple(lhs.coeffs[k] + rhs.coeffs[k] for k in range(n + 1)))


def egf_scale(series: TruncatedEGF, factor: RationalLike) -> TruncatedEGF:
    factor = as_rational(factor, "factor")
    return TruncatedEGF(tuple(c * factor for c in series.coeffs))


def _over_common_denominator(coeffs: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integers c'_k and one d > 0 with coeffs[k] = c'_k / d (d the lcm)."""
    d = lcm(*[c.denominator for c in coeffs])
    return [c.numerator * (d // c.denominator) for c in coeffs], d


def _pascal_rows(n: int) -> Iterator[list[int]]:
    """The rows C(k, 0..k) for k = 0..n, one at a time, by Pascal's rule:
    a caller that keeps no row holds one at a time."""
    row: list[int] = []
    for _ in range(n + 1):
        row = [1, *map(add, row[1:], row[:-1]), 1] if row else [1]
        yield row


def _binomial_conv(a: Sequence[int], b: Sequence[int], rows: Sequence[list[int]]) -> list[int]:
    """(sum_j C(k, j) a_j b_{k-j}) for k below the shorter length, in integers;
    ``rows`` lists C(k, 0..k) at least that far (``_pascal_rows``)."""
    return [sum(map(mul, map(mul, rows[k], a), b[k::-1])) for k in range(min(len(a), len(b)))]


def egf_mul(lhs: TruncatedEGF, rhs: TruncatedEGF) -> TruncatedEGF:
    n = min(lhs.order, rhs.order)
    a, da = _over_common_denominator(lhs.coeffs[: n + 1])
    b, db = _over_common_denominator(rhs.coeffs[: n + 1])
    d = da * db
    nums = _binomial_conv(a, b, list(_pascal_rows(n)))
    return TruncatedEGF(tuple(Fraction(c, d) for c in nums))


def egf_div(lhs: TruncatedEGF, rhs: TruncatedEGF) -> TruncatedEGF:
    """Quotient q with q * rhs = lhs up to the common order.

    Forward substitution on q_n = (f_n - sum_{j<n} C(n,j) q_j g_{n-j}) / g_0,
    fraction-free: with f = F/df and g = G/dg over integers, the integers

        Q_k = dg F_k G_0^k - sum_{j<k} C(k,j) Q_j G_{k-j} G_0^{k-j-1}

    satisfy q_k = Q_k / (df G_0^{k+1}).
    """
    if rhs.coeffs[0] == 0:
        raise NonInvertibleSeriesError("non-invertible series: constant term is zero")
    n = min(lhs.order, rhs.order)
    f, df = _over_common_denominator(lhs.coeffs[: n + 1])
    g, dg = _over_common_denominator(rhs.coeffs[: n + 1])
    g0 = g[0]
    # h[i] = G_i G_0^{i-1}, the part of the inner term independent of k.
    h = [0] + [g[i] * g0 ** (i - 1) for i in range(1, n + 1)]
    big_q: list[int] = []
    out = []
    g0_pow = 1  # G_0^k
    for k, row in enumerate(_pascal_rows(n)):
        acc = dg * f[k] * g0_pow - sum(map(mul, map(mul, row, big_q), h[k:0:-1]))
        big_q.append(acc)
        g0_pow *= g0
        out.append(Fraction(acc, df * g0_pow))
    return TruncatedEGF(tuple(out))


def egf_coeff(series: TruncatedEGF, k: int) -> Fraction:
    """Coefficient k; an ``int`` k outside 0..order raises ``IndexError``."""
    if is_int(k) and not 0 <= k <= series.order:
        raise IndexError(f"coefficient index {k} outside truncation order {series.order}")
    return series.coeffs[count(k, "k")]


def _exp_sum(scale: int, parts: Sequence[int], order: int) -> TruncatedEGF:
    """scale prod_u (e^{ut} + 1) as sum_r c_r e^{a_r t}.  Every a_r is an
    integer, so coefficient k is the integer sum_r c_r a_r^k."""
    terms = Counter(sum(s) for s in product(*((0, u) for u in parts)))
    bases = list(terms)
    acc = [scale * c for c in terms.values()]
    coeffs = []
    for _ in range(order + 1):
        coeffs.append(sum(acc))
        acc = list(map(mul, acc, bases))
    return TruncatedEGF(tuple(coeffs))


def _quotient(
    scale: int, rate: RationalLike, ups: Sequence[int], downs: Sequence[int], order: int
) -> TruncatedEGF:
    """scale e^{rate t} prod_u (e^{ut} + 1) / prod_d (e^{dt} + 1).

    Divides first, then shifts.  ``egf_div`` divides the two integer series
    of ``_exp_sum``; with that quotient r_j = R_j / d and rate = p/q,
    coefficient k of e^{rate t} r is ((qE + p)^k R)_0 / (d q^k), E the
    shift R_j -> R_{j+1}.  So the integer row R is shifted once per k by
    the Taylor recurrence row'_j = q row_{j+1} + p row_j, one entry shorter
    each time, which sums sum_j C(k, j) R_j q^j p^{k-j} with no binomial.
    At rate 0 the quotient is the series, returned as it is: the
    recurrence would still cost a triangle of integer steps.  Dividing the
    other way round would put every coefficient of the dividend over
    q^order.
    """
    count(order, "order")
    quotient = egf_div(_exp_sum(scale, ups, order), _exp_sum(1, downs, order))
    if not rate:
        return quotient
    row, d = _over_common_denominator(quotient.coeffs)
    p, q = rate.numerator, rate.denominator
    coeffs = []
    for k in range(order + 1):
        coeffs.append(Fraction(row[0], d * q ** k))
        row = [q * b + p * a for a, b in zip(row, row[1:])]
    return TruncatedEGF(tuple(coeffs))


def quotient_alternating(w: int, order: int) -> TruncatedEGF:
    """(e^{wt} + 1)/(e^t + 1) for odd positive w.

    Coefficient k equals the alternating power sum T_k(w-1), because the
    quotient telescopes to sum_{i=0}^{w-1} (-1)^i e^{it} when w is odd.
    """
    case_args((w,), (), 1, 0, True)
    return _quotient(1, 0, (w,), (1,), order)


def _validate_lambda_args(
    family: str,
    i: int | None,
    w: Sequence[int],
    y: Sequence[RationalLike],
) -> tuple[int, tuple[int, int, int], tuple[Fraction, ...]]:
    if family not in LAMBDA_FAMILIES:
        raise ValueError(f"unknown series family {family!r}; expected one of {LAMBDA_FAMILIES}")
    fixed = _FIXED_I.get(family)
    if fixed is not None:
        i = fixed if i is None else i
        if not is_int(i) or i != fixed:
            raise ValueError(f"family {family} is the i = {fixed} member; "
                             f"pass i={fixed} or omit it")
    elif i is None:
        raise ValueError(f"family {family} requires a sub-index i in 0..3")
    elif not is_int(i) or not 0 <= i <= 3:
        raise ValueError(f"sub-index i must be in 0..3, got {i}")
    y_arity = {"L23": 3 - i, "L13": 3 - i, "L12_0": 1, "L12_1": 0}[family]
    # Odd weights wherever an (e^{..t}+1) factor has to telescope into an
    # alternating sum: the members with i >= 1, L12_1 among them.
    return i, *case_args(w, y, 3, y_arity, i >= 1)


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
    i, (w1, w2, w3), ys = _validate_lambda_args(family, i, w, y)
    pairs, singles = (w2 * w3, w1 * w3, w1 * w2), (w1, w2, w3)
    if family == "L12_1":
        return _quotient(1, 0, pairs, singles, order)
    if family == "L12_0":
        return _quotient(8, (w1 * w2 + w2 * w3 + w3 * w1) * ys[0], (), singles, order)
    big = w1 * w2 * w3
    downs = pairs if family == "L23" else singles
    return _quotient(2 ** (3 - i), big * sum(ys, Fraction(0)), (big,) * i, downs, order)
