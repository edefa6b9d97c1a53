"""Plain ``Fraction`` versions of the Euler table, EGF mul/div, the quotient
series and the identity-term kernels, the alternating shifted sums and the
shift by e^{rate t} included.

These are the straightforward loops the integer kernels in ``eulersym.euler``,
``eulersym.egf_series`` and ``eulersym.identities`` replace: a fresh
``Fraction`` at every step, no common denominators, no scaling.  They are
slow (the table is cubic) but obviously right, so the property tests use
them as the reference the fast kernels must match exactly.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import Sequence

_HALF = Fraction(1, 2)


def euler_table(n: int) -> list[tuple[Fraction, ...]]:
    """Coefficient vectors of E_0(x) .. E_n(x) from the triangular recurrence

    E_m(x) = x^m - (1/2) * sum_{k<m} C(m, k) E_k(x).
    """
    coeffs: list[tuple[Fraction, ...]] = [(Fraction(1),)]
    while len(coeffs) <= n:
        m = len(coeffs)
        vec = [Fraction(0)] * (m + 1)
        vec[m] = Fraction(1)
        for k in range(m):
            scale = comb(m, k) * _HALF
            row = coeffs[k]
            for j in range(k + 1):
                vec[j] -= scale * row[j]
        coeffs.append(tuple(vec))
    return coeffs


def horner(coeffs: Sequence[Fraction], x: Fraction) -> Fraction:
    """sum_j coeffs[j] x^j by Horner's rule over ``Fraction``."""
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def egf_mul(a: Sequence[Fraction], b: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Binomial convolution of two EGF coefficient vectors."""
    n = min(len(a), len(b)) - 1
    out = []
    for k in range(n + 1):
        acc = Fraction(0)
        for j in range(k + 1):
            acc += comb(k, j) * a[j] * b[k - j]
        out.append(acc)
    return tuple(out)


def egf_div(f: Sequence[Fraction], g: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Quotient q with q * g = f, by forward substitution; g[0] != 0."""
    n = min(len(f), len(g)) - 1
    g0 = g[0]
    q: list[Fraction] = []
    for k in range(n + 1):
        acc = f[k]
        for j in range(k):
            acc -= comb(k, j) * q[j] * g[k - j]
        q.append(acc / g0)
    return tuple(q)


def exp_sum(scale: int, rate: Fraction, parts: Sequence[int], order: int) -> tuple[Fraction, ...]:
    """Coefficients 0..order of scale e^{rate t} prod_u (e^{ut} + 1): the
    product expanded into terms c_r e^{a_r t}, coefficient k sum_r c_r a_r^k."""
    terms = [(Fraction(scale), Fraction(rate))]
    for u in parts:
        terms = [(c, a + s) for c, a in terms for s in (0, u)]
    return tuple(sum(c * a**k for c, a in terms) for k in range(order + 1))


def quotient(
    scale: int, rate: Fraction, ups: Sequence[int], downs: Sequence[int], order: int
) -> tuple[Fraction, ...]:
    """scale e^{rate t} prod_u (e^{ut} + 1) / prod_d (e^{dt} + 1), the shift
    taken into the numerator and the two sums divided once."""
    return egf_div(exp_sum(scale, rate, ups, order), exp_sum(1, Fraction(0), downs, order))


def binom_sum(
    n: int, fk: Sequence[Fraction], fg: Sequence[Fraction], bk: int, bg: int
) -> Fraction:
    """sum over k of C(n,k) fk[k] fg[n-k] bk^k bg^{n-k}."""
    total = Fraction(0)
    for k in range(n + 1):
        total += (comb(n, k) * bk**k * bg ** (n - k)) * (fk[k] * fg[n - k])
    return total


def tri_sum(
    n: int, fk: Sequence[Fraction], fl: Sequence[Fraction], fm: Sequence[Fraction],
    bk: int, bl: int, bm: int,
) -> Fraction:
    """sum over k+l+m = n of n!/(k! l! m!) fk[k] fl[l] fm[m] bk^k bl^l bm^m."""
    total = Fraction(0)
    for k in range(n + 1):
        for l in range(n - k + 1):
            m = n - k - l
            coef = factorial(n) // (factorial(k) * factorial(l) * factorial(m))
            total += (coef * bk**k * bl**l * bm**m) * (fk[k] * fl[l] * fm[m])
    return total


def alt_vec(base: Fraction, m: int, counts: Sequence[int], n_max: int) -> list[Fraction]:
    """Entry k is sum_{i<c1} sum_{j<c2} (-1)^{i+j} E_k(base + (m/c1) i + (m/c2) j)
    for counts (c1, c2), or the single sum over i for counts (c1,): every
    argument and every E_k(x) is a fresh ``Fraction``."""
    table = euler_table(n_max)
    c1, c2 = (*counts, 1)[:2]
    total = [Fraction(0)] * (n_max + 1)
    for i in range(c1):
        start = base + Fraction(m * i, c1)
        for j in range(c2):
            x = start + Fraction(m * j, c2)
            sign = -1 if (i + j) & 1 else 1
            total = [t + sign * horner(table[k], x) for k, t in enumerate(total)]
    return total


def shift(vec: Sequence[Fraction], rate: Fraction) -> list[Fraction]:
    """Coefficients of e^{rate t} F(t) for F's coefficients ``vec``: entry k
    is sum_j C(k, j) vec[j] rate^(k - j), each product a fresh ``Fraction``."""
    rate = Fraction(rate)
    return [sum((comb(k, j) * vec[j] * rate ** (k - j) for j in range(k + 1)), Fraction(0))
            for k in range(len(vec))]
