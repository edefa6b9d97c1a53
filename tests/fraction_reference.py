"""Plain ``Fraction`` versions of the Euler table and EGF mul/div kernels.

These are the straightforward loops the integer kernels in ``eulersym.euler``
and ``eulersym.egf_series`` replace: a fresh ``Fraction`` at every step, no
common denominators, no scaling.  They are slow (the table is cubic) but
obviously right, so the property tests use them as the reference the fast
kernels must match exactly.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
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
