"""Alternating power sums T_k(n) = sum_{i=0}^{n} (-1)^i i^k, with 0^0 = 1.

Base cases: T_0(n) is 1 for even n and 0 for odd n; T_k(0) is 1 for k = 0
and 0 for k > 0.

Direct summation, cached per (k, n) in a bounded LRU cache, is the one
production path, kept deliberately independent of the Euler-polynomial
module so that a failure in either localizes.  The closed form in terms
of Euler polynomials,

    T_k(n) = (E_k(0) + (-1)^n E_k(n+1)) / 2,

is provided as a test-only cross-check oracle.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import euler
from .exact_arith import count

__all__ = [
    "alt_power_sum",
    "alt_power_sum_closed",
]


# typed: True and 2.0 are keys of their own, so they reach the check below
# even after (1, k) or (2, k) is cached.  The bound keeps a long-lived
# process from holding every (k, n) it ever met; a sweep reads each T_k
# vector once anyway, through its factor table.
@lru_cache(maxsize=4096, typed=True)
def alt_power_sum(k: int, n: int) -> Fraction:
    """T_k(n) by direct summation (values are integers, returned exactly)."""
    k, n = count(k, "k"), count(n, "n")
    total = 0
    for i in range(n + 1):
        p = i**k  # 0**0 == 1, as required by the k = 0 column
        total = total - p if i & 1 else total + p
    return Fraction(total)


def alt_power_sum_closed(k: int, n: int) -> Fraction:
    """T_k(n) via the Euler-polynomial closed form (independent oracle)."""
    k, n = count(k, "k"), count(n, "n")
    sign = -1 if n & 1 else 1
    return (euler.euler_number(k) + sign * euler.euler_eval(k, n + 1)) / 2
