"""Exact scalar arithmetic and small combinatorial coefficients.

The universal scalar is ``fractions.Fraction``: arbitrary-precision signed
rationals that are always stored in canonical form (positive denominator,
gcd-reduced, zero as 0/1), so structural equality is value equality.
Everything downstream (polynomial coefficients, power sums, series
coefficients) is built on this type.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Sequence, Union

__all__ = [
    "Rational",
    "RationalLike",
    "binomial",
    "multinomial3",
    "pow_rational",
    "parse_rational",
    "format_rational",
    "int_weights",
]

Rational = Fraction
RationalLike = Union[Fraction, int]


def binomial(n: int, k: int) -> int:
    """C(n, k) with the convention C(n, k) = 0 for k > n.

    The zero convention (rather than an error) keeps convolution loops free
    of bounds checks.
    """
    if n < 0 or k < 0:
        raise ValueError("binomial requires nonnegative arguments")
    return comb(n, k)


def multinomial3(n: int, k: int, l: int, m: int) -> int:
    """Trinomial coefficient n!/(k! l! m!) for a composition k + l + m = n."""
    if min(n, k, l, m) < 0:
        raise ValueError("multinomial3 requires nonnegative arguments")
    if k + l + m != n:
        raise ValueError(f"multinomial3 parts {k}+{l}+{m} != {n}")
    return comb(n, k) * comb(n - k, l)


def pow_rational(base: RationalLike, exp: int) -> Fraction:
    """Exact nonnegative integer power, with 0**0 = 1.

    The 0**0 = 1 convention is load-bearing: alternating power sums include
    an i**k term at i = 0, k = 0 that must contribute 1.
    """
    if exp < 0:
        raise ValueError("pow_rational requires a nonnegative exponent")
    return Fraction(base) ** exp


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q' or 'n' into a canonical Fraction; reject anything else."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed rational: {text!r}") from exc


def format_rational(value: RationalLike) -> str:
    """Canonical string form: 'p/q', or just 'n' when the denominator is 1."""
    return str(Fraction(value))


def int_weights(w: Sequence[object]) -> tuple[int, ...]:
    """The weights w as a tuple of ints; each must be a positive ``int``.

    Nothing is coerced: ``Fraction(5, 2)``, ``2.9`` and ``True`` raise
    ``ValueError`` rather than being truncated or read as the weight 1.
    """
    for v in w:
        if isinstance(v, bool) or not isinstance(v, int) or v < 1:
            raise ValueError(f"weights must be positive integers, got {tuple(w)!r}")
    return tuple(int(v) for v in w)
