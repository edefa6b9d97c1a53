"""Exact scalar conventions, rational parsing and formatting, and input checks.

The universal scalar is ``fractions.Fraction``: arbitrary-precision signed
rationals that are always stored in canonical form (positive denominator,
gcd-reduced, zero as 0/1), so structural equality is value equality.
Everything downstream (polynomial coefficients, power sums, series
coefficients) is built on this type.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Union

__all__ = [
    "RationalLike",
    "parse_rational",
    "format_rational",
    "is_int",
    "int_weights",
    "rational_shifts",
]

RationalLike = Union[Fraction, int]


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q' or 'n' into a canonical Fraction; reject anything else."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed rational: {text!r}") from exc


def format_rational(value: RationalLike) -> str:
    """Canonical string form: 'p/q', or just 'n' when the denominator is 1."""
    return str(Fraction(value))


def is_int(v: object) -> bool:
    """v is an ``int`` and not a ``bool``; ``2.0`` and ``True`` are not counts."""
    return isinstance(v, int) and not isinstance(v, bool)


def int_weights(w: Sequence[object]) -> tuple[int, ...]:
    """The weights w as a tuple of ints; each must be a positive ``int``.

    Nothing is coerced: ``Fraction(5, 2)``, ``2.9`` and ``True`` raise
    ``ValueError`` rather than being truncated or read as the weight 1.
    """
    for v in w:
        if not is_int(v) or v < 1:
            raise ValueError(f"weights must be positive integers, got {tuple(w)!r}")
    return tuple(int(v) for v in w)


def rational_shifts(y: Sequence[object]) -> tuple[Fraction, ...]:
    """The shift values y as a tuple of Fractions; each must be an ``int``
    or a ``Fraction``.

    Nothing is coerced: ``0.1``, ``True`` and ``'1/2'`` raise ``ValueError``
    rather than being read as a binary float's exact value, as 1, or parsed.
    """
    for v in y:
        if isinstance(v, bool) or not isinstance(v, (int, Fraction)):
            raise ValueError(f"shift values must be ints or Fractions, got {tuple(y)!r}")
    return tuple(v if isinstance(v, Fraction) else Fraction(v) for v in y)
