"""Exact scalar conventions, rational parsing and formatting, and input checks.

The universal scalar is ``fractions.Fraction``: arbitrary-precision signed
rationals that are always stored in canonical form (positive denominator,
gcd-reduced, zero as 0/1), so structural equality is value equality.
Everything downstream (polynomial coefficients, power sums, series
coefficients) is built on this type.

The input rules live here, and each public entry point applies them once:
a degree, index or order is a ``count`` (a non-``bool`` ``int`` >= 0); a
weight a positive non-``bool`` ``int`` (``int_weights``), odd wherever a
T or an A factor appears; a shift, point or series value an ``int`` or a
``Fraction`` (``as_rational``); a case has fixed weight and shift arities
(``case_args``).  Nothing is coerced: ``2.0``, ``True``, ``0.1`` and
``'1/2'`` raise ``ValueError`` naming the argument, as a bare number or
``None`` does where a sequence of weights or shifts belongs.

Text is parsed by one grammar, in ASCII only: an integer is
``[+-]?[0-9]+`` (``parse_int``) and a rational ``[+-]?[0-9]+(/[0-9]+)?``
with a non-zero denominator (``parse_rational``), either with ASCII
whitespace around it.  Anything else (``0.5``, ``1e-1``, ``1_0``, ``1 / 2``, a
non-ASCII digit, a comma) raises ``ValueError`` starting ``malformed``, and
naming the option the text came from when the caller gives one.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Sequence, Union

__all__ = [
    "RationalLike",
    "parse_int",
    "parse_rational",
    "format_rational",
    "is_int",
    "count",
    "int_weights",
    "rational_shifts",
    "as_rational",
    "case_args",
]

RationalLike = Union[Fraction, int]

_INT = re.compile(r"\s*([+-]?[0-9]+)\s*", re.ASCII)
_RATIONAL = re.compile(r"\s*([+-]?[0-9]+)(?:/([0-9]+))?\s*", re.ASCII)


def parse_int(text: str, name: str = "") -> int:
    """Parse 'n' into an int; reject anything else, naming ``name`` if given."""
    match = _INT.fullmatch(text)
    if match is None:
        raise ValueError(f"malformed integer{name and ' for ' + name}: {text!r}")
    return int(match[1])


def parse_rational(text: str, name: str = "") -> Fraction:
    """Parse 'p/q' or 'n' into a canonical Fraction; reject anything else,
    naming ``name`` if given."""
    match = _RATIONAL.fullmatch(text)
    if match is None or match[2] is not None and int(match[2]) == 0:
        raise ValueError(f"malformed rational{name and ' for ' + name}: {text!r}")
    return Fraction(int(match[1]), int(match[2] or 1))


def format_rational(value: RationalLike) -> str:
    """Canonical string form: 'p/q', or just 'n' when the denominator is 1.

    ``value`` must be an ``int`` or a ``Fraction``, both already canonical;
    a float or a string raises ``ValueError`` instead of printing its
    binary expansion or being parsed."""
    return str(as_rational(value, "value"))


def is_int(v: object) -> bool:
    """v is an ``int`` and not a ``bool``; ``2.0`` and ``True`` are not counts."""
    return isinstance(v, int) and not isinstance(v, bool)


def count(v: object, name: str) -> int:
    """v, which must be a non-``bool`` ``int`` >= 0; else ``ValueError``
    naming ``name``."""
    if not is_int(v) or v < 0:
        raise ValueError(f"{name} must be an int >= 0, got {v!r}")
    return v


def as_rational(v: object, name: str) -> Fraction:
    """v as a Fraction; v must be a non-``bool`` ``int`` or a ``Fraction``.

    Nothing is coerced: ``0.1``, ``True`` and ``'1/2'`` raise ``ValueError``
    naming ``name``, rather than being read as a binary float's exact value,
    as 1, or parsed.  A ``Fraction`` is returned as it is."""
    if isinstance(v, Fraction):
        return v
    if is_int(v):
        return Fraction(v)
    raise ValueError(f"{name} must be an int or a Fraction, got {v!r}")


def _items(seq: object, name: str) -> tuple:
    """The items of seq as a tuple; seq must be iterable, so that a bare
    number or ``None`` raises ``ValueError`` naming ``name``, not a
    ``TypeError``."""
    try:
        items = iter(seq)
    except TypeError:
        raise ValueError(f"{name} must be a sequence, got {seq!r}") from None
    return tuple(items)


def int_weights(w: Sequence[object], name: str = "weights") -> tuple[int, ...]:
    """The weights w, a sequence, as a tuple of ints; each must be a
    positive ``int``.

    Nothing is coerced: ``Fraction(5, 2)``, ``2.9`` and ``True`` raise
    ``ValueError`` naming ``name`` rather than being truncated or read as 1.
    """
    wt = _items(w, name)
    for v in wt:
        if not is_int(v) or v < 1:
            raise ValueError(f"{name} must be positive integers, got {wt!r}")
    return tuple(int(v) for v in wt)


def rational_shifts(y: Sequence[object], name: str = "shifts") -> tuple[Fraction, ...]:
    """The shift values y, a sequence, as a tuple of Fractions; each must
    be an ``int`` or a ``Fraction`` (``as_rational``, naming each of
    ``name``)."""
    return tuple(as_rational(v, f"each of {name}") for v in _items(y, name))


def case_args(
    w: Sequence[object], y: Sequence[object], w_arity: int, y_arity: int, odd: bool
) -> tuple[tuple[int, ...], tuple[Fraction, ...]]:
    """The weights ``w`` and shifts ``y`` of one case, checked in this
    order: a sequence of positive ``int``s, w_arity of them and, if
    ``odd``, odd; a sequence of ``int``s or ``Fraction``s, y_arity of
    them.  Each error names ``w`` or ``y``."""
    wt = int_weights(w, "w")
    if len(wt) != w_arity:
        raise ValueError(f"expected {w_arity} weight(s) in w, got {len(wt)}")
    if odd and any(v % 2 == 0 for v in wt):
        raise ValueError(f"w must be odd, got {wt}")
    yt = rational_shifts(y, "y")
    if len(yt) != y_arity:
        raise ValueError(f"expected {y_arity} shift value(s) in y, got {len(yt)}")
    return wt, yt
