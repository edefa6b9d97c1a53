"""Euler polynomials E_n(x) and Euler numbers, exactly.

Convention: E_n(x) are the coefficients of the exponential generating
function 2 e^{xt} / (e^t + 1) = sum_n E_n(x) t^n / n!, and the Euler number
E_n here means E_n(0) (the constant coefficient), not the classical secant
numbers E_n(1/2) 2^n.

The Euler polynomials form an Appell sequence, E_n(x + y) =
sum_j C(n, j) E_{n-j}(x) y^j, so at x = 0:

    E_n(x) = sum_{j=0}^{n} C(n, j) E_{n-j} x^j,

and only the Euler numbers need a recurrence.  Multiplying the generating
function by (e^t + 1) and comparing coefficients gives
E_m = -(1/2) sum_{k<m} C(m, k) E_k for m >= 1.  The scaled numbers
g_k = 2^k E_k are integers and satisfy

    g_m = -sum_{k<m} C(m, k) g_k 2^{m-1-k},

so the numbers up to n cost O(n^2) integer operations and no truncation
parameter.  Everything else is read off them: the coefficients of E_n(x)
are C(n, j) g_{n-j} / 2^{n-j}, built in O(n) per call and not stored, and
``euler_eval`` sums 2^n q^n E_n(p/q) by integer Horner and builds a single
``Fraction`` at the end.  ``scaled_numbers`` hands the g_k themselves to
kernels that form such numerators for many arguments at once.  The
argument x must be an ``int`` or a ``Fraction``; floats, strings and
``bool``s raise ``ValueError`` rather than being converted.  The
series-division route lives in ``egf_series`` and is used only as an
independent test oracle.

The scaled numbers are the one module-level table, grown on first use.
Growth is serialised by one lock, and new entries are built off to the
side and appended only when complete; readers whose entry already exists
take no lock.  ``euler_values`` keeps no per-argument cache: an identity
sweep builds each argument's vector once, in a factor table that lives
only as long as the sweep (see ``identities``).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .exact_arith import RationalLike, as_rational, count

__all__ = [
    "EulerPolynomial",
    "euler_polynomials_up_to",
    "euler_polynomial",
    "euler_eval",
    "euler_number",
    "euler_values",
    "scaled_numbers",
]


@dataclass(frozen=True)
class EulerPolynomial:
    """Dense coefficient vector of E_n(x); coeffs[j] is the coefficient of x^j."""

    degree: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.degree + 1:
            raise ValueError("coefficient vector length must be degree + 1")


# 2^k E_k for k = 0, 1, ...: the Euler numbers scaled to integers.
_SCALED_NUMBERS: list[int] = [1]

# Serialises growth of the table above.  Readers take no lock: the list
# only grows, and only by whole entries that are complete before they are
# appended.
_LOCK = threading.Lock()


def _ensure_numbers(n: int) -> None:
    if n < len(_SCALED_NUMBERS):
        return
    with _LOCK:
        start = len(_SCALED_NUMBERS)
        g = _SCALED_NUMBERS[:]
        for m in range(start, n + 1):
            g.append(-sum(comb(m, k) * g[k] << (m - 1 - k) for k in range(m)))
        _SCALED_NUMBERS.extend(g[start:])


def scaled_numbers(n_max: int) -> list[int]:
    """The integers g_0, ..., g_{n_max}, where g_k = 2^k E_k."""
    _ensure_numbers(count(n_max, "n_max"))
    return _SCALED_NUMBERS[: n_max + 1]


def euler_polynomial(n: int) -> EulerPolynomial:
    """E_n(x) as an exact coefficient vector."""
    _ensure_numbers(count(n, "n"))
    g = _SCALED_NUMBERS
    # Appell: coefficient j of E_n(x) is C(n, j) E_{n-j}.
    return EulerPolynomial(
        n, tuple(Fraction(comb(n, j) * g[n - j], 1 << (n - j)) for j in range(n + 1))
    )


def euler_polynomials_up_to(n_max: int) -> list[EulerPolynomial]:
    """E_0(x) .. E_{n_max}(x)."""
    return list(map(euler_polynomial, range(count(n_max, "n_max") + 1)))


def euler_eval(n: int, x: RationalLike) -> Fraction:
    """Exact value E_n(x)."""
    _ensure_numbers(count(n, "n"))
    x = as_rational(x, "x")
    # With x = p/q: 2^n q^n E_n(x) = sum_j C(n, j) (2^{n-j} E_{n-j}) (2p)^j q^{n-j},
    # summed by homogeneous Horner in integers.
    p2, q = 2 * x.numerator, x.denominator
    g = _SCALED_NUMBERS
    acc = 0
    q_pow = 1
    for j in range(n, -1, -1):
        acc = acc * p2 + comb(n, j) * g[n - j] * q_pow
        q_pow *= q
    return Fraction(acc, q**n << n)


def euler_number(n: int) -> Fraction:
    """Euler number E_n = E_n(0), i.e. the constant coefficient of E_n(x)."""
    _ensure_numbers(count(n, "n"))
    return Fraction(_SCALED_NUMBERS[n], 1 << n)


def euler_values(x: RationalLike, n_max: int) -> tuple[Fraction, ...]:
    """The vector (E_0(x), ..., E_{n_max}(x)), computed afresh on each call;
    a sweep builds each argument's vector once, in its factor table."""
    count(n_max, "n_max")
    x = as_rational(x, "x")
    return tuple(euler_eval(k, x) for k in range(n_max + 1))
