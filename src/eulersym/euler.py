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

so the table up to n costs O(n^2) integer operations and no truncation
parameter: row m holds C(m, j) g_{m-j} / 2^{m-j}.  ``euler_eval`` and
``euler_number`` need only the numbers: the former sums 2^n q^n E_n(p/q)
by integer Horner and builds a single ``Fraction`` at the end.  The
series-division route lives in ``egf_series`` and is used only as an
independent test oracle.

The tables (scaled numbers, coefficient rows, per-argument value vectors)
are module-level state, grown on first use.  Growth is serialised by one
lock, and new entries are built off to the side and appended only when
complete; readers whose entry already exists take no lock.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .exact_arith import RationalLike

__all__ = [
    "EulerPolynomial",
    "euler_polynomials_up_to",
    "euler_polynomial",
    "euler_eval",
    "euler_number",
    "euler_values",
]


@dataclass(frozen=True)
class EulerPolynomial:
    """Dense coefficient vector of E_n(x); coeffs[j] is the coefficient of x^j."""

    degree: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.degree + 1:
            raise ValueError("coefficient vector length must be degree + 1")

    def __call__(self, x: RationalLike) -> Fraction:
        """Evaluate at x by Horner's rule."""
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


# 2^k E_k for k = 0, 1, ...: the Euler numbers scaled to integers.
_SCALED_NUMBERS: list[int] = [1]

# Coefficient vectors E_0, E_1, ... ; grown on demand, never mutated after.
_COEFFS: list[tuple[Fraction, ...]] = [(Fraction(1),)]

# Per-argument value vectors E_0(x), E_1(x), ...; grown on demand.
_VALUES: dict[Fraction, list[Fraction]] = {}

# Serialises growth of the three tables above.  Readers take no lock: a
# list only grows, and only by whole entries that are complete before they
# are appended.
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


def _ensure_table(n: int) -> None:
    if n < len(_COEFFS):
        return
    _ensure_numbers(n)
    g = _SCALED_NUMBERS
    with _LOCK:
        # Appell: coefficient j of E_m(x) is C(m, j) E_{m-j}.
        rows = [
            tuple(Fraction(comb(m, j) * g[m - j], 1 << (m - j)) for j in range(m + 1))
            for m in range(len(_COEFFS), n + 1)
        ]
        _COEFFS.extend(rows)


def euler_polynomial(n: int) -> EulerPolynomial:
    """E_n(x) as an exact coefficient vector."""
    if n < 0:
        raise ValueError("n must be >= 0")
    _ensure_table(n)
    return EulerPolynomial(n, _COEFFS[n])


def euler_polynomials_up_to(n_max: int) -> list[EulerPolynomial]:
    """E_0(x) .. E_{n_max}(x), from the shared recurrence table."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    _ensure_table(n_max)
    return [EulerPolynomial(n, _COEFFS[n]) for n in range(n_max + 1)]


def euler_eval(n: int, x: RationalLike) -> Fraction:
    """Exact value E_n(x)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    _ensure_numbers(n)
    x = Fraction(x)
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
    if n < 0:
        raise ValueError("n must be >= 0")
    _ensure_numbers(n)
    return Fraction(_SCALED_NUMBERS[n], 1 << n)


def euler_values(x: RationalLike, n_max: int) -> tuple[Fraction, ...]:
    """The vector (E_0(x), ..., E_{n_max}(x)), cached per argument.

    Identity evaluators hit the same arguments thousands of times across a
    sweep; the per-argument cache turns those into index lookups.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    x = Fraction(x)
    vals = _VALUES.get(x)
    start = 0 if vals is None else len(vals)
    if start <= n_max:
        new = [euler_eval(k, x) for k in range(start, n_max + 1)]
        with _LOCK:
            vals = _VALUES.setdefault(x, [])
            # Another thread may have grown the list meanwhile; values are
            # deterministic, so append only what is still missing.
            vals.extend(new[len(vals) - start :])
    return tuple(vals[: n_max + 1])
