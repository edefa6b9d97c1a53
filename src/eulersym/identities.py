"""Catalog of the symmetry-identity families and their exact evaluators.

Each family bundles the finitely many expressions that one theorem or
corollary asserts equal.  Every expression ("variant") is its own
evaluator, generated from a slot-permutation descriptor and computed from
scratch on each call; no variant is ever derived by permuting another
variant's value, because independent computation of the allegedly equal
expressions is the whole point.

Conventions used throughout:

* ``w`` is a tuple of positive integer weights (three for theorems, two or
  one for corollaries); a permutation ``perm`` is a tuple of 0-based slot
  indices, e.g. (1, 0, 2) reads slot roles (a, b, c) as (w2, w1, w3).
* ``y`` is a tuple of exact rational shift values; its arity is fixed per
  family (0 to 3).
* E_n is the Euler polynomial (see ``euler``), T_k the alternating power
  sum (see ``altsum``).  Families built on T require odd weights; the two
  all-Euler families (T1, T16) accept any positive weights.

Family ids: T1, T2, T5, T8, T11, T14, T16, T17 are the three-weight
theorems; C3, C4, C6, C7, C9, C10, C12, C13, C15, C18 the corollaries
obtained by pinning trailing weights to 1; INTRO_CHAIN is the eight-way
equality chain in two weights that the corollaries C9/C12/C15 combine
into.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable, Mapping, Sequence

from . import altsum, euler
from .exact_arith import RationalLike, int_weights, multinomial3
from .orbits import ALL_PERMS, EXPECTED_ORBIT_SIZES, Perm, orbit_audit

__all__ = [
    "IdentityFamily",
    "VerificationReport",
    "FAMILIES",
    "FAMILY_IDS",
    "SERIES_ORACLES",
    "PARENT_SPECIALIZATIONS",
    "variant_values",
    "check_case",
    "eval_t1_variant",
    "eval_t2_variant",
    "eval_t5_variant",
    "eval_t8_variant",
    "eval_t11_variant",
    "eval_t14_variant",
    "eval_t16_variant",
    "eval_t17_variant",
    "eval_corollary",
    "eval_intro_chain",
    "eval_triple_altsum",
    "orbit_audit",
]

Evaluator = Callable[[int, Sequence[int], Sequence[Fraction]], Fraction]

CYCLIC_PERMS: tuple[Perm, ...] = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


# --------------------------------------------------------------------------
# Building blocks.  _euler_vec and _tval are module-level seams so that a
# deliberately perturbed stand-in can be injected to prove the checks are
# not vacuous (see the negative-control tests).


def _euler_vec(x: RationalLike, n_max: int) -> Sequence[Fraction]:
    """(E_0(x), ..., E_{n_max}(x))."""
    return euler.euler_values(x, n_max)


def _tval(k: int, upper: int) -> Fraction:
    """T_k(upper)."""
    return altsum.alt_power_sum(k, upper)


def _t_vec(upper: int, n_max: int) -> tuple[Fraction, ...]:
    return tuple(_tval(j, upper) for j in range(n_max + 1))


def _alt_shift_vec(
    base: Fraction, step: Fraction, count: int, n_max: int
) -> tuple[Fraction, ...]:
    """Entry j is sum_{i=0}^{count-1} (-1)^i E_j(base + i * step)."""
    vecs = [_euler_vec(base + step * i, n_max) for i in range(count)]
    out = []
    for j in range(n_max + 1):
        acc = Fraction(0)
        for i, vec in enumerate(vecs):
            acc = acc - vec[j] if i & 1 else acc + vec[j]
        out.append(acc)
    return tuple(out)


def _powers(base: int, n_max: int) -> list[int]:
    out = [1]
    for _ in range(n_max):
        out.append(out[-1] * base)
    return out


def _tri_sum(
    n: int,
    fk: Sequence[Fraction],
    fl: Sequence[Fraction],
    fm: Sequence[Fraction],
    bk: int,
    bl: int,
    bm: int,
) -> Fraction:
    """sum over k+l+m = n of C(n;k,l,m) fk[k] fl[l] fm[m] bk^k bl^l bm^m.

    Any linear exponent pattern in the weights factors into one integer
    base per summation index, which is how callers encode patterns like
    w1^{l+m} w2^{k+m} w3^{k+l} (there: bk = w2*w3 and so on).
    """
    pk, pl, pm = _powers(bk, n), _powers(bl, n), _powers(bm, n)
    total = Fraction(0)
    for k in range(n + 1):
        fkk, pkk = fk[k], pk[k]
        for l in range(n - k + 1):
            m = n - k - l
            coef = multinomial3(n, k, l, m) * pkk * pl[l] * pm[m]
            total += coef * (fkk * fl[l] * fm[m])
    return total


def _binom_sum(
    n: int,
    fk: Sequence[Fraction],
    fg: Sequence[Fraction],
    bk: int,
    bg: int,
) -> Fraction:
    """sum over k of C(n,k) fk[k] fg[n-k] bk^k bg^{n-k}."""
    pk, pg = _powers(bk, n), _powers(bg, n)
    total = Fraction(0)
    for k in range(n + 1):
        total += (comb(n, k) * pk[k] * pg[n - k]) * (fk[k] * fg[n - k])
    return total


def _validate_case(
    n: int,
    w: Sequence[int],
    y: Sequence[RationalLike],
    w_arity: int,
    y_arity: int,
    odd_only: bool,
) -> tuple[tuple[int, ...], tuple[Fraction, ...]]:
    if n < 0:
        raise ValueError("n must be >= 0")
    if len(w) != w_arity:
        raise ValueError(f"expected {w_arity} weight(s), got {len(w)}")
    wt = int_weights(w)
    if odd_only and any(v % 2 == 0 for v in wt):
        raise ValueError(f"this family requires odd weights, got {wt}")
    if len(y) != y_arity:
        raise ValueError(f"expected {y_arity} shift value(s), got {len(y)}")
    yt = tuple(v if isinstance(v, Fraction) else Fraction(v) for v in y)
    return wt, yt


def _checked(ev: Evaluator, w_arity: int, y_arity: int, odd_only: bool) -> Evaluator:
    def wrapper(n: int, w: Sequence[int], y: Sequence[RationalLike] = ()) -> Fraction:
        wt, yt = _validate_case(n, w, y, w_arity, y_arity, odd_only)
        return ev(n, wt, yt)

    return wrapper


# --------------------------------------------------------------------------
# Theorem templates.  Each factory takes a slot permutation (a, b, c) and
# returns the evaluator for that permuted form of the template.


def _t1_template(perm: Perm) -> Evaluator:
    # sum C(n;k,l,m) E_k(w_a y1) E_l(w_b y2) E_m(w_c y3)
    #     w_a^{l+m} w_b^{k+m} w_c^{k+l}
    a, b, c = perm

    def ev(n: int, w: Sequence[int], y: Sequence[Fraction]) -> Fraction:
        wa, wb, wc = w[a], w[b], w[c]
        ea = _euler_vec(wa * y[0], n)
        eb = _euler_vec(wb * y[1], n)
        ec = _euler_vec(wc * y[2], n)
        return _tri_sum(n, ea, eb, ec, wb * wc, wa * wc, wa * wb)

    return ev


def _t2_template(perm: Perm) -> Evaluator:
    # sum C(n;k,l,m) E_k(w_a y1) E_l(w_b y2) T_m(w_c - 1)
    #     w_a^{l+m} w_b^{k+m} w_c^{k+l}
    a, b, c = perm

    def ev(n: int, w: Sequence[int], y: Sequence[Fraction]) -> Fraction:
        wa, wb, wc = w[a], w[b], w[c]
        ea = _euler_vec(wa * y[0], n)
        eb = _euler_vec(wb * y[1], n)
        tc = _t_vec(wc - 1, n)
        return _tri_sum(n, ea, eb, tc, wb * wc, wa * wc, wa * wb)

    return ev


def _t5_template(perm: Perm) -> Evaluator:
    # w_c^n sum_k C(n,k) E_k(w_a y1)
    #     [sum_{i<w_c} (-1)^i E_{n-k}(w_b y2 + (w_b/w_c) i)] w_a^{n-k} w_b^k
    a, b, c = perm

    def ev(n: int, w: Sequence[int], y: Sequence[Fraction]) -> Fraction:
        wa, wb, wc = w[a], w[b], w[c]
        ea = _euler_vec(wa * y[0], n)
        shifted = _alt_shift_vec(wb * y[1], Fraction(wb, wc), wc, n)
        return wc**n * _binom_sum(n, ea, shifted, wb, wa)

    return ev


def _t8_template(perm: Perm) -> Evaluator:
    # sum C(n;k,l,m) E_k(w_a y1) T_l(w_b - 1) T_m(w_c - 1)
    #     w_a^{l+m} w_b^{k+m} w_c^{k+l}
    a, b, c = perm

    def ev(n: int, w: Sequence[int], y: Sequence[Fraction]) -> Fraction:
        wa, wb, wc = w[a], w[b], w[c]
        ea = _euler_vec(wa * y[0], n)
        tb = _t_vec(wb - 1, n)
        tc = _t_vec(wc - 1, n)
        return _tri_sum(n, ea, tb, tc, wb * wc, wa * wc, wa * wb)

    return ev


def _t11_template(perm: Perm) -> Evaluator:
    # w_a^n sum_k C(n,k) [sum_{i<w_a} (-1)^i E_k(w_b y1 + (w_b/w_a) i)]
    #     T_{n-k}(w_c - 1) w_b^{n-k} w_c^k
    a, b, c = perm

    def ev(n: int, w: Sequence[int], y: Sequence[Fraction]) -> Fraction:
        wa, wb, wc = w[a], w[b], w[c]
        shifted = _alt_shift_vec(wb * y[0], Fraction(wb, wa), wa, n)
        tc = _t_vec(wc - 1, n)
        return wa**n * _binom_sum(n, shifted, tc, wc, wb)

    return ev


def _t14_template(perm: Perm) -> Evaluator:
    # (w_a w_b)^n sum_{i<w_a} sum_{j<w_b} (-1)^{i+j}
    #     E_n(w_c y1 + (w_c/w_a) i + (w_c/w_b) j)
    a, b, c = perm

    def ev(n: int, w: Sequence[int], y: Sequence[Fraction]) -> Fraction:
        wa, wb, wc = w[a], w[b], w[c]
        base = wc * y[0]
        total = Fraction(0)
        for i in range(wa):
            partial = base + Fraction(wc * i, wa)
            for j in range(wb):
                value = _euler_vec(partial + Fraction(wc * j, wb), n)[n]
                total = total - value if (i + j) & 1 else total + value
        return (wa * wb) ** n * total

    return ev


def _t16_template(perm: Perm) -> Evaluator:
    # sum C(n;k,l,m) E_k(w_a y) E_l(w_b y) E_m(w_c y) w_c^k w_a^l w_b^m
    a, b, c = perm

    def ev(n: int, w: Sequence[int], y: Sequence[Fraction]) -> Fraction:
        wa, wb, wc = w[a], w[b], w[c]
        ea = _euler_vec(wa * y[0], n)
        eb = _euler_vec(wb * y[0], n)
        ec = _euler_vec(wc * y[0], n)
        return _tri_sum(n, ea, eb, ec, wc, wa, wb)

    return ev


def _t17_template(perm: Perm) -> Evaluator:
    # sum C(n;k,l,m) T_k(w_a - 1) T_l(w_b - 1) T_m(w_c - 1) w_c^k w_a^l w_b^m
    a, b, c = perm

    def ev(n: int, w: Sequence[int], y: Sequence[Fraction]) -> Fraction:
        wa, wb, wc = w[a], w[b], w[c]
        ta = _t_vec(wa - 1, n)
        tb = _t_vec(wb - 1, n)
        tc = _t_vec(wc - 1, n)
        return _tri_sum(n, ta, tb, tc, wc, wa, wb)

    return ev


def _triple_altsum(n: int, w: Sequence[int], y: Sequence[Fraction]) -> Fraction:
    # sum C(n;k,l,m) T_k(w1-1) T_l(w2-1) T_m(w3-1)
    #     w1^{l+m} w2^{k+m} w3^{k+l}; fully symmetric, no theorem attached.
    w1, w2, w3 = w
    t1 = _t_vec(w1 - 1, n)
    t2 = _t_vec(w2 - 1, n)
    t3 = _t_vec(w3 - 1, n)
    return _tri_sum(n, t1, t2, t3, w2 * w3, w1 * w3, w1 * w2)


# --------------------------------------------------------------------------
# Corollary variants, written out expression by expression.  These are kept
# independent (with the pinned weights already dropped), never built by
# delegating to the parent theorem at specialized weights; that way the
# specialization checks compare two genuinely different computations.


def _c3_variants() -> tuple[Evaluator, ...]:
    def v0(n, w, y):
        w1, w2 = w
        return _binom_sum(n, _euler_vec(w1 * y[0], n), _euler_vec(w2 * y[1], n), w2, w1)

    def v1(n, w, y):
        w1, w2 = w
        return _binom_sum(n, _euler_vec(w2 * y[0], n), _euler_vec(w1 * y[1], n), w1, w2)

    def v2(n, w, y):
        w1, w2 = w
        return _tri_sum(
            n, _euler_vec(y[0], n), _euler_vec(w2 * y[1], n), _t_vec(w1 - 1, n),
            w1 * w2, w1, w2,
        )

    def v3(n, w, y):
        w1, w2 = w
        return _tri_sum(
            n, _euler_vec(w2 * y[0], n), _euler_vec(y[1], n), _t_vec(w1 - 1, n),
            w1, w1 * w2, w2,
        )

    def v4(n, w, y):
        w1, w2 = w
        return _tri_sum(
            n, _euler_vec(y[0], n), _euler_vec(w1 * y[1], n), _t_vec(w2 - 1, n),
            w1 * w2, w2, w1,
        )

    def v5(n, w, y):
        w1, w2 = w
        return _tri_sum(
            n, _euler_vec(w1 * y[0], n), _euler_vec(y[1], n), _t_vec(w2 - 1, n),
            w2, w1 * w2, w1,
        )

    return (v0, v1, v2, v3, v4, v5)


def _c4_variants() -> tuple[Evaluator, ...]:
    def v0(n, w, y):
        (w1,) = w
        return _binom_sum(n, _euler_vec(w1 * y[0], n), _euler_vec(y[1], n), 1, w1)

    def v1(n, w, y):
        (w1,) = w
        return _binom_sum(n, _euler_vec(y[0], n), _euler_vec(w1 * y[1], n), w1, 1)

    def v2(n, w, y):
        (w1,) = w
        return _tri_sum(
            n, _euler_vec(y[0], n), _euler_vec(y[1], n), _t_vec(w1 - 1, n), w1, w1, 1
        )

    return (v0, v1, v2)


def _c6_variants() -> tuple[Evaluator, ...]:
    def v0(n, w, y):
        w1, w2 = w
        return _binom_sum(n, _euler_vec(w1 * y[0], n), _euler_vec(w2 * y[1], n), w2, w1)

    def v1(n, w, y):
        w1, w2 = w
        return _binom_sum(n, _euler_vec(w2 * y[0], n), _euler_vec(w1 * y[1], n), w1, w2)

    def v2(n, w, y):
        w1, w2 = w
        shifted = _alt_shift_vec(w2 * y[1], Fraction(w2, w1), w1, n)
        return w1**n * _binom_sum(n, _euler_vec(y[0], n), shifted, w2, 1)

    def v3(n, w, y):
        w1, w2 = w
        shifted = _alt_shift_vec(y[1], Fraction(1, w1), w1, n)
        return w1**n * _binom_sum(n, _euler_vec(w2 * y[0], n), shifted, 1, w2)

    def v4(n, w, y):
        w1, w2 = w
        shifted = _alt_shift_vec(w1 * y[1], Fraction(w1, w2), w2, n)
        return w2**n * _binom_sum(n, _euler_vec(y[0], n), shifted, w1, 1)

    def v5(n, w, y):
        w1, w2 = w
        shifted = _alt_shift_vec(y[1], Fraction(1, w2), w2, n)
        return w2**n * _binom_sum(n, _euler_vec(w1 * y[0], n), shifted, 1, w1)

    return (v0, v1, v2, v3, v4, v5)


def _c7_variants() -> tuple[Evaluator, ...]:
    def v0(n, w, y):
        (w1,) = w
        return _binom_sum(n, _euler_vec(y[0], n), _euler_vec(w1 * y[1], n), w1, 1)

    def v1(n, w, y):
        (w1,) = w
        return _binom_sum(n, _euler_vec(y[1], n), _euler_vec(w1 * y[0], n), w1, 1)

    def v2(n, w, y):
        (w1,) = w
        shifted = _alt_shift_vec(y[1], Fraction(1, w1), w1, n)
        return w1**n * _binom_sum(n, _euler_vec(y[0], n), shifted, 1, 1)

    return (v0, v1, v2)


def _c9_variants() -> tuple[Evaluator, ...]:
    def v0(n, w, y):
        w1, w2 = w
        return _binom_sum(n, _euler_vec(w1 * y[0], n), _t_vec(w2 - 1, n), w2, w1)

    def v1(n, w, y):
        w1, w2 = w
        return _binom_sum(n, _euler_vec(w2 * y[0], n), _t_vec(w1 - 1, n), w1, w2)

    def v2(n, w, y):
        w1, w2 = w
        return _tri_sum(
            n, _euler_vec(y[0], n), _t_vec(w1 - 1, n), _t_vec(w2 - 1, n),
            w1 * w2, w2, w1,
        )

    return (v0, v1, v2)


def _c10_variants() -> tuple[Evaluator, ...]:
    def v0(n, w, y):
        (w1,) = w
        return _euler_vec(w1 * y[0], n)[n]

    def v1(n, w, y):
        (w1,) = w
        return _binom_sum(n, _euler_vec(y[0], n), _t_vec(w1 - 1, n), w1, 1)

    return (v0, v1)


def _c12_variants() -> tuple[Evaluator, ...]:
    def v0(n, w, y):
        w1, w2 = w
        return w1**n * _alt_shift_vec(w2 * y[0], Fraction(w2, w1), w1, n)[n]

    def v1(n, w, y):
        w1, w2 = w
        return w2**n * _alt_shift_vec(w1 * y[0], Fraction(w1, w2), w2, n)[n]

    def v2(n, w, y):
        w1, w2 = w
        return _binom_sum(n, _euler_vec(w2 * y[0], n), _t_vec(w1 - 1, n), w1, w2)

    def v3(n, w, y):
        w1, w2 = w
        return _binom_sum(n, _euler_vec(w1 * y[0], n), _t_vec(w2 - 1, n), w2, w1)

    def v4(n, w, y):
        w1, w2 = w
        shifted = _alt_shift_vec(y[0], Fraction(1, w1), w1, n)
        return w1**n * _binom_sum(n, shifted, _t_vec(w2 - 1, n), w2, 1)

    def v5(n, w, y):
        w1, w2 = w
        shifted = _alt_shift_vec(y[0], Fraction(1, w2), w2, n)
        return w2**n * _binom_sum(n, shifted, _t_vec(w1 - 1, n), w1, 1)

    return (v0, v1, v2, v3, v4, v5)


def _c13_variants() -> tuple[Evaluator, ...]:
    def v0(n, w, y):
        (w1,) = w
        return _euler_vec(w1 * y[0], n)[n]

    def v1(n, w, y):
        (w1,) = w
        return w1**n * _alt_shift_vec(y[0], Fraction(1, w1), w1, n)[n]

    def v2(n, w, y):
        (w1,) = w
        return _binom_sum(n, _euler_vec(y[0], n), _t_vec(w1 - 1, n), w1, 1)

    return (v0, v1, v2)


def _c15_variants() -> tuple[Evaluator, ...]:
    def v0(n, w, y):
        w1, w2 = w
        return w1**n * _alt_shift_vec(w2 * y[0], Fraction(w2, w1), w1, n)[n]

    def v1(n, w, y):
        w1, w2 = w
        return w2**n * _alt_shift_vec(w1 * y[0], Fraction(w1, w2), w2, n)[n]

    def v2(n, w, y):
        w1, w2 = w
        total = Fraction(0)
        for i in range(w1):
            partial = y[0] + Fraction(i, w1)
            for j in range(w2):
                value = _euler_vec(partial + Fraction(j, w2), n)[n]
                total = total - value if (i + j) & 1 else total + value
        return (w1 * w2) ** n * total

    return (v0, v1, v2)


def _c18_variants() -> tuple[Evaluator, ...]:
    def v0(n, w, y):
        w1, w2 = w
        return _binom_sum(n, _t_vec(w2 - 1, n), _t_vec(w1 - 1, n), w1, 1)

    def v1(n, w, y):
        w1, w2 = w
        return _binom_sum(n, _t_vec(w1 - 1, n), _t_vec(w2 - 1, n), w2, 1)

    return (v0, v1)


def _intro_chain_variants() -> tuple[Evaluator, ...]:
    # The eight expressions of the two-weight chain, in chain order.
    def v0(n, w, y):
        w1, w2 = w
        return _binom_sum(n, _euler_vec(w1 * y[0], n), _t_vec(w2 - 1, n), w2, w1)

    def v1(n, w, y):
        w1, w2 = w
        return _binom_sum(n, _euler_vec(w2 * y[0], n), _t_vec(w1 - 1, n), w1, w2)

    def v2(n, w, y):
        w1, w2 = w
        return w1**n * _alt_shift_vec(w2 * y[0], Fraction(w2, w1), w1, n)[n]

    def v3(n, w, y):
        w1, w2 = w
        return w2**n * _alt_shift_vec(w1 * y[0], Fraction(w1, w2), w2, n)[n]

    def v4(n, w, y):
        w1, w2 = w
        return _tri_sum(
            n, _euler_vec(y[0], n), _t_vec(w1 - 1, n), _t_vec(w2 - 1, n),
            w1 * w2, w2, w1,
        )

    def v5(n, w, y):
        w1, w2 = w
        shifted = _alt_shift_vec(y[0], Fraction(1, w1), w1, n)
        return w1**n * _binom_sum(n, shifted, _t_vec(w2 - 1, n), w2, 1)

    def v6(n, w, y):
        w1, w2 = w
        shifted = _alt_shift_vec(y[0], Fraction(1, w2), w2, n)
        return w2**n * _binom_sum(n, shifted, _t_vec(w1 - 1, n), w1, 1)

    def v7(n, w, y):
        w1, w2 = w
        total = Fraction(0)
        for i in range(w1):
            partial = y[0] + Fraction(i, w1)
            for j in range(w2):
                value = _euler_vec(partial + Fraction(j, w2), n)[n]
                total = total - value if (i + j) & 1 else total + value
        return (w1 * w2) ** n * total

    return (v0, v1, v2, v3, v4, v5, v6, v7)


# --------------------------------------------------------------------------
# The catalog.


@dataclass(frozen=True)
class IdentityFamily:
    """One theorem or corollary: its equal expressions and constraints."""

    family_id: str
    w_arity: int
    y_arity: int
    odd_only: bool
    variants: tuple[Evaluator, ...]
    expected_orbit_size: int | None = None
    orbit_template: str | None = None

    def __post_init__(self) -> None:
        if self.expected_orbit_size is not None:
            if len(self.variants) != self.expected_orbit_size:
                raise ValueError(
                    f"{self.family_id}: {len(self.variants)} variants but "
                    f"expected orbit size {self.expected_orbit_size}"
                )
        if self.orbit_template is not None:
            if EXPECTED_ORBIT_SIZES[self.orbit_template] != self.expected_orbit_size:
                raise ValueError(f"{self.family_id}: template/orbit size mismatch")


def _theorem_family(
    family_id: str,
    template: Callable[[Perm], Evaluator],
    perms: Sequence[Perm],
    w_arity: int,
    y_arity: int,
    odd_only: bool,
    orbit_template: str,
) -> IdentityFamily:
    variants = tuple(
        _checked(template(p), w_arity, y_arity, odd_only) for p in perms
    )
    return IdentityFamily(
        family_id=family_id,
        w_arity=w_arity,
        y_arity=y_arity,
        odd_only=odd_only,
        variants=variants,
        expected_orbit_size=len(perms),
        orbit_template=orbit_template,
    )


def _corollary_family(
    family_id: str,
    raw_variants: tuple[Evaluator, ...],
    w_arity: int,
    y_arity: int,
) -> IdentityFamily:
    variants = tuple(_checked(ev, w_arity, y_arity, True) for ev in raw_variants)
    return IdentityFamily(
        family_id=family_id,
        w_arity=w_arity,
        y_arity=y_arity,
        odd_only=True,
        variants=variants,
        expected_orbit_size=len(raw_variants),
    )


# Variant order follows each family's equality chain.
_T1_PERMS = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))
_T2_PERMS = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 1, 0), (2, 0, 1))
_T5_PERMS = ((2, 1, 0), (1, 2, 0), (2, 0, 1), (0, 2, 1), (1, 0, 2), (0, 1, 2))
_T11_PERMS = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))
_T16_PERMS = ((0, 1, 2), (0, 2, 1))
_T17_PERMS = ((0, 1, 2), (0, 2, 1))

FAMILIES: dict[str, IdentityFamily] = {
    fam.family_id: fam
    for fam in (
        _theorem_family("T1", _t1_template, _T1_PERMS, 3, 3, False, "eee"),
        _theorem_family("T2", _t2_template, _T2_PERMS, 3, 2, True, "eet"),
        _corollary_family("C3", _c3_variants(), 2, 2),
        _corollary_family("C4", _c4_variants(), 1, 2),
        _theorem_family("T5", _t5_template, _T5_PERMS, 3, 2, True, "e-shift"),
        _corollary_family("C6", _c6_variants(), 2, 2),
        _corollary_family("C7", _c7_variants(), 1, 2),
        _theorem_family("T8", _t8_template, CYCLIC_PERMS, 3, 1, True, "ett"),
        _corollary_family("C9", _c9_variants(), 2, 1),
        _corollary_family("C10", _c10_variants(), 1, 1),
        _theorem_family("T11", _t11_template, _T11_PERMS, 3, 1, True, "shift-t"),
        _corollary_family("C12", _c12_variants(), 2, 1),
        _corollary_family("C13", _c13_variants(), 1, 1),
        _theorem_family("T14", _t14_template, CYCLIC_PERMS, 3, 1, True, "double-shift"),
        _corollary_family("C15", _c15_variants(), 2, 1),
        _theorem_family("T16", _t16_template, _T16_PERMS, 3, 1, False, "eee-cyclic"),
        _theorem_family("T17", _t17_template, _T17_PERMS, 3, 0, True, "ttt-cyclic"),
        _corollary_family("C18", _c18_variants(), 2, 0),
        IdentityFamily(
            family_id="INTRO_CHAIN",
            w_arity=2,
            y_arity=1,
            odd_only=True,
            variants=tuple(_checked(ev, 2, 1, True) for ev in _intro_chain_variants()),
        ),
    )
}

FAMILY_IDS: tuple[str, ...] = tuple(FAMILIES)

# For each theorem, the generating-function series whose coefficient vector
# the family expands, together with the variant form that matches the
# series expansion literally: (series family, sub-index, evaluator).
SERIES_ORACLES: dict[str, tuple[str, int | None, Evaluator]] = {
    "T1": ("L23", 0, _checked(_t1_template((0, 1, 2)), 3, 3, False)),
    "T2": ("L23", 1, _checked(_t2_template((0, 1, 2)), 3, 2, True)),
    "T5": ("L23", 1, _checked(_t5_template((0, 1, 2)), 3, 2, True)),
    "T8": ("L23", 2, _checked(_t8_template((0, 1, 2)), 3, 1, True)),
    "T11": ("L23", 2, _checked(_t11_template((1, 0, 2)), 3, 1, True)),
    "T14": ("L23", 2, _checked(_t14_template((1, 2, 0)), 3, 1, True)),
    "T16": ("L12_0", None, _checked(_t16_template((1, 2, 0)), 3, 1, False)),
    "T17": ("L12_1", None, _checked(_t17_template((1, 2, 0)), 3, 0, True)),
}

# Corollary -> (parent theorem, number of trailing parent weights pinned
# to 1); specialization checks compare values across this map.
PARENT_SPECIALIZATIONS: dict[str, tuple[str, int]] = {
    "C3": ("T2", 1),
    "C4": ("T2", 2),
    "C6": ("T5", 1),
    "C7": ("T5", 2),
    "C9": ("T8", 1),
    "C10": ("T8", 2),
    "C12": ("T11", 1),
    "C13": ("T11", 2),
    "C15": ("T14", 1),
    "C18": ("T17", 1),
}


# --------------------------------------------------------------------------
# Reports and case evaluation.


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one (family, parameters) case: all variant values, exact."""

    family_id: str
    n: int
    w: tuple[int, ...]
    y: tuple[Fraction, ...]
    variant_values: tuple[Fraction, ...]
    all_equal: bool
    orbit_size_checked: bool = False

    def __post_init__(self) -> None:
        first = self.variant_values[0]
        actual = all(v == first for v in self.variant_values[1:])
        if actual != self.all_equal:
            raise ValueError("all_equal flag contradicts the variant values")


def variant_values(
    family_id: str,
    n: int,
    w: Sequence[int],
    y: Sequence[RationalLike] = (),
    families: Mapping[str, IdentityFamily] | None = None,
) -> tuple[Fraction, ...]:
    catalog = FAMILIES if families is None else families
    try:
        fam = catalog[family_id]
    except KeyError:
        raise ValueError(f"unknown family {family_id!r}") from None
    return tuple(ev(n, w, y) for ev in fam.variants)


def check_case(
    family_id: str,
    n: int,
    w: Sequence[int],
    y: Sequence[RationalLike] = (),
    orbit_size_checked: bool = False,
    families: Mapping[str, IdentityFamily] | None = None,
) -> VerificationReport:
    values = variant_values(family_id, n, w, y, families)
    first = values[0]
    return VerificationReport(
        family_id=family_id,
        n=n,
        w=int_weights(w),
        y=tuple(Fraction(v) for v in y),
        variant_values=values,
        all_equal=all(v == first for v in values[1:]),
        orbit_size_checked=orbit_size_checked,
    )


# --------------------------------------------------------------------------
# Direct per-variant entry points.


def _require_perm(perm: Sequence[int]) -> Perm:
    p = tuple(perm)
    if p not in ALL_PERMS:
        raise ValueError(f"perm must be a permutation of (0, 1, 2), got {perm!r}")
    return p  # type: ignore[return-value]


def eval_t1_variant(
    perm: Sequence[int], n: int, w: Sequence[int], y: Sequence[RationalLike]
) -> Fraction:
    """T1 expression for the given slot permutation (any positive weights)."""
    return _checked(_t1_template(_require_perm(perm)), 3, 3, False)(n, w, y)


def eval_t2_variant(
    perm: Sequence[int], n: int, w: Sequence[int], y: Sequence[RationalLike]
) -> Fraction:
    """T2 expression for the given slot permutation (odd weights)."""
    return _checked(_t2_template(_require_perm(perm)), 3, 2, True)(n, w, y)


def eval_t5_variant(
    perm: Sequence[int], n: int, w: Sequence[int], y: Sequence[RationalLike]
) -> Fraction:
    """T5 expression for the given slot permutation (odd weights)."""
    return _checked(_t5_template(_require_perm(perm)), 3, 2, True)(n, w, y)


def eval_t8_variant(
    perm: Sequence[int], n: int, w: Sequence[int], y1: RationalLike
) -> Fraction:
    """T8 expression; the family lists the three cyclic forms, but any of
    the six permutations is accepted (the odd ones are the duplicates that
    collapse onto the cyclic forms under bound-index renaming)."""
    return _checked(_t8_template(_require_perm(perm)), 3, 1, True)(n, w, (y1,))


def eval_t11_variant(
    perm: Sequence[int], n: int, w: Sequence[int], y1: RationalLike
) -> Fraction:
    """T11 expression for the given slot permutation (odd weights)."""
    return _checked(_t11_template(_require_perm(perm)), 3, 1, True)(n, w, (y1,))


def eval_t14_variant(
    perm: Sequence[int], n: int, w: Sequence[int], y1: RationalLike
) -> Fraction:
    """T14 expression; three cyclic forms are canonical, all six accepted."""
    return _checked(_t14_template(_require_perm(perm)), 3, 1, True)(n, w, (y1,))


def eval_t16_variant(
    perm: Sequence[int], n: int, w: Sequence[int], y: RationalLike
) -> Fraction:
    """T16 expression; two canonical forms, all six permutations accepted
    (any positive weights)."""
    return _checked(_t16_template(_require_perm(perm)), 3, 1, False)(n, w, (y,))


def eval_t17_variant(perm: Sequence[int], n: int, w: Sequence[int]) -> Fraction:
    """T17 expression; two canonical forms, all six permutations accepted."""
    return _checked(_t17_template(_require_perm(perm)), 3, 0, True)(n, w, ())


def eval_corollary(
    corollary_id: str,
    variant_index: int,
    n: int,
    w: Sequence[int],
    y: Sequence[RationalLike] = (),
) -> Fraction:
    """Evaluate one expression of a corollary's equality chain."""
    if corollary_id not in PARENT_SPECIALIZATIONS:
        raise ValueError(f"unknown corollary {corollary_id!r}")
    fam = FAMILIES[corollary_id]
    if not 0 <= variant_index < len(fam.variants):
        raise ValueError(
            f"{corollary_id} has {len(fam.variants)} variants; "
            f"index {variant_index} is out of range"
        )
    return fam.variants[variant_index](n, w, y)


def eval_intro_chain(
    variant_index: int, n: int, w1: int, w2: int, y1: RationalLike
) -> Fraction:
    """Evaluate one of the eight expressions of the two-weight chain."""
    fam = FAMILIES["INTRO_CHAIN"]
    if not 0 <= variant_index < len(fam.variants):
        raise ValueError(f"variant index must be 0..7, got {variant_index}")
    return fam.variants[variant_index](n, (w1, w2), (y1,))


def eval_triple_altsum(n: int, w: Sequence[int]) -> Fraction:
    """The fully symmetric three-factor alternating-power-sum expression
    (orbit size 1, hence no symmetry identities; used as a series oracle)."""
    return _checked(_triple_altsum, 3, 0, True)(n, w, ())
