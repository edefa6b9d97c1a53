"""Catalog of the symmetry-identity families and their exact evaluators.

Each family bundles the finitely many expressions ("variants") that one
theorem or corollary asserts equal.  Every variant is described once, as a
term of the vocabulary in ``orbits``, and compiled at import into its own
evaluator ``(n, w, y) -> Fraction`` whose ``.grid`` form gives, in one
call, the values at n = 0..n_max of every cell (w, y) of a grid of weight
tuples and y windows.  No variant's value is derived from
another's, because independent computation of the allegedly equal
expressions is the point: two variants share a value only when they are
the same expression at the same numbers (below).  Every term, of one to
three factors, is [t^n] prod_b F_b(beta_b t) for its base monomials
beta_b, into which ``orbits.term`` has folded the paper's scale: the
factor vectors, held as integer numerators over one denominator, are
rescaled by powers of the bases and folded by the integer binomial
convolution of ``egf_series``, which the series oracles never run; each
distinct value is one ``Fraction`` per table (below).  ``_check_grid``
gives a family's report rows over a whole grid, from one ``.grid`` call
per variant: a sweep makes one call per family.  ``check_cases`` is the
grid of one (w, y), each row wrapped in a ``VerificationReport``, and
``check_case`` and ``variant_values`` read its row n.

Factor vectors: E is ``euler.euler_values`` and T the alternating power
sums.  A, an alternating sum of E_k over a grid of shifted arguments of
one or two counts, comes from ``_alt_vec``: it puts every argument over
one denominator and computes the whole signed sum as one integer binomial
convolution of the scaled Euler numbers 2^k E_k with the signed power sums
of the arguments' numerators.

One table per sweep.  Each factor depends on one or two of the weights,
and a sweep's weight grid is closed under permutation, so a sweep meets
the same factor vector, and the same resolved term (one template
permutation at w is another at a permuted w), many times.  A *table*, a
``_Table``, serves one ``n_max`` and holds both, and the values, in one
map each.  It also holds Pascal's rows C(k, 0..k), k = 0..n_max, built
when it is made, which every fold and every A vector of the table
convolves against.  ``factors`` maps a factor's key, everything its vector
depends on in ints (kind, monomial value, the shifts it reads as
(numerator, denominator) pairs, count weights), to the vector as
``(nums, d)``; one rule keys every kind.  ``terms``
maps a term's key, (shape, the weights and the shifts it reads), for any
number of slots, to the term's values: the shape holds each bundle's kind
and the lengths of its monomial, counts and base, which group the weights
read at those slots, and the shifts its factors read: one for each E and
A, none for a T.  Equal term keys are the same expression at the same
numbers.  ``_plan`` is the one walk over a term, made when it is compiled:
it gives the shape, the weight slots and shift indices read, the parity
rule below and the miss plan.  Only a miss on a term key builds the factor
keys and bases, and it takes them from the weights and shifts in that key,
at the places the plan fixed, with no walk over the term's tuples.  Each
miss builds and stores; a hit returns the stored values, so nothing is
inferred through the substitution lemma or the orbit normal form.  Every
variant is still folded on its own, but the theorems make almost every
value recur, so ``values`` maps each value's (numerator, denominator) to
one ``Fraction``: a fold's entry with the same exact integers as one
already built is that object.  The key is that ``Fraction``'s own
numerator and denominator ints, so a value holds its integers once.
Shifts enter keys as (numerator, denominator) pairs, which hash in C
where a ``Fraction`` hashes in Python; ``_check_grid`` makes them once per
y window, so the term keys of the window share them, and a ``.grid`` call
reads each weight tuple and each window once, not once per cell.
``cli._family_sweeps`` hands one table to each family's step of a
sweep, for ``verify`` and ``cli.run_sweep`` alike, and drops it when the
sweep ends; a call of ``check_cases`` has one table, shared by its
variants, and ``eval_variant``, which the ``SERIES_ORACLES`` evaluators
call, gives each call a fresh one.  Nothing is cached at module level.

Every family is a row of terms, built by ``IdentityFamily.from_terms``,
which walks each term once, for both its plan and its compiled variant:
its weight and shift arities are the slots and shifts the terms read,
and it takes odd weights only if a term has a T or an A factor
(``orbits``).
* A theorem's row is its ``orbits.ORBIT_TEMPLATES`` template at the
  permutations it lists in chain order, one per orbit class, and its orbit
  size is the template's.  The template, not the id, drives the orbit audit
  and the series oracle, so a family in any catalog gets both:
  ``_TEMPLATE_SERIES`` pairs the template with its series: every
  expression of the family at n is that series' coefficient n.
  ``_oracle_holds`` checks this on the rows a sweep has already
  computed, at their last cell (w, y), which it finds in them, and
  ``SERIES_ORACLES`` gives the family's first variant per n.
* A corollary's row is written at the pinned weights (slot 0 is w1, slot 1
  is w2), never as the parent at pinned weights, so the specialization
  checks compare two computations.  The parent's weights past its own are
  pinned to 1.  A row repeating another row's expression names its term.

``w`` is a tuple of positive integer weights and ``y`` a tuple of exact
shift values (``int`` or ``Fraction``).  A permutation is a tuple of
0-based slots: (1, 0, 2) reads the roles (a, b, c) as (w2, w1, w3).

Family ids: T1, T2, T5, T8, T11, T14, T16, T17 are the three-weight
theorems; C3, C4, C6, C7, C9, C10, C12, C13, C15, C18 the corollaries
obtained by pinning trailing weights to 1; INTRO_CHAIN is the eight-way
equality chain in two weights that the corollaries C9/C12/C15 combine into.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from math import gcd, prod
from operator import itemgetter, mul
from typing import Callable, Sequence

from . import altsum, euler
from .egf_series import _binomial_conv, _over_common_denominator, _pascal_rows, lambda_series
from .exact_arith import RationalLike, case_args, count
from .orbits import (
    ALL_PERMS, EXPECTED_ORBIT_SIZES, ORBIT_TEMPLATES, A, E, Perm, T, Term,
    substitute, term,
)

__all__ = [
    "IdentityFamily", "VerificationReport", "FAMILIES", "FAMILY_IDS", "SERIES_ORACLES",
    "PARENT_SPECIALIZATIONS", "variant_values", "check_case", "check_cases", "eval_variant",
    "eval_triple_altsum",
]

Evaluator = Callable[[int, Sequence[int], Sequence[Fraction]], Fraction]
# A coefficient vector as integer numerators over one denominator, (nums, d).
Form = tuple[list[int], int]
# A shift value as its (numerator, denominator).
Shift = tuple[int, int]

# --------------------------------------------------------------------------
# Building blocks.  _euler_vec, _tval and _alt_vec are module-level seams,
# looked up on each factor-table miss, so that a deliberately perturbed
# stand-in can be injected to prove the checks are not vacuous (see the
# negative-control tests).


def _euler_vec(x: RationalLike, n_max: int) -> Sequence[Fraction]:
    """(E_0(x), ..., E_{n_max}(x))."""
    return euler.euler_values(x, n_max)


def _tval(k: int, upper: int) -> Fraction:
    """T_k(upper)."""
    return altsum.alt_power_sum(k, upper)


def _alt_vec(base: Fraction, m: int, counts: Sequence[int],
             rows: Sequence[list[int]]) -> list[Fraction]:
    """Entry k, for k = 0..n_max, is
    sum_{i<c1} sum_{j<c2} (-1)^{i+j} E_k(base + (m/c1) i + (m/c2) j)
    for counts (c1, c2), or the single sum over i for counts (c1,); ``rows``
    lists Pascal's rows C(k, 0..k) for k = 0..n_max (a table's ``rows``).

    Every argument is p_s/q over q = den(base) c1 c2, and by the Appell form
    (2q)^k E_k(p/q) = sum_j C(k, j) g_{k-j} q^{k-j} (2p)^j with g_k = 2^k E_k,
    so the signed sum is one integer ``_binomial_conv`` of (g_k q^k) with the
    signed power sums (sum_s (-1)^{i+j} (2 p_s)^j), over (2q)^k."""
    n_max = len(rows) - 1
    c1, c2 = (*counts, 1)[:2]
    q = base.denominator * c1 * c2
    p0, step = 2 * base.numerator * c1 * c2, 2 * m * base.denominator
    points = [p0 + step * (c2 * i + c1 * j) for i in range(c1) for j in range(c2)]
    terms = [-1 if (i + j) & 1 else 1 for i in range(c1) for j in range(c2)]
    sums = []
    for _ in range(n_max + 1):
        sums.append(sum(terms))
        terms = list(map(mul, terms, points))
    q_pows = [q**k for k in range(n_max + 1)]
    nums = _binomial_conv(list(map(mul, euler.scaled_numbers(n_max), q_pows)), sums, rows)
    return [Fraction(c, qk << k) for k, (c, qk) in enumerate(zip(nums, q_pows))]


class _Table:
    """The exact store of one sweep, or of one call, at one ``n_max``:
    ``rows``, Pascal's rows C(k, 0..k) for k = 0..n_max, built here, and
    the maps ``factors`` (factor key -> ``(nums, d)``), ``terms`` (term
    key -> values) and ``values`` ((numerator, denominator), the
    ``Fraction``'s own ints -> that ``Fraction``), as the module docstring
    gives them."""

    __slots__ = ("n_max", "rows", "factors", "terms", "values")

    def __init__(self, n_max: int) -> None:
        self.n_max = n_max
        self.rows = list(_pascal_rows(n_max))
        self.factors: dict[tuple, Form] = {}
        self.terms: dict[tuple, list[Fraction]] = {}
        self.values: dict[tuple[int, int], Fraction] = {}


def _product_vec(forms: Sequence[Form], bases: Sequence[int], table: _Table) -> list[Fraction]:
    """Coefficients 0..table.n_max of prod_b F_b(base_b t) in t^n/n!,
    forms[b] holding at least those coefficients of F_b as integer
    numerators over one denominator, ``(nums, d)``: in one pass over the
    factors, each numerator vector is rescaled by base^k and convolved into
    the product so far, cut to n_max + 1 entries, by ``_binomial_conv``,
    against ``table.rows``.  Each entry is reduced to its (numerator,
    denominator) pair, which ``table.values`` maps to the one ``Fraction``
    of that value; a miss builds it and stores it under its own numerator
    and denominator ints, not the pair it was looked up by, so the value
    holds its integers once.

    Any linear exponent pattern in the weights factors into one integer
    base per factor, which is how callers encode patterns like
    w1^{l+m} w2^{k+m} w3^{k+l} (there the bases are w2*w3, w1*w3, w1*w2).
    """
    rows = table.rows
    product: list[int] | None = None
    den = 1
    for (nums, d), base in zip(forms, bases):
        if base != 1:
            scaled, power = [], 1
            for c in nums:
                scaled.append(c * power)
                power *= base
            nums = scaled
        product = nums[:len(rows)] if product is None else _binomial_conv(product, nums, rows)
        den *= d
    known = table.values
    values = []
    for c in product:
        g = gcd(c, den)
        value = known.get((c // g, den // g))
        if value is None:
            value = Fraction(c, den)
            known[value.numerator, value.denominator] = value
        values.append(value)
    return values


# --------------------------------------------------------------------------
# The compiler from terms to evaluators.  A term's key is read by item
# getters; its factor keys and bases are built, from that key and the
# term's miss plan, only when the key misses.


# Key kind -> the table and the key's fields after the kind -> the vector at
# 0..table.n_max, through the seams above.  Every kind's fields follow one
# rule (``_plan``): the monomial value, the shifts the factor reads, each as
# (numerator, denominator), then its count weights.  A new kind needs only
# a row here.
_BUILD: dict[str, Callable[..., Sequence[Fraction]]] = {
    "T": lambda table, a: [_tval(k, a - 1) for k in range(table.n_max + 1)],
    "E": lambda table, a, s: _euler_vec(a * Fraction(*s), table.n_max),
    "A": lambda table, a, s, *counts: _alt_vec(a * Fraction(*s), a, counts, table.rows),
}


def _shifts(y: Sequence[Fraction]) -> tuple[Shift, ...]:
    return tuple((s.numerator, s.denominator) for s in y)


def _plan(t: Term) -> tuple[str, list[int], list[int], bool, tuple[tuple, ...]]:
    """The one walk over a term: its shape, the weight slots and the shift
    indices it reads, in bundle order, whether a T or an A factor makes it
    need odd weights, and its miss plan.  The plan holds, per bundle, its
    kind, the bounds m0 <= c0 <= b0 <= b1 of its monomial kw[m0:c0], counts
    kw[c0:b0] and base kw[b0:b1] in the weights kw read at those slots, and
    the bounds j0 <= j1 of its shifts ky[j0:j1] in the shifts ky read.  For
    every kind the factor key is (kind, prod(kw[m0:c0]), *ky[j0:j1],
    *kw[c0:b0]) and the base prod(kw[b0:b1])."""
    shape, w_slots, y_slots, plan = [], [], [], []
    for (kind, m, js, counts), base in t:
        shape.append(f"{kind}{len(m)}.{len(counts)}.{len(base)}")
        m0 = len(w_slots)
        c0 = m0 + len(m)
        b0 = c0 + len(counts)
        w_slots += (*m, *counts, *base)
        j0 = len(y_slots)
        y_slots += js
        plan.append((kind, m0, c0, b0, len(w_slots), j0, len(y_slots)))
    return (" ".join(shape), w_slots, y_slots,
            any(kind != "E" for kind, *_ in plan), tuple(plan))


def _compile(walk: tuple) -> Evaluator:
    """(n, w, y) -> the value at n, with ``.grid`` (w_tuples, windows, table)
    -> the values at 0..table.n_max of every cell (w, y) of a grid, w outer
    and y inner as in ``_check_grid``'s rows, for the ``_shifts`` of each y
    window, of the term t whose walk ``_plan(t)`` is: its [t^n] prod
    F_b(beta_b t) (any scale is folded into the bases).  ``.grid`` reads
    each weight tuple and each window once, and the per-n form is a grid of
    one cell.

    ``table.terms`` maps the term's key (shape, read_w(w), read_y(y)), as
    the module docstring gives it, to the values; the shape, the slots read
    and the miss plan come from the term's one walk, ``_plan``.  A miss
    takes each bundle's factor key and base from that key's weights and
    shifts, at the ranges the plan fixed, by one rule for every kind: a
    factor key is (kind, the product of the monomial's weights, the shift
    pairs the factor reads, its count weights), everything its vector
    depends on at the table's n_max, and a base the product of its
    weights.  The miss folds the factor vectors, each read from
    ``table.factors`` or built through ``_BUILD`` and stored there, and
    stores the values.  The returned lists are the table's and are not to
    be mutated."""
    shape, w_slots, y_slots, _, plan = walk
    # itemgetter() raises on no index; on one it gives the bare item (the shape fixes the count),
    # which a miss reads back in a tuple.
    read_w, read_y = (itemgetter(*ix) if ix else lambda seq: () for ix in (w_slots, y_slots))
    one_w, one_y = len(w_slots) == 1, len(y_slots) == 1

    def grid(w_tuples: Sequence[Sequence[int]], windows: Sequence[Sequence[Shift]],
             table: _Table) -> list[list[Fraction]]:
        terms, factors = table.terms, table.factors
        # Each window's read shifts, as the key holds them and as a miss reads them.
        ys = [(ky, (ky,) if one_y else ky) for ky in map(read_y, windows)]
        cells = []
        for w in w_tuples:
            kw = read_w(w)
            kws = (kw,) if one_w else kw
            for ky, kys in ys:
                key = (shape, kw, ky)
                values = terms.get(key)
                if values is None:
                    forms, bases = [], []
                    for kind, m0, c0, b0, b1, j0, j1 in plan:
                        fkey = (kind, prod(kws[m0:c0]), *kys[j0:j1], *kws[c0:b0])
                        form = factors.get(fkey)
                        if form is None:
                            form = factors[fkey] = _over_common_denominator(
                                _BUILD[kind](table, *fkey[1:]))
                        forms.append(form)
                        bases.append(prod(kws[b0:b1]))
                    values = terms[key] = _product_vec(forms, bases, table)
                cells.append(values)
        return cells

    def evaluate(n: int, w: Sequence[int], y: Sequence[Fraction]) -> Fraction:
        return grid((w,), (_shifts(y),), _Table(n))[0][n]

    evaluate.grid = grid  # type: ignore[attr-defined]
    return evaluate


# --------------------------------------------------------------------------
# Corollary rows: terms at the pinned weights, slot 0 is w1 and slot 1 is w2.

_C6 = (
    term((E((0,), 0), (1,)), (E((1,), 1), (0,))),
    term((E((1,), 0), (0,)), (E((0,), 1), (1,))),
    term((E((), 0), (1,)), (A((1,), 1, 0), ()), scale=(0,)),
    term((E((1,), 0), ()), (A((), 1, 0), (1,)), scale=(0,)),
    term((E((), 0), (0,)), (A((0,), 1, 1), ()), scale=(1,)),
    term((E((0,), 0), ()), (A((), 1, 1), (0,)), scale=(1,)),
)
_C3 = _C6[:2] + (
    term((E((), 0), (0, 1)), (E((1,), 1), (0,)), (T(0), (1,))),
    term((E((1,), 0), (0,)), (E((), 1), (0, 1)), (T(0), (1,))),
    term((E((), 0), (0, 1)), (E((0,), 1), (1,)), (T(1), (0,))),
    term((E((0,), 0), (1,)), (E((), 1), (0, 1)), (T(1), (0,))),
)
_C7 = (
    term((E((), 0), (0,)), (E((0,), 1), ())),
    term((E((), 1), (0,)), (E((0,), 0), ())),
    term((E((), 0), ()), (A((), 1, 0), ()), scale=(0,)),
)
_C4 = (
    term((E((0,), 0), ()), (E((), 1), (0,))),
    _C7[0],
    term((E((), 0), (0,)), (E((), 1), (0,)), (T(0), ())),
)
_C9 = (
    term((E((0,), 0), (1,)), (T(1), (0,))),
    term((E((1,), 0), (0,)), (T(0), (1,))),
    term((E((), 0), (0, 1)), (T(0), (1,)), (T(1), (0,))),
)
_C12 = (
    term((A((1,), 0, 0), ()), scale=(0,)),
    term((A((0,), 0, 1), ()), scale=(1,)),
    _C9[1], _C9[0],
    term((A((), 0, 0), (1,)), (T(1), ()), scale=(0,)),
    term((A((), 0, 1), (0,)), (T(0), ()), scale=(1,)),
)
_C13 = (
    term((E((0,), 0), ())),
    term((A((), 0, 0), ()), scale=(0,)),
    term((E((), 0), (0,)), (T(0), ())),
)
_C10 = (_C13[0], _C13[2])
_C15 = _C12[:2] + (term((A((), 0, 0, 1), ()), scale=(0, 1)),)
_C18 = (term((T(1), (0,)), (T(0), ())), term((T(0), (1,)), (T(1), ())))
# The eight expressions of the two-weight chain, in chain order.
_INTRO_CHAIN = (_C9[0], _C9[1], _C12[0], _C12[1], _C9[2], _C12[4], _C12[5], _C15[2])


@dataclass(frozen=True)
class IdentityFamily:
    """One theorem or corollary: its equal expressions and constraints, as
    ``from_terms`` reads them off its row of terms.  A theorem's variants
    number the orbit size of its template, and ``perms`` holds the template
    permutation of each; other families have neither."""

    family_id: str
    w_arity: int
    y_arity: int
    odd_only: bool
    variants: tuple[Evaluator, ...]
    orbit_template: str | None = None
    perms: tuple[Perm, ...] = ()

    @classmethod
    def from_terms(cls, family_id: str, row: Sequence[Term], template: str | None = None,
                   perms: tuple[Perm, ...] = ()) -> IdentityFamily:
        """The family of ``row``, one compiled variant per term: its arities one past
        the largest weight slot and shift index a term's plan reads, odd-only if a
        term's plan needs it.  Each term is walked once: its variant is compiled from
        the same plan."""
        plans = list(map(_plan, row))
        w_arity, y_arity = (1 + max((ix for p in plans for ix in p[k]), default=-1) for k in (1, 2))
        return cls(family_id, w_arity, y_arity, any(p[3] for p in plans),
                   tuple(map(_compile, plans)), template, perms)

    @property
    def expected_orbit_size(self) -> int | None:  # None without a template
        return EXPECTED_ORBIT_SIZES.get(self.orbit_template)

    def __post_init__(self) -> None:
        template, size = self.orbit_template, self.expected_orbit_size
        if template is not None and size is None:
            raise ValueError(f"{self.family_id}: unknown orbit template {template!r}")
        if size is not None and len(self.variants) != size:
            raise ValueError(
                f"{self.family_id}: {len(self.variants)} variants but expected orbit size {size}"
            )


# Theorem -> (template, perms in chain order).
_THEOREMS: dict[str, tuple[str, tuple[Perm, ...]]] = {
    "T1": ("eee", ALL_PERMS),
    "T2": ("eet", ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 1, 0), (2, 0, 1))),
    "T5": ("e-shift", ((2, 1, 0), (1, 2, 0), (2, 0, 1), (0, 2, 1), (1, 0, 2), (0, 1, 2))),
    "T8": ("ett", ((0, 1, 2), (1, 2, 0), (2, 0, 1))),
    "T11": ("shift-t", ALL_PERMS),
    "T14": ("double-shift", ((0, 1, 2), (1, 2, 0), (2, 0, 1))),
    "T16": ("eee-cyclic", ((0, 1, 2), (0, 2, 1))),
    "T17": ("ttt-cyclic", ((0, 1, 2), (0, 2, 1))),
}

# Corollary -> (parent theorem, row); the parent's weights past the row's are pinned to 1.
_COROLLARIES: dict[str, tuple[str, tuple[Term, ...]]] = {
    "C3": ("T2", _C3), "C4": ("T2", _C4), "C6": ("T5", _C6), "C7": ("T5", _C7),
    "C9": ("T8", _C9), "C10": ("T8", _C10), "C12": ("T11", _C12), "C13": ("T11", _C13),
    "C15": ("T14", _C15), "C18": ("T17", _C18),
}

FAMILIES: dict[str, IdentityFamily] = {
    fid: IdentityFamily.from_terms(
        fid, [substitute(ORBIT_TEMPLATES[template], p) for p in perms], template, perms)
    for fid, (template, perms) in _THEOREMS.items()
}
FAMILIES.update({cid: IdentityFamily.from_terms(cid, row)
                 for cid, (_, row) in _COROLLARIES.items()})
# In the numbering of the source, theorems and corollaries interleaved.
FAMILIES = dict(sorted(FAMILIES.items(), key=lambda item: int(item[0][1:])))
FAMILIES["INTRO_CHAIN"] = IdentityFamily.from_terms("INTRO_CHAIN", _INTRO_CHAIN)

# Specialization checks compare values across this map: corollary ->
# (parent, how many trailing parent weights are pinned to 1).
PARENT_SPECIALIZATIONS: dict[str, tuple[str, int]] = {
    cid: (parent, FAMILIES[parent].w_arity - FAMILIES[cid].w_arity)
    for cid, (parent, _) in _COROLLARIES.items()
}

FAMILY_IDS: tuple[str, ...] = tuple(FAMILIES)


# One case as a sweep gives it: (family_id, n, w, y, the variant values,
# whether they are all equal), the fields of a ``VerificationReport``.
Row = tuple[str, int, tuple[int, ...], tuple[Fraction, ...], tuple[Fraction, ...], bool]


@dataclass(frozen=True, slots=True)
class VerificationReport:
    """Outcome of one (family, parameters) case: all variant values, exact.
    ``all_equal`` is always worked out from the values, never given.
    ``check_cases`` and ``cli.run_sweep`` make one per case, so the class
    has slots and no ``__dict__``."""

    family_id: str
    n: int
    w: tuple[int, ...]
    y: tuple[Fraction, ...]
    variant_values: tuple[Fraction, ...]
    all_equal: bool = field(init=False)

    def __post_init__(self) -> None:
        values = self.variant_values
        if not values:
            raise ValueError("a report needs at least one variant value")
        # Each value against the first: no Fraction is hashed.  Equal values
        # folded through one table are one object and compare by identity,
        # so Fraction.__eq__ runs only on a value that differs.
        object.__setattr__(self, "all_equal", values.count(values[0]) == len(values))


def _family(family_id: str) -> IdentityFamily:
    try:
        return FAMILIES[family_id]
    except KeyError:
        raise ValueError(f"unknown family {family_id!r}") from None


# check_cases validates a case once and hands the evaluators validated
# tuples; check_case and variant_values only check n, to index its row.


def variant_values(
    family_id: str, n: int, w: Sequence[int], y: Sequence[RationalLike] = (),
) -> tuple[Fraction, ...]:
    return check_cases(family_id, count(n, "n"), w, y)[n].variant_values


def check_case(
    family_id: str, n: int, w: Sequence[int], y: Sequence[RationalLike] = (),
) -> VerificationReport:
    return check_cases(family_id, count(n, "n"), w, y)[n]


def check_cases(
    family_id: str, n_max: int, w: Sequence[int], y: Sequence[RationalLike] = (),
) -> list[VerificationReport]:
    """The reports at n = 0..n_max, validated once: the ``_check_grid``
    rows of the one cell (w, y), on a table of this call's own, which the
    family's variants share."""
    fam = _family(family_id)
    count(n_max, "n_max")
    wt, yt = case_args(w, y, fam.w_arity, fam.y_arity, fam.odd_only)
    return [VerificationReport(*row[:5]) for row in _check_grid(fam, (wt,), (yt,), _Table(n_max))]


def _check_grid(
    fam: IdentityFamily, w_tuples: Sequence[tuple[int, ...]],
    y_tuples: Sequence[tuple[Fraction, ...]], table: _Table,
) -> list[Row]:
    """The rows of ``fam`` over the grid of every cell (w, y), w in
    w_tuples and y in y_tuples, tuples as ``case_args`` returns them for
    ``fam``, at n = 0..table.n_max, in report order (n, then w, then y),
    reading and filling ``table``.  A compiled variant gives its values at
    every cell in one call of its ``.grid``, on the ``_shifts`` of each y
    window, made here once, so that every term key of the window holds the
    same pair objects; any other callable is called once per (n, cell).
    Each row is made in one pass over the variants' values, and ``equal``
    is ``VerificationReport``'s test.  A sweep calls this once per family,
    with one table for the whole sweep."""
    windows = tuple(map(_shifts, y_tuples))
    n_range = range(table.n_max + 1)
    columns = [
        ev.grid(w_tuples, windows, table) if hasattr(ev, "grid")
        else [[ev(n, wt, yt) for n in n_range] for wt in w_tuples for yt in y_tuples]
        for ev in fam.variants
    ]
    cells = [(wt, yt) for wt in w_tuples for yt in y_tuples]
    family_id = fam.family_id
    # Equal values folded through one table are one object, so count()
    # compares them by identity and no Fraction is hashed.
    return [
        (family_id, n, wt, yt, values, values.count(values[0]) == len(values))
        for n in n_range
        for (wt, yt), values in zip(cells, zip(*[map(itemgetter(n), column)
                                                 for column in columns]))
    ]


def eval_variant(
    family_id: str, index_or_perm: int | Sequence[int], n: int, w: Sequence[int],
    y: Sequence[RationalLike] = (),
) -> Fraction:
    """Evaluate one expression of a family, chosen by its index in the
    family's equality chain or, for a theorem family, by any of the six
    weight permutations of its template (the unlisted ones are the forms
    that collapse onto listed ones under bound-index renaming).  A form
    chosen by permutation is compiled for this call."""
    fam = _family(family_id)
    choice = index_or_perm
    if type(choice) is int and 0 <= choice < len(fam.variants):
        ev = fam.variants[choice]
    elif fam.orbit_template and isinstance(choice, Sequence) and tuple(choice) in ALL_PERMS:
        ev = _compile(_plan(substitute(ORBIT_TEMPLATES[fam.orbit_template], tuple(choice))))
    else:
        raise ValueError(f"{family_id} has no variant {choice!r}; it takes an index "
                         f"below {len(fam.variants)} or, for a theorem, a permutation")
    count(n, "n")
    return ev(n, *case_args(w, y, fam.w_arity, fam.y_arity, fam.odd_only))


# Template -> the generating-function series, (series family, sub-index),
# whose coefficient n every expression of a family of that template equals.
# A template without a row ("ttt") has no spot check.
_TEMPLATE_SERIES: dict[str, tuple[str, int | None]] = {
    "eee": ("L23", 0),
    "eet": ("L23", 1),
    "e-shift": ("L23", 1),
    "ett": ("L23", 2),
    "shift-t": ("L23", 2),
    "double-shift": ("L23", 2),
    "eee-cyclic": ("L12_0", None),
    "ttt-cyclic": ("L12_1", None),
}

# The catalog's pairings, each with its family's first variant as a per-n
# evaluator that validates its case.
SERIES_ORACLES: dict[str, tuple[str, int | None, Evaluator]] = {
    fid: (*_TEMPLATE_SERIES[fam.orbit_template], partial(eval_variant, fid, 0))
    for fid, fam in FAMILIES.items() if fam.orbit_template in _TEMPLATE_SERIES
}


def _oracle_holds(fam: IdentityFamily, rows: Sequence[Row]) -> bool | None:
    """Whether every value of the last cell (w, y) of ``rows``, the
    ``_check_grid`` rows of ``fam``, equals coefficient n of the series of
    ``fam``'s template at that (w, y), row n at n; None, no check, when the
    template has no series or there are no rows.  In ``_check_grid``'s
    order (n, then w, then y) the last row holds n_max and the last cell's
    w and y, and with C = len(rows) // (n_max + 1) cells, rows[C-1::C] are
    that cell's rows at n = 0..n_max.  The last cell, not the first: at
    w = (1, 1, 1), first on most grids, the pairwise weight products equal
    the weights, and the L23_i and L13_i series coincide."""
    if fam.orbit_template not in _TEMPLATE_SERIES or not rows:
        return None
    _, n_max, wt, yt, _, _ = rows[-1]
    cells = len(rows) // (n_max + 1)
    series, sub_index = _TEMPLATE_SERIES[fam.orbit_template]
    coeffs = lambda_series(series, sub_index, wt, yt, order=n_max).coeffs
    return all(value == c for row, c in zip(rows[cells - 1::cells], coeffs) for value in row[4])


_TRIPLE_ALTSUM = _compile(_plan(ORBIT_TEMPLATES["ttt"]))


def eval_triple_altsum(n: int, w: Sequence[int]) -> Fraction:
    """The fully symmetric three-factor alternating-power-sum expression
    (orbit size 1, hence no symmetry identities; used as a series oracle)."""
    return _TRIPLE_ALTSUM(count(n, "n"), *case_args(w, (), 3, 0, True))
