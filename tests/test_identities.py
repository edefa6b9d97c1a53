import re
import sys
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction
from math import comb, prod

import pytest

from eulersym import identities
from eulersym.altsum import alt_power_sum
from eulersym.egf_series import egf_coeff, lambda_series
from eulersym.euler import euler_eval
from eulersym.exact_arith import case_args
from eulersym.identities import (
    FAMILIES,
    FAMILY_IDS,
    IdentityFamily,
    PARENT_SPECIALIZATIONS,
    SERIES_ORACLES,
    VerificationReport,
    check_case,
    check_cases,
    eval_triple_altsum,
    eval_variant,
    _Table,
    _check_grid,
    _compile,
    _plan,
    _shifts,
    variant_values,
)
from eulersym.orbits import ALL_PERMS, ORBIT_TEMPLATES, A, E, T, substitute, term

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)

EVEN_PERMS = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
ODD_PERMS = ((0, 2, 1), (2, 1, 0), (1, 0, 2))


def _binom_ee(n, x1, x2):
    # sum_k C(n,k) E_k(x1) E_{n-k}(x2), the shared two-weight degenerate form
    return sum(
        comb(n, k) * euler_eval(k, x1) * euler_eval(n - k, x2) for k in range(n + 1)
    )


def _tri_eee(n, x1, x2, x3):
    total = Fraction(0)
    for k in range(n + 1):
        for l in range(n - k + 1):
            m = n - k - l
            coeff = comb(n, k) * comb(n - k, l)
            total += coeff * euler_eval(k, x1) * euler_eval(l, x2) * euler_eval(m, x3)
    return total


# ---------------------------------------------------------------- T1


def test_t1_worked_examples():
    assert eval_variant("T1", (0, 1, 2), 1, (1, 1, 1), (0, 0, 0)) == Fraction(-3, 2)
    for perm in ALL_PERMS:
        assert eval_variant("T1", perm, 0, (4, 9, 2), (HALF, -1, 3)) == 1
    values = {
        eval_variant("T1", p, 4, (1, 3, 5), (HALF, -THIRD, 2)) for p in ALL_PERMS
    }
    assert len(values) == 1


def test_t1_accepts_even_weights():
    values = {
        eval_variant("T1", p, 5, (2, 3, 4), (HALF, -THIRD, Fraction(2, 7)))
        for p in ALL_PERMS
    }
    assert len(values) == 1


def test_t1_degenerate_weights():
    y = (HALF, -THIRD, Fraction(2, 7))
    for n in range(7):
        assert eval_variant("T1", (0, 1, 2), n, (1, 1, 1), y) == _tri_eee(n, *y)


# ---------------------------------------------------------------- T2


def test_t2_degenerate_weights():
    # T_m(0) kills every m > 0 term, leaving the two-factor convolution.
    y = (HALF, -THIRD)
    for n in range(7):
        assert eval_variant("T2", (0, 1, 2), n, (1, 1, 1), y) == _binom_ee(n, *y)


def test_t2_six_way_agreement():
    values = {
        eval_variant("T2", p, 5, (3, 5, 7), (Fraction(1, 4), -2)) for p in ALL_PERMS
    }
    assert len(values) == 1
    for perm in ALL_PERMS:
        assert eval_variant("T2", perm, 0, (3, 5, 7), (1, 2)) == 1


def test_t2_rejects_even_weights():
    with pytest.raises(ValueError):
        eval_variant("T2", (0, 1, 2), 3, (2, 3, 5), (0, 0))


# ---------------------------------------------------------------- T5


def test_t5_degenerate_weights():
    y = (HALF, THIRD)
    for n in range(7):
        assert eval_variant("T5", (0, 1, 2), n, (1, 1, 1), y) == _binom_ee(n, *y)


def test_t5_constant_coefficient_is_one():
    for w in ((1, 3, 5), (3, 3, 7), (5, 7, 1)):
        for perm in ALL_PERMS:
            assert eval_variant("T5", perm, 0, w, (HALF, -2)) == 1


def test_t5_six_way_agreement_and_t2_cross_check():
    n, w, y = 3, (1, 3, 5), (HALF, THIRD)
    values = {eval_variant("T5", p, n, w, y) for p in ALL_PERMS}
    assert len(values) == 1
    # T2 and T5 expand the same quotient series, so their values coincide.
    assert values == {eval_variant("T2", (0, 1, 2), n, w, y)}
    for n in range(8):
        assert eval_variant("T5", (2, 0, 1), n, (3, 5, 7), y) == eval_variant(
            "T2", (1, 2, 0), n, (3, 5, 7), y
        )


# ---------------------------------------------------------------- T8


def test_t8_degenerate_weights():
    for n in range(8):
        assert eval_variant("T8", (0, 1, 2), n, (1, 1, 1), (HALF,)) == euler_eval(
            n, HALF
        )


def test_t8_worked_example():
    # at w = (3,1,1), n = 1, y = 0 every variant equals E_1(0) = -1/2
    for perm in ALL_PERMS:
        assert eval_variant("T8", perm, 1, (3, 1, 1), (0,)) == Fraction(-1, 2)
    assert eval_variant("C10", 0, 1, (3,), (0,)) == Fraction(-1, 2)


def test_t8_collapse_of_transposed_forms():
    # The transposed forms equal the cyclic ones under the l <-> m swap;
    # both sides evaluated independently.
    for even, odd in zip(EVEN_PERMS, ((0, 2, 1), (1, 0, 2), (2, 1, 0))):
        for n in range(6):
            w, y1 = (3, 5, 7), Fraction(2, 7)
            assert eval_variant("T8", even, n, w, (y1,)) == eval_variant(
                "T8", odd, n, w, (y1,)
            )


def test_t8_three_way_agreement():
    values = {
        eval_variant("T8", p, 4, (3, 5, 7), (Fraction(2, 7),)) for p in EVEN_PERMS
    }
    assert len(values) == 1


# ---------------------------------------------------------------- T11


def test_t11_degenerate_weights():
    for n in range(8):
        assert eval_variant("T11", (0, 1, 2), n, (1, 1, 1), (-THIRD,)) == euler_eval(
            n, -THIRD
        )
    for perm in ALL_PERMS:
        assert eval_variant("T11", perm, 0, (3, 5, 7), (1,)) == 1


def test_t11_six_way_agreement_and_t8_cross_check():
    n, w, y1 = 4, (3, 5, 1), Fraction(2, 7)
    values = {eval_variant("T11", p, n, w, (y1,)) for p in ALL_PERMS}
    assert len(values) == 1
    # T8 and T11 both expand the doubly-divided quotient series.
    assert values == {eval_variant("T8", (0, 1, 2), n, w, (y1,))}


# ---------------------------------------------------------------- T14


def test_t14_degenerate_weights():
    for n in range(8):
        assert eval_variant("T14", (0, 1, 2), n, (1, 1, 1), (HALF,)) == euler_eval(
            n, HALF
        )
    for perm in EVEN_PERMS:
        assert eval_variant("T14", perm, 0, (3, 5, 7), (HALF,)) == 1


def test_t14_three_way_agreement_and_cross_checks():
    n, w, y1 = 2, (3, 5, 7), HALF
    values = {eval_variant("T14", p, n, w, (y1,)) for p in EVEN_PERMS}
    assert len(values) == 1
    assert values == {eval_variant("T8", (0, 1, 2), n, w, (y1,))}
    assert values == {eval_variant("T11", (0, 1, 2), n, w, (y1,))}


# ---------------------------------------------------------------- T16


def test_t16_two_way_agreement_with_even_weights():
    n, w, y = 3, (2, 3, 4), HALF
    assert eval_variant("T16", (0, 1, 2), n, w, (y,)) == eval_variant(
        "T16", (0, 2, 1), n, w, (y,)
    )
    for perm in ALL_PERMS:
        assert eval_variant("T16", perm, 0, w, (y,)) == 1


def test_t16_degenerate_weights():
    for n in range(7):
        assert eval_variant("T16", (0, 1, 2), n, (1, 1, 1), (HALF,)) == _tri_eee(
            n, HALF, HALF, HALF
        )


def test_t16_matches_t1_degenerate_case():
    assert eval_variant("T16", (0, 1, 2), 1, (1, 1, 1), (0,)) == Fraction(-3, 2)


# ---------------------------------------------------------------- T17


def test_t17_degenerate_weights():
    assert eval_variant("T17", (0, 1, 2), 0, (1, 1, 1)) == 1
    for n in range(1, 8):
        assert eval_variant("T17", (0, 1, 2), n, (1, 1, 1)) == 0


def test_t17_worked_example():
    assert eval_variant("T17", (0, 1, 2), 1, (3, 1, 1)) == 1
    assert eval_variant("T17", (0, 2, 1), 1, (3, 1, 1)) == 1


def test_t17_collapse_of_relabeled_forms():
    # cyclic relabelings reduce the four extra permuted forms to the two
    # canonical ones; all six evaluate equal anyway
    w = (3, 5, 7)
    for n in range(7):
        reference = eval_variant("T17", (0, 1, 2), n, w)
        for perm in ((1, 2, 0), (2, 0, 1)):
            assert eval_variant("T17", perm, n, w) == reference
        alternate = eval_variant("T17", (0, 2, 1), n, w)
        for perm in ((2, 1, 0), (1, 0, 2)):
            assert eval_variant("T17", perm, n, w) == alternate
        assert reference == alternate


# ---------------------------------------------------------------- corollaries


def test_c10_worked_example():
    assert eval_variant("C10", 0, 1, (3,), (0,)) == Fraction(-1, 2)
    assert eval_variant("C10", 1, 1, (3,), (0,)) == Fraction(-1, 2)


def test_c13_unit_weight_collapses():
    for n in range(8):
        for index in range(3):
            assert eval_variant("C13", index, n, (1,), (THIRD,)) == euler_eval(
                n, THIRD
            )


def test_c18_agreement():
    for n in range(9):
        assert eval_variant("C18", 0, n, (3, 5)) == eval_variant("C18", 1, n, (3, 5))


def test_corollary_chains_agree():
    grids = {
        "C3": ((3, 5), (Fraction(1, 4), -2)),
        "C4": ((5,), (Fraction(1, 4), -2)),
        "C6": ((3, 5), (HALF, THIRD)),
        "C7": ((7,), (HALF, THIRD)),
        "C9": ((3, 5), (Fraction(2, 7),)),
        "C10": ((7,), (-THIRD,)),
        "C12": ((3, 5), (Fraction(2, 7),)),
        "C13": ((5,), (-THIRD,)),
        "C15": ((3, 5), (HALF,)),
        "C18": ((5, 7), ()),
    }
    for cid, (w, y) in grids.items():
        for n in range(6):
            values = set(variant_values(cid, n, w, y))
            assert len(values) == 1, (cid, n)


def test_corollary_validation():
    with pytest.raises(ValueError):
        eval_variant("C99", 0, 1, (3,), (0,))
    with pytest.raises(ValueError):
        eval_variant("C10", 2, 1, (3,), (0,))  # only two variants
    with pytest.raises(ValueError):
        eval_variant("C10", 0, 1, (2,), (0,))  # even weight
    with pytest.raises(ValueError):
        eval_variant("C9", 0, 1, (3,), (0,))  # needs two weights
    with pytest.raises(ValueError):
        eval_variant("C9", 0, -1, (3, 5), (0,))


# ---------------------------------------------------------------- intro chain


def test_intro_chain_worked_examples():
    assert eval_variant("INTRO_CHAIN", 0, 1, (1, 1), (0,)) == Fraction(-1, 2)
    # the long-known two-expression equality
    assert eval_variant("INTRO_CHAIN", 0, 6, (3, 5), (THIRD,)) == eval_variant(
        "INTRO_CHAIN", 1, 6, (3, 5), (THIRD,)
    )
    # the full eight-way chain
    values = {eval_variant("INTRO_CHAIN", i, 4, (3, 7), (-HALF,)) for i in range(8)}
    assert len(values) == 1


def test_intro_chain_degenerate_weights():
    for n in range(8):
        for index in range(8):
            value = eval_variant("INTRO_CHAIN", index, n, (1, 1), (HALF,))
            assert value == euler_eval(n, HALF)


def test_intro_chain_matches_source_corollaries():
    # the eight expressions are exactly the union of the chains of the
    # two-weight corollaries C9, C12, C15
    n, w1, w2, y1 = 5, 3, 5, Fraction(2, 7)
    chain = [eval_variant("INTRO_CHAIN", i, n, (w1, w2), (y1,)) for i in range(8)]
    c9 = [eval_variant("C9", i, n, (w1, w2), (y1,)) for i in range(3)]
    c12 = [eval_variant("C12", i, n, (w1, w2), (y1,)) for i in range(6)]
    c15 = [eval_variant("C15", i, n, (w1, w2), (y1,)) for i in range(3)]
    assert chain[0] == c9[0] == c12[3]
    assert chain[1] == c9[1] == c12[2]
    assert chain[2] == c12[0] == c15[0]
    assert chain[3] == c12[1] == c15[1]
    assert chain[4] == c9[2]
    assert chain[5] == c12[4]
    assert chain[6] == c12[5]
    assert chain[7] == c15[2]


def test_intro_chain_validation():
    with pytest.raises(ValueError):
        eval_variant("INTRO_CHAIN", 8, 1, (3, 5), (0,))
    with pytest.raises(ValueError):
        eval_variant("INTRO_CHAIN", 0, 1, (2, 5), (0,))


# ---------------------------------------------------------------- structure


def test_catalog_structure():
    assert set(PARENT_SPECIALIZATIONS) < set(FAMILY_IDS)
    assert len(FAMILIES["INTRO_CHAIN"].variants) == 8
    for fid, fam in FAMILIES.items():
        assert fam.family_id == fid
        if fid == "INTRO_CHAIN" or fid in PARENT_SPECIALIZATIONS:
            assert fam.expected_orbit_size is None
        else:
            assert fam.expected_orbit_size == len(fam.variants)
        # only the two all-Euler theorem families admit even weights
        assert fam.odd_only == (fid not in ("T1", "T16"))


# Each family's shape as the paper states it, not as the catalog derives it:
# (weights, shift values, odd weights only, orbit size of the theorem's
# template or None).  A corollary sets trailing weights of its parent to 1.
SHAPES = {
    "T1": (3, 3, False, 6), "T2": (3, 2, True, 6), "T5": (3, 2, True, 6),
    "T8": (3, 1, True, 3), "T11": (3, 1, True, 6), "T14": (3, 1, True, 3),
    "T16": (3, 1, False, 2), "T17": (3, 0, True, 2),
    "C3": (2, 2, True, None), "C4": (1, 2, True, None), "C6": (2, 2, True, None),
    "C7": (1, 2, True, None), "C9": (2, 1, True, None), "C10": (1, 1, True, None),
    "C12": (2, 1, True, None), "C13": (1, 1, True, None), "C15": (2, 1, True, None),
    "C18": (2, 0, True, None), "INTRO_CHAIN": (2, 1, True, None),
}
# Corollary -> (parent theorem, number of its trailing weights set to 1).
PINNED = {
    "C3": ("T2", 1), "C4": ("T2", 2), "C6": ("T5", 1), "C7": ("T5", 2), "C9": ("T8", 1),
    "C10": ("T8", 2), "C12": ("T11", 1), "C13": ("T11", 2), "C15": ("T14", 1),
    "C18": ("T17", 1),
}


def test_each_family_has_the_shape_the_paper_states():
    shapes = {fid: (fam.w_arity, fam.y_arity, fam.odd_only, fam.expected_orbit_size)
              for fid, fam in FAMILIES.items()}
    assert shapes == SHAPES
    assert PARENT_SPECIALIZATIONS == PINNED


def test_a_family_takes_odd_weights_only_where_a_term_has_t_or_a():
    # T_k(w - 1) and the alternating sum over w shifts need odd w; E needs
    # none.  One T or one A factor in a row makes the family odd-only.
    rows = {
        "E": (term((E((0,), 0), (1,)), (E((1,), 0), (0,))), term((E((1,), 0), (0,)))),
        "T": (term((E((0,), 0), (1,))), term((E((), 0), (0,)), (T(1), ()))),
        "A": (term((E((0,), 0), ())), term((A((), 0, 0), ()), scale=(0,))),
    }
    odd_only = {kind: IdentityFamily.from_terms(kind, row).odd_only for kind, row in rows.items()}
    assert odd_only == {"E": False, "T": True, "A": True}


def test_from_terms_walks_each_term_once(monkeypatch):
    # Building a family walks each of its terms once: from_terms compiles
    # each variant from the plan it has made.
    walked = []
    plan = identities._plan
    monkeypatch.setattr(identities, "_plan", lambda t: walked.append(t) or plan(t))
    row = [term((E((0,), 0), (1,))), term((E((), 0), (0,)), (T(1), ()))]
    family = IdentityFamily.from_terms("X", row)
    assert walked == row
    assert (family.w_arity, family.y_arity, family.odd_only) == (2, 1, True)


def test_family_rejects_a_wrong_orbit():
    # A theorem family must list one variant per orbit class of its
    # template, whose audited size is its expected orbit size.
    t8 = FAMILIES["T8"]
    with pytest.raises(ValueError, match="expected orbit size"):
        replace(t8, variants=t8.variants[:2])
    with pytest.raises(ValueError, match="3 variants but expected orbit size 6"):
        replace(t8, orbit_template="eet")
    with pytest.raises(ValueError, match="unknown orbit template 'zzz'"):
        replace(t8, orbit_template="zzz")


def test_specializations_small_grid():
    y_pool = (Fraction(0), HALF, -THIRD)
    for cid, (parent, pinned) in PARENT_SPECIALIZATIONS.items():
        cfam = FAMILIES[cid]
        pfam = FAMILIES[parent]
        assert cfam.w_arity + pinned == pfam.w_arity
        w = (3, 5)[: cfam.w_arity]
        parent_w = w + (1,) * pinned
        for n in range(5):
            for y_scalar in y_pool:
                y = (y_scalar, -y_scalar)[: cfam.y_arity]
                cvals = set(variant_values(cid, n, w, y))
                pvals = set(variant_values(parent, n, parent_w, y))
                assert cvals == pvals and len(cvals) == 1, (cid, n, y_scalar)


def test_series_oracle_small_grid():
    for fid, (series_family, sub_index, evaluator) in SERIES_ORACLES.items():
        fam = FAMILIES[fid]
        w = (1, 3, 5) if fam.odd_only else (2, 3, 4)
        y = (HALF, -THIRD, Fraction(2, 7))[: fam.y_arity]
        series = lambda_series(series_family, sub_index, w, y, order=6)
        for n in range(7):
            assert evaluator(n, w, y) == egf_coeff(series, n), (fid, n)


def test_triple_altsum_series_oracle():
    w = (3, 5, 7)
    series = lambda_series("L23", 3, w, (), order=6)
    for n in range(7):
        assert eval_triple_altsum(n, w) == egf_coeff(series, n)
    with pytest.raises(ValueError):
        eval_triple_altsum(2, (2, 3, 5))


def test_three_slot_monomials_compile():
    # No catalog term has a monomial or a base of three slots, but the
    # compiler reads any number: with W = w1 w2 w3, the one bundle E_k(W y1)
    # at base W is W^n E_n(W y1).
    ev = _compile(_plan(term((E((0, 1, 2), 0), (0, 1, 2)))))
    for w in ((1, 3, 5), (3, 3, 7), (5, 7, 9), (1, 1, 1)):
        big_w = w[0] * w[1] * w[2]
        for y1 in (Fraction(0), THIRD, Fraction(-2, 5)):
            for n in range(5):
                assert ev(n, w, (y1,)) == big_w**n * euler_eval(n, big_w * y1), (w, y1, n)


def test_a_t_over_a_two_slot_monomial_compiles():
    # No catalog term has one, but ROADMAP item 17's L13 terms will: the
    # one factor-key rule gives the raw factor T over the monomial w1 w2 the
    # key ("T", w1 w2), which reads no shift, and the one bundle T_k(w1 w2 - 1)
    # at base w3 is T_n(w1 w2 - 1) w3^n.
    ev = _compile(_plan(term((("T", (0, 1), (), ()), (2,)))))
    for w in ((1, 3, 5), (3, 3, 7), (5, 7, 9), (1, 1, 1)):
        table = _Table(5)
        [values] = ev.grid((w,), ((),), table)
        assert list(table.factors) == [("T", w[0] * w[1])], w
        for n in range(6):
            expected = alt_power_sum(n, w[0] * w[1] - 1) * w[2]**n
            assert values[n] == ev(n, w, ()) == expected, (w, n)


# ---------------------------------------------------------------- term misses


def _reference_factor_key(f, w, y):
    """A factor's key by a walk over the factor's tuples: its kind, the
    product of the weights at its monomial's slots, the shift pairs of y it
    reads (one for an E or an A, none for a T) and, for an A, the weights
    at its count slots."""
    kind, m, js, counts = f
    return (kind, prod([w[s] for s in m]), *[y[j] for j in js], *[w[c] for c in counts])


# No catalog term has a T bundle before an E or an A bundle, so no catalog
# term reads a shift whose index in the term key comes after a T's.
T_FIRST = (
    term((T(0), (1,)), (E((0,), 0), (2,))),
    term((T(0), (1,)), (A((1,), 0, 2), (0,))),
    term((T(0), (1,)), (E((1,), 0), (2,)), (E((2,), 1), (0,))),
)


def _compiled_terms():
    """(label, term, its compiled evaluator) for every variant of every
    family, every template at every permutation (the forms ``eval_variant``
    compiles), the triple alternating sum and the T_FIRST terms."""
    for family_id, fam in FAMILIES.items():
        if fam.orbit_template:
            row = [substitute(ORBIT_TEMPLATES[fam.orbit_template], p) for p in fam.perms]
        elif family_id == "INTRO_CHAIN":
            row = identities._INTRO_CHAIN
        else:
            row = identities._COROLLARIES[family_id][1]
        assert len(row) == len(fam.variants), family_id
        for i, (t, ev) in enumerate(zip(row, fam.variants)):
            yield f"{family_id}[{i}]", t, ev
    for template, form in ORBIT_TEMPLATES.items():
        for perm in ALL_PERMS:
            t = substitute(form, perm)
            yield f"{template} at {perm}", t, _compile(_plan(t))
    yield "ttt", ORBIT_TEMPLATES["ttt"], identities._TRIPLE_ALTSUM
    for i, t in enumerate(T_FIRST):
        yield f"T_FIRST[{i}]", t, _compile(_plan(t))


def test_a_miss_folds_the_factor_keys_and_bases_of_a_walk_over_the_term(monkeypatch):
    # A term-key miss takes each bundle's factor key and base from the term
    # key's own weights and shifts, at places fixed when the term was
    # compiled.  On a fresh table, the one fold of a miss must get, bundle
    # for bundle, the vectors stored under the keys that a walk over the
    # term's tuples gives, at the bases that walk gives, and the table must
    # hold no other factor key; a second call is a hit and folds nothing.
    # Repeated, all-1 and distinct weights, and repeated and distinct
    # shifts, so that a slot or a shift read from the wrong place shows;
    # the T_FIRST terms read shifts after a T, which reads none.
    folds = []
    product_vec = identities._product_vec

    def logged(forms, bases, table):
        folds.append((forms, bases))
        return product_vec(forms, bases, table)

    monkeypatch.setattr(identities, "_product_vec", logged)
    shift_sets = ((Fraction(123457, 999983), Fraction(-654321, 100003), Fraction(5, 100019)),
                  (HALF, HALF, -THIRD))
    compiled = list(_compiled_terms())
    assert len(compiled) == sum(len(fam.variants) for fam in FAMILIES.values()) + 58
    for label, t, ev in compiled:
        for w in ((3, 3, 5), (5, 3, 3), (1, 1, 1), (3, 5, 7), (7, 3, 5)):
            for y in map(_shifts, shift_sets):
                keys = [_reference_factor_key(f, w, y) for f, _ in t]
                bases = [prod([w[s] for s in base]) for _, base in t]
                table = _Table(2)
                folds.clear()
                ev.grid((w,), (y,), table)
                ev.grid((w,), (y,), table)
                assert len(folds) == 1, (label, w, y)
                forms, folded_bases = folds[0]
                assert list(table.factors) == list(dict.fromkeys(keys)), (label, w, y)
                assert len(forms) == len(keys), (label, w, y)
                assert all(form is table.factors[key] for form, key in zip(forms, keys)), \
                    (label, w, y)
                assert folded_bases == bases, (label, w, y)


# ---------------------------------------------------------------- reports


def test_check_case_and_report():
    report = check_case("C10", 1, (3,), (0,))
    assert report.all_equal
    assert report.variant_values == (Fraction(-1, 2), Fraction(-1, 2))
    assert report.w == (3,) and report.y == (Fraction(0),)

    # The flag is worked out from the values, never given.
    with pytest.raises(TypeError):
        VerificationReport(
            family_id="C10",
            n=1,
            w=(3,),
            y=(Fraction(0),),
            variant_values=(Fraction(1), Fraction(2)),
            all_equal=True,
        )


def test_report_needs_a_value():
    with pytest.raises(ValueError, match="at least one"):
        VerificationReport("C10", 1, (3,), (Fraction(0),), variant_values=())


def test_report_has_slots_and_stays_frozen():
    # A sweep holds one report per case, so a report carries no __dict__;
    # its fields, the worked-out flag too, still cannot be assigned.
    report = check_case("C10", 1, (3,), (0,))
    assert not hasattr(report, "__dict__")
    for name, value in (("n", 2), ("all_equal", False)):
        with pytest.raises(FrozenInstanceError):
            setattr(report, name, value)


def test_report_keyword_and_positional_construction_agree():
    values = (Fraction(-1, 2), Fraction(-1, 2))
    positional = VerificationReport("C10", 1, (3,), (Fraction(0),), values)
    keyword = VerificationReport(
        variant_values=values, y=(Fraction(0),), w=(3,), n=1, family_id="C10")
    assert positional == keyword == check_case("C10", 1, (3,), (0,))
    assert positional.all_equal and keyword.all_equal


def test_report_replace_works_the_flag_out_again():
    report = check_case("C10", 1, (3,), (0,))
    split = replace(report, variant_values=(Fraction(1), Fraction(2)))
    assert not split.all_equal
    assert (split.family_id, split.n, split.w, split.y) == ("C10", 1, (3,), (Fraction(0),))
    assert replace(split, variant_values=(Fraction(2), Fraction(2))).all_equal
    # The flag is never given, not even through replace.  CPython 3.13's
    # replace raises TypeError for an init=False field; 3.10-3.12 raise
    # ValueError.
    with pytest.raises(TypeError if sys.version_info >= (3, 13) else ValueError):
        replace(report, all_equal=False)


# A term key starts with its shape: one "<kind><monomial>.<counts>.<base>"
# per bundle, in the lengths of each.
SHAPE = re.compile(r"[ETA]\d+\.\d+\.\d+( [ETA]\d+\.\d+\.\d+)*")


def _holds_a_fraction(item):
    if isinstance(item, tuple):
        return any(map(_holds_a_fraction, item))
    return isinstance(item, Fraction)


def test_table_keys_are_of_four_kinds_and_hold_no_fraction():
    # One _Table(3) filled by five families, as a sweep fills it.  Each map
    # holds only its own kind of key.  The table fixes n_max, so no factor
    # or term key holds it: a factor key is its kind, its monomial value,
    # the shift pair of an E or an A and the one or two count weights of an
    # A, and a term key is (shape, the weights read, the shifts read).  No
    # key holds a Fraction: shifts enter as (numerator, denominator) pairs.
    table = _Table(3)
    for family_id, w, y in (
        ("T1", (3, 1, 5), (HALF, -THIRD, 0)),
        ("T5", (3, 5, 7), (0, Fraction(2, 7))),
        ("T14", (5, 3, 1), (-THIRD,)),
        ("C12", (3, 5), (0,)),
        ("INTRO_CHAIN", (5, 3), (HALF,)),
    ):
        fam = FAMILIES[family_id]
        wt, yt = case_args(w, y, fam.w_arity, fam.y_arity, fam.odd_only)
        rows = _check_grid(fam, (wt,), (yt,), table)
        assert len(rows) == 4 and all(values.count(values[0]) == len(values)
                                      for *_, values, _ in rows)

    def pair(part):
        return type(part) is tuple and len(part) == 2 and all(type(x) is int for x in part)

    def factor_key(key):
        kind, a, *rest = key
        if kind == "T":
            return type(a) is int and not rest
        shift, *counts = rest
        return (kind in ("E", "A") and type(a) is int and pair(shift)
                and len(counts) in ((0,) if kind == "E" else (1, 2))
                and all(type(c) is int for c in counts))

    for key in table.factors:
        assert factor_key(key) and not _holds_a_fraction(key), key
    for key in table.terms:
        assert len(key) == 3 and type(key[0]) is str and SHAPE.fullmatch(key[0]), key
        assert not _holds_a_fraction(key), key
    for key, value in table.values.items():
        assert pair(key) and key == (value.numerator, value.denominator), key
    assert table.factors and table.terms and table.values
    assert {len(nums) for nums, _ in table.factors.values()} == {4}
    assert {len(values) for values in table.terms.values()} == {4}
    assert table.rows == [[comb(k, j) for j in range(k + 1)] for k in range(4)]


def test_each_value_is_stored_under_its_own_integers():
    # table.values maps (numerator, denominator) to the one Fraction of that
    # value, and the key is made of that Fraction's own int objects, so a
    # distinct value holds its integers once.  CPython caches the ints up to
    # 256, so only larger ones show whether the key shares them.
    table = _Table(8)
    for family_id in ("T1", "T14", "C6"):
        fam = FAMILIES[family_id]
        for w in ((1, 3, 5), (5, 3, 7), (7, 7, 3)):
            for y in ((HALF, -THIRD, Fraction(2, 7)), (0, Fraction(123457, 999983), 1)):
                wt, yt = case_args(w[: fam.w_arity], y[: fam.y_arity],
                                   fam.w_arity, fam.y_arity, fam.odd_only)
                _check_grid(fam, (wt,), (yt,), table)
    large = [(key, value) for key, value in table.values.items()
             if abs(value.numerator) > 256 or value.denominator > 256]
    assert len(large) > 100
    for key, value in large:
        assert key[0] is value.numerator and key[1] is value.denominator, key


@pytest.mark.parametrize("family_id", FAMILY_IDS)
def test_check_cases_match_check_case(family_id):
    # One call over n = 0..4 gives, row for row, the reports of check_case
    # at each n alone, and its values are each variant's value computed
    # alone, with a fresh table (eval_variant), not shared with the family's
    # other variants.
    fam = FAMILIES[family_id]
    y = (Fraction(123457, 999983), -THIRD, 2)[: fam.y_arity]
    for w in ((1, 3, 5), (7, 5, 3)):
        w = w[: fam.w_arity]
        reports = check_cases(family_id, 4, w, y)
        assert reports == [check_case(family_id, n, w, y) for n in range(5)]
        assert [r.variant_values for r in reports] == [
            tuple(eval_variant(family_id, i, n, w, y) for i in range(len(fam.variants)))
            for n in range(5)
        ]


def _grid(fam, y_pools=((123457, -THIRD, 2), (HALF, 0, -THIRD))):
    """A grid valid for ``fam``: two weight tuples and the y windows of
    ``y_pools`` (one when the family reads no shift).  For a theorem the
    second weight tuple is the first at its second variant's permutation,
    so that each variant's cells share term keys with another variant's."""
    w = (3, 5, 7)
    second = tuple(w[k] for k in fam.perms[1]) if fam.perms else (5, 3, 7)[: fam.w_arity]
    y_tuples = list(dict.fromkeys(tuple(map(Fraction, y[: fam.y_arity])) for y in y_pools))
    return [w[: fam.w_arity], second], y_tuples


def _counted_folds(monkeypatch):
    """The list to which each later ``_product_vec`` call appends its bases."""
    folds = []
    product_vec = identities._product_vec

    def counted(forms, bases, table):
        folds.append(bases)
        return product_vec(forms, bases, table)

    monkeypatch.setattr(identities, "_product_vec", counted)
    return folds


@pytest.mark.parametrize("family_id", FAMILY_IDS)
def test_a_grid_call_gives_each_cells_check_cases_rows_and_folds_each_term_once(
        monkeypatch, family_id):
    # One _check_grid call over a family's whole grid gives, in report
    # order (n, then w, then y), the rows check_cases gives for each (w, y)
    # alone, and each row's equal flag is VerificationReport's.  Counted at
    # _product_vec, the call folds each term key it adds to the table
    # exactly once, and a second call on the same table, a hit on every
    # key, folds nothing.
    fam = FAMILIES[family_id]
    w_tuples, y_tuples = _grid(fam)
    folds = _counted_folds(monkeypatch)
    table = _Table(3)
    rows = _check_grid(fam, w_tuples, y_tuples, table)
    assert 0 < len(folds) == len(table.terms)
    if fam.perms:  # the permuted weights meet stored keys
        assert len(table.terms) < len(fam.variants) * len(w_tuples) * len(y_tuples)
    reports = {(wt, yt): check_cases(family_id, 3, wt, yt) for wt in w_tuples for yt in y_tuples}
    assert [VerificationReport(*row[:5]) for row in rows] == [
        reports[cell][n] for n in range(4) for cell in reports]
    assert all(row[5] == VerificationReport(*row[:5]).all_equal for row in rows)
    folds.clear()
    assert _check_grid(fam, w_tuples, y_tuples, table) == rows
    assert folds == []


@pytest.mark.parametrize("family_id", [fid for fid in FAMILY_IDS if FAMILIES[fid].y_arity])
def test_a_grid_call_makes_each_windows_shift_pairs_once(family_id):
    # One _check_grid call makes the shift pairs of each y window once:
    # every term key it adds holds, for a shift value, the one pair object
    # of that value, whichever variant and weight tuple added the key.  No
    # value is in two windows, so each value is one window's.  The third
    # weight tuple is no permutation of another, so that every variant adds
    # keys.
    fam = FAMILIES[family_id]
    w_tuples, y_tuples = _grid(fam, ((HALF, -THIRD, Fraction(2, 7)),
                                     (Fraction(123457, 999983), 5, Fraction(-654321, 100003))))
    w_tuples.append((7, 5, 3)[: fam.w_arity])
    table = _Table(2)
    _check_grid(fam, w_tuples, y_tuples, table)
    pairs = {}
    for _, _, ky in table.terms:
        for pair in (ky,) if ky and type(ky[0]) is int else ky:
            pairs.setdefault(pair, set()).add(id(pair))
    assert len(pairs) == len({y for yt in y_tuples for y in yt})
    assert all(len(ids) == 1 for ids in pairs.values()), pairs


def test_a_grid_calls_a_plain_variant_per_n_and_cell_beside_compiled_ones(monkeypatch):
    # A family whose middle variant is a plain callable, a stand-in as the
    # negative controls make: it is called once per (n, cell), in report
    # order, and its column holds what it returned; the compiled variants
    # beside it give their own columns and fold each of their term keys once.
    fam = FAMILIES["C9"]
    calls = []

    def plain(n, w, y):
        calls.append((n, w, y))
        return Fraction(n, 7)

    mixed = replace(fam, variants=(fam.variants[0], plain, fam.variants[2]))
    w_tuples, y_tuples = _grid(fam)
    expected = _check_grid(fam, w_tuples, y_tuples, _Table(3))
    folds = _counted_folds(monkeypatch)
    table = _Table(3)
    rows = _check_grid(mixed, w_tuples, y_tuples, table)
    assert calls == [(n, wt, yt) for wt in w_tuples for yt in y_tuples for n in range(4)]
    assert [row[4][1] for row in rows] == [
        Fraction(n, 7) for n in range(4) for _ in w_tuples for _ in y_tuples]
    assert [(row[:4], row[4][::2]) for row in rows] == [(row[:4], row[4][::2]) for row in expected]
    assert 0 < len(folds) == len(table.terms)
    # The stand-in disagrees with the compiled variants on some rows.
    assert not all(row[5] for row in rows)
    assert all(row[5] == VerificationReport(*row[:5]).all_equal for row in rows)


def test_variant_values_validation():
    with pytest.raises(ValueError):
        variant_values("T99", 0, (1, 1, 1), (0, 0, 0))
    with pytest.raises(ValueError):
        variant_values("T2", 0, (2, 3, 5), (0, 0))
    with pytest.raises(ValueError):
        variant_values("T1", 0, (1, 1), (0, 0, 0))
    with pytest.raises(ValueError):
        variant_values("T1", 0, (1, 1, 1), (0, 0))


@pytest.mark.parametrize("bad", [Fraction(5, 2), 2.9, True])
def test_non_integral_weights_rejected(bad):
    # Neither truncated (5/2 -> 2, 2.9 -> 2) nor read as a number (True -> 1).
    w = (bad, 3, 1)
    with pytest.raises(ValueError):
        variant_values("T1", 2, w, (0, 0, 0))
    with pytest.raises(ValueError):
        check_case("T1", 2, w, (0, 0, 0))
    with pytest.raises(ValueError):
        eval_variant("T1", (0, 1, 2), 2, w, (0, 0, 0))


@pytest.mark.parametrize("bad", [0.1, True, "1/2"])
def test_inexact_shift_values_rejected(bad):
    # Neither read as the float's binary value, as 1, nor parsed as a string.
    with pytest.raises(ValueError):
        variant_values("T8", 1, (3, 5, 7), (bad,))
    with pytest.raises(ValueError):
        check_case("T8", 1, (3, 5, 7), (bad,))
    with pytest.raises(ValueError):
        eval_variant("T8", (0, 1, 2), 1, (3, 5, 7), (bad,))
    with pytest.raises(ValueError):
        eval_variant("C10", 0, 1, (3,), (bad,))


@pytest.mark.parametrize("bad", [True, 2.0, Fraction(2)], ids=["True", "2.0", "Fraction"])
def test_non_int_n_rejected(bad):
    # Neither read as 1 nor carried into a report, and never a TypeError.
    with pytest.raises(ValueError):
        variant_values("T8", bad, (3, 5, 7), (HALF,))
    with pytest.raises(ValueError):
        check_case("C10", bad, (3,), (0,))
    with pytest.raises(ValueError):
        eval_variant("T8", (0, 1, 2), bad, (3, 5, 7), (HALF,))


@pytest.mark.parametrize("one_w, three_w, y", [(3, 3, (0,)), ((3,), (3, 5, 7), None)],
                         ids=["w=3", "y=None"])
def test_a_bare_number_or_none_for_a_sequence_rejected(one_w, three_w, y):
    # A ValueError naming the argument, never a TypeError from len() or
    # from iteration.
    message = f"^{'y' if y is None else 'w'} must be a sequence"
    with pytest.raises(ValueError, match=message):
        check_case("C10", 1, one_w, y)
    with pytest.raises(ValueError, match=message):
        eval_variant("C10", 0, 1, one_w, y)
    with pytest.raises(ValueError, match=message):
        lambda_series("L12_0", None, three_w, y)


def test_eval_variant_choice():
    n, w, y = 3, (3, 5, 7), (HALF, THIRD)
    for index, perm in enumerate(FAMILIES["T5"].perms):
        assert eval_variant("T5", index, n, w, y) == eval_variant("T5", perm, n, w, y)
    for bad in (3, -1, True, (0, 1, 1), (0, 1), "012", None):
        with pytest.raises(ValueError):
            eval_variant("T8", bad, n, w, y[:1])
    with pytest.raises(ValueError):
        eval_variant("C9", (0, 1, 2), n, (3, 5), y[:1])  # corollaries take an index
