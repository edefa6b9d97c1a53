from fractions import Fraction
from math import comb

import pytest

from eulersym.egf_series import egf_coeff, lambda_series
from eulersym.euler import euler_eval
from eulersym.identities import (
    FAMILIES,
    FAMILY_IDS,
    PARENT_SPECIALIZATIONS,
    SERIES_ORACLES,
    VerificationReport,
    check_case,
    eval_corollary,
    eval_intro_chain,
    eval_t1_variant,
    eval_t2_variant,
    eval_t5_variant,
    eval_t8_variant,
    eval_t11_variant,
    eval_t14_variant,
    eval_t16_variant,
    eval_t17_variant,
    eval_triple_altsum,
    variant_values,
)
from eulersym.orbits import ALL_PERMS

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
    assert eval_t1_variant((0, 1, 2), 1, (1, 1, 1), (0, 0, 0)) == Fraction(-3, 2)
    for perm in ALL_PERMS:
        assert eval_t1_variant(perm, 0, (4, 9, 2), (HALF, -1, 3)) == 1
    values = {
        eval_t1_variant(p, 4, (1, 3, 5), (HALF, -THIRD, 2)) for p in ALL_PERMS
    }
    assert len(values) == 1


def test_t1_accepts_even_weights():
    values = {
        eval_t1_variant(p, 5, (2, 3, 4), (HALF, -THIRD, Fraction(2, 7)))
        for p in ALL_PERMS
    }
    assert len(values) == 1


def test_t1_degenerate_weights():
    y = (HALF, -THIRD, Fraction(2, 7))
    for n in range(7):
        assert eval_t1_variant((0, 1, 2), n, (1, 1, 1), y) == _tri_eee(n, *y)


# ---------------------------------------------------------------- T2


def test_t2_degenerate_weights():
    # T_m(0) kills every m > 0 term, leaving the two-factor convolution.
    y = (HALF, -THIRD)
    for n in range(7):
        assert eval_t2_variant((0, 1, 2), n, (1, 1, 1), y) == _binom_ee(n, *y)


def test_t2_six_way_agreement():
    values = {
        eval_t2_variant(p, 5, (3, 5, 7), (Fraction(1, 4), -2)) for p in ALL_PERMS
    }
    assert len(values) == 1
    for perm in ALL_PERMS:
        assert eval_t2_variant(perm, 0, (3, 5, 7), (1, 2)) == 1


def test_t2_rejects_even_weights():
    with pytest.raises(ValueError):
        eval_t2_variant((0, 1, 2), 3, (2, 3, 5), (0, 0))


# ---------------------------------------------------------------- T5


def test_t5_degenerate_weights():
    y = (HALF, THIRD)
    for n in range(7):
        assert eval_t5_variant((0, 1, 2), n, (1, 1, 1), y) == _binom_ee(n, *y)


def test_t5_constant_coefficient_is_one():
    for w in ((1, 3, 5), (3, 3, 7), (5, 7, 1)):
        for perm in ALL_PERMS:
            assert eval_t5_variant(perm, 0, w, (HALF, -2)) == 1


def test_t5_six_way_agreement_and_t2_cross_check():
    n, w, y = 3, (1, 3, 5), (HALF, THIRD)
    values = {eval_t5_variant(p, n, w, y) for p in ALL_PERMS}
    assert len(values) == 1
    # T2 and T5 expand the same quotient series, so their values coincide.
    assert values == {eval_t2_variant((0, 1, 2), n, w, y)}
    for n in range(8):
        assert eval_t5_variant((2, 0, 1), n, (3, 5, 7), y) == eval_t2_variant(
            (1, 2, 0), n, (3, 5, 7), y
        )


# ---------------------------------------------------------------- T8


def test_t8_degenerate_weights():
    for n in range(8):
        assert eval_t8_variant((0, 1, 2), n, (1, 1, 1), HALF) == euler_eval(n, HALF)


def test_t8_worked_example():
    # at w = (3,1,1), n = 1, y = 0 every variant equals E_1(0) = -1/2
    for perm in ALL_PERMS:
        assert eval_t8_variant(perm, 1, (3, 1, 1), 0) == Fraction(-1, 2)
    assert eval_corollary("C10", 0, 1, (3,), (0,)) == Fraction(-1, 2)


def test_t8_collapse_of_transposed_forms():
    # The transposed forms equal the cyclic ones under the l <-> m swap;
    # both sides evaluated independently.
    for even, odd in zip(EVEN_PERMS, ((0, 2, 1), (1, 0, 2), (2, 1, 0))):
        for n in range(6):
            w, y1 = (3, 5, 7), Fraction(2, 7)
            assert eval_t8_variant(even, n, w, y1) == eval_t8_variant(odd, n, w, y1)


def test_t8_three_way_agreement():
    values = {eval_t8_variant(p, 4, (3, 5, 7), Fraction(2, 7)) for p in EVEN_PERMS}
    assert len(values) == 1


# ---------------------------------------------------------------- T11


def test_t11_degenerate_weights():
    for n in range(8):
        assert eval_t11_variant((0, 1, 2), n, (1, 1, 1), -THIRD) == euler_eval(
            n, -THIRD
        )
    for perm in ALL_PERMS:
        assert eval_t11_variant(perm, 0, (3, 5, 7), 1) == 1


def test_t11_six_way_agreement_and_t8_cross_check():
    n, w, y1 = 4, (3, 5, 1), Fraction(2, 7)
    values = {eval_t11_variant(p, n, w, y1) for p in ALL_PERMS}
    assert len(values) == 1
    # T8 and T11 both expand the doubly-divided quotient series.
    assert values == {eval_t8_variant((0, 1, 2), n, w, y1)}


# ---------------------------------------------------------------- T14


def test_t14_degenerate_weights():
    for n in range(8):
        assert eval_t14_variant((0, 1, 2), n, (1, 1, 1), HALF) == euler_eval(n, HALF)
    for perm in EVEN_PERMS:
        assert eval_t14_variant(perm, 0, (3, 5, 7), HALF) == 1


def test_t14_three_way_agreement_and_cross_checks():
    n, w, y1 = 2, (3, 5, 7), HALF
    values = {eval_t14_variant(p, n, w, y1) for p in EVEN_PERMS}
    assert len(values) == 1
    assert values == {eval_t8_variant((0, 1, 2), n, w, y1)}
    assert values == {eval_t11_variant((0, 1, 2), n, w, y1)}


# ---------------------------------------------------------------- T16


def test_t16_two_way_agreement_with_even_weights():
    n, w, y = 3, (2, 3, 4), HALF
    assert eval_t16_variant((0, 1, 2), n, w, y) == eval_t16_variant((0, 2, 1), n, w, y)
    for perm in ALL_PERMS:
        assert eval_t16_variant(perm, 0, w, y) == 1


def test_t16_degenerate_weights():
    for n in range(7):
        assert eval_t16_variant((0, 1, 2), n, (1, 1, 1), HALF) == _tri_eee(
            n, HALF, HALF, HALF
        )


def test_t16_matches_t1_degenerate_case():
    assert eval_t16_variant((0, 1, 2), 1, (1, 1, 1), 0) == Fraction(-3, 2)


# ---------------------------------------------------------------- T17


def test_t17_degenerate_weights():
    assert eval_t17_variant((0, 1, 2), 0, (1, 1, 1)) == 1
    for n in range(1, 8):
        assert eval_t17_variant((0, 1, 2), n, (1, 1, 1)) == 0


def test_t17_worked_example():
    assert eval_t17_variant((0, 1, 2), 1, (3, 1, 1)) == 1
    assert eval_t17_variant((0, 2, 1), 1, (3, 1, 1)) == 1


def test_t17_collapse_of_relabeled_forms():
    # cyclic relabelings reduce the four extra permuted forms to the two
    # canonical ones; all six evaluate equal anyway
    w = (3, 5, 7)
    for n in range(7):
        reference = eval_t17_variant((0, 1, 2), n, w)
        for perm in ((1, 2, 0), (2, 0, 1)):
            assert eval_t17_variant(perm, n, w) == reference
        alternate = eval_t17_variant((0, 2, 1), n, w)
        for perm in ((2, 1, 0), (1, 0, 2)):
            assert eval_t17_variant(perm, n, w) == alternate
        assert reference == alternate


# ---------------------------------------------------------------- corollaries


def test_c10_worked_example():
    assert eval_corollary("C10", 0, 1, (3,), (0,)) == Fraction(-1, 2)
    assert eval_corollary("C10", 1, 1, (3,), (0,)) == Fraction(-1, 2)


def test_c13_unit_weight_collapses():
    for n in range(8):
        for index in range(3):
            assert eval_corollary("C13", index, n, (1,), (THIRD,)) == euler_eval(
                n, THIRD
            )


def test_c18_agreement():
    for n in range(9):
        assert eval_corollary("C18", 0, n, (3, 5)) == eval_corollary(
            "C18", 1, n, (3, 5)
        )


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
        eval_corollary("C99", 0, 1, (3,), (0,))
    with pytest.raises(ValueError):
        eval_corollary("C10", 2, 1, (3,), (0,))  # only two variants
    with pytest.raises(ValueError):
        eval_corollary("C10", 0, 1, (2,), (0,))  # even weight
    with pytest.raises(ValueError):
        eval_corollary("C9", 0, 1, (3,), (0,))  # needs two weights
    with pytest.raises(ValueError):
        eval_corollary("C9", 0, -1, (3, 5), (0,))


# ---------------------------------------------------------------- intro chain


def test_intro_chain_worked_examples():
    assert eval_intro_chain(0, 1, 1, 1, 0) == Fraction(-1, 2)
    # the long-known two-expression equality
    assert eval_intro_chain(0, 6, 3, 5, THIRD) == eval_intro_chain(1, 6, 3, 5, THIRD)
    # the full eight-way chain
    values = {eval_intro_chain(i, 4, 3, 7, -HALF) for i in range(8)}
    assert len(values) == 1


def test_intro_chain_degenerate_weights():
    for n in range(8):
        for index in range(8):
            assert eval_intro_chain(index, n, 1, 1, HALF) == euler_eval(n, HALF)


def test_intro_chain_matches_source_corollaries():
    # the eight expressions are exactly the union of the chains of the
    # two-weight corollaries C9, C12, C15
    n, w1, w2, y1 = 5, 3, 5, Fraction(2, 7)
    chain = [eval_intro_chain(i, n, w1, w2, y1) for i in range(8)]
    c9 = [eval_corollary("C9", i, n, (w1, w2), (y1,)) for i in range(3)]
    c12 = [eval_corollary("C12", i, n, (w1, w2), (y1,)) for i in range(6)]
    c15 = [eval_corollary("C15", i, n, (w1, w2), (y1,)) for i in range(3)]
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
        eval_intro_chain(8, 1, 3, 5, 0)
    with pytest.raises(ValueError):
        eval_intro_chain(0, 1, 2, 5, 0)


# ---------------------------------------------------------------- structure


def test_catalog_structure():
    assert set(PARENT_SPECIALIZATIONS) < set(FAMILY_IDS)
    assert len(FAMILIES["INTRO_CHAIN"].variants) == 8
    for fid, fam in FAMILIES.items():
        assert fam.family_id == fid
        if fid == "INTRO_CHAIN":
            assert fam.expected_orbit_size is None
        else:
            assert fam.expected_orbit_size == len(fam.variants)
        # only the two all-Euler theorem families admit even weights
        assert fam.odd_only == (fid not in ("T1", "T16"))


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


# ---------------------------------------------------------------- reports


def test_check_case_and_report():
    report = check_case("C10", 1, (3,), (0,))
    assert report.all_equal
    assert report.variant_values == (Fraction(-1, 2), Fraction(-1, 2))
    assert report.w == (3,) and report.y == (Fraction(0),)
    assert not report.orbit_size_checked

    with pytest.raises(ValueError):
        VerificationReport(
            family_id="C10",
            n=1,
            w=(3,),
            y=(Fraction(0),),
            variant_values=(Fraction(1), Fraction(2)),
            all_equal=True,
        )


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
        eval_t1_variant((0, 1, 2), 2, w, (0, 0, 0))
