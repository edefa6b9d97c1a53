from fractions import Fraction
from itertools import product

import pytest

from eulersym import identities
from eulersym.identities import FAMILIES
from eulersym.orbits import (
    ALL_PERMS,
    EXPECTED_ORBIT_SIZES,
    ORBIT_TEMPLATES,
    A,
    E,
    T,
    normal_form,
    orbit_audit,
    orbit_forms,
    term,
)


def test_orbit_sizes():
    assert orbit_audit("eee") == 6
    assert orbit_audit("eet") == 6
    assert orbit_audit("e-shift") == 6
    assert orbit_audit("ett") == 3
    assert orbit_audit("shift-t") == 6
    assert orbit_audit("double-shift") == 3
    assert orbit_audit("ttt") == 1
    assert orbit_audit("eee-cyclic") == 2
    assert orbit_audit("ttt-cyclic") == 2
    for template, size in EXPECTED_ORBIT_SIZES.items():
        assert orbit_audit(template) == size


def test_unknown_template_rejected():
    with pytest.raises(ValueError):
        orbit_audit("zzz")


def test_forms_partition_all_permutations():
    for template in EXPECTED_ORBIT_SIZES:
        groups = orbit_forms(template)
        members = [p for perms in groups.values() for p in perms]
        assert sorted(members) == sorted(ALL_PERMS)
        # cosets of a subgroup: all classes have equal size
        sizes = {len(perms) for perms in groups.values()}
        assert len(sizes) == 1


def test_collapse_classes():
    # Three-form template: the odd permutation fixing the Euler slot lands
    # in the same class as the corresponding cyclic form.
    groups = orbit_forms("ett")
    classes = [set(perms) for perms in groups.values()]
    assert {(0, 1, 2), (0, 2, 1)} in classes
    assert {(1, 2, 0), (1, 0, 2)} in classes
    assert {(2, 0, 1), (2, 1, 0)} in classes

    # Two-form templates split into the even and odd permutation classes.
    for template in ("ttt-cyclic", "eee-cyclic"):
        groups = orbit_forms(template)
        classes = [set(perms) for perms in groups.values()]
        assert {(0, 1, 2), (1, 2, 0), (2, 0, 1)} in classes
        assert {(0, 2, 1), (2, 1, 0), (1, 0, 2)} in classes

    # Double alternating sum: swapping the two inner indices swaps the two
    # outer weights, pairing each permutation with its first-two transpose.
    groups = orbit_forms("double-shift")
    classes = [set(perms) for perms in groups.values()]
    assert {(0, 1, 2), (1, 0, 2)} in classes
    assert {(1, 2, 0), (2, 1, 0)} in classes
    assert {(2, 0, 1), (0, 2, 1)} in classes


def test_family_templates_match_variant_counts():
    for family in FAMILIES.values():
        if family.orbit_template is not None:
            assert orbit_audit(family.orbit_template) == family.expected_orbit_size
            assert len(family.variants) == family.expected_orbit_size


def test_family_perms_hit_each_orbit_class_once():
    # The listed forms of a theorem are pairwise distinct expressions, one
    # per class: no two collapse onto each other under bound renaming.
    for family in FAMILIES.values():
        if family.orbit_template is None:
            continue
        template = ORBIT_TEMPLATES[family.orbit_template]
        classes = {normal_form(template, p) for p in family.perms}
        assert len(family.perms) == len(family.variants) == len(classes)
        assert len(classes) == orbit_audit(family.orbit_template)


# Each term written with a scale, and the same term with the scale written
# into every base by hand, in the roles a, b, c = 0, 1, 2.
FOLDS = [
    (term((E((0,), 0), (1,)), (A((1,), 1, 2), (0,)), scale=(2,)),
     term((E((0,), 0), (1, 2)), (A((1,), 1, 2), (0, 2)))),
    (term((A((1,), 0, 0), (2,)), (T(2), (1,)), scale=(0,)),
     term((A((1,), 0, 0), (2, 0)), (T(2), (1, 0)))),
    (term((A((2,), 0, 0, 1), ()), scale=(0, 1)),
     term((A((2,), 0, 0, 1), (0, 1)),)),
    (term((A((), 0, 0), ()), scale=(0,)),
     term((A((), 0, 0), (0,)),)),
]


@pytest.mark.parametrize("scaled, folded", FOLDS)
def test_scale_folds_into_the_bases(scaled, folded):
    # sigma^n [t^n] prod F_b(beta_b t) = [t^n] prod F_b(sigma beta_b t).
    for p in ALL_PERMS:
        assert normal_form(scaled, p) == normal_form(folded, p)
    ev, by_hand = (identities._compile(identities._plan(t)) for t in (scaled, folded))
    y = (Fraction(1, 3), Fraction(-1, 2))
    for w in product((1, 3, 5), repeat=3):
        for n in range(5):
            assert ev(n, w, y) == by_hand(n, w, y), (w, n)


@pytest.mark.parametrize("counts", [(), (0, 1, 2)])
def test_alternating_sum_takes_one_or_two_counts(counts):
    with pytest.raises(ValueError, match="one or two counts"):
        A((0,), 0, *counts)
