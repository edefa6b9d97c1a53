"""Expression terms, the nine three-weight templates, and their orbit sizes.

A *term* is a sum over 1-3 *bundles*, each a factor paired with a base
monomial; a monomial is a tuple of weight slots standing for the product of
those weights.  Three bundles mean sum_{k+l+m=n} C(n;k,l,m) f1[k] f2[l]
f3[m] b1^k b2^l b3^m, two mean sum_k C(n,k) f1[k] f2[n-k] b1^k b2^{n-k},
one means f1[n] b1^n.  ``term(..., scale=s)`` folds the paper's scale
monomial s into every base, as s^n [t^n] prod F_b(beta_b t) =
[t^n] prod F_b(s beta_b t).  Factors: ``E(m, j)`` is E_k(m y_j); ``T(s)``
is T_k(w_s - 1); ``A(m, j, c)`` is sum_{i<w_c} (-1)^i E_k(m y_j + (m/w_c) i)
and ``A(m, j, c1, c2)`` the double alternating sum of
E_k(m y_j + (m/w_c1) i + (m/w_c2) i').  T's w_s and A's counts must be odd:
(e^{wt} + 1)/(e^t + 1) is sum_{i<w} (-1)^i e^{it} only then.  E needs none.
A factor is (kind, monomial, the shift indices it reads, counts): E and A
read (j,), and T, the quotient's power sum, reads no shift, ().

Templates are written in the roles a, b, c = 0, 1, 2; the permutation p
puts role r on weight slot p[r].  Renaming bound summation indices maps
some permuted forms onto others, and the normal form undoes exactly those
renamings: it sorts each monomial and the double sum's count pair (i <->
i'), then the bundles (k, l, m relabel trinomial bundles; k <-> n-k swaps
binomial ones).  The orbit size counts the distinct normal forms.
"""

from __future__ import annotations

from itertools import permutations
from typing import Callable

__all__ = ["ORBIT_TEMPLATES", "EXPECTED_ORBIT_SIZES", "orbit_audit", "orbit_forms"]

Perm = tuple[int, int, int]
Mono = tuple[int, ...]
# (kind, monomial, the shift indices it reads, count slots).
Factor = tuple[str, Mono, tuple[int, ...], Mono]
Term = tuple[tuple[Factor, Mono], ...]

ALL_PERMS: tuple[Perm, ...] = tuple(permutations((0, 1, 2)))
a, b, c = 0, 1, 2  # template roles


def E(m: Mono, j: int) -> Factor: return ("E", m, (j,), ())
def T(s: int) -> Factor: return ("T", (s,), (), ())


def A(m: Mono, j: int, *counts: int) -> Factor:
    if not 1 <= len(counts) <= 2:
        raise ValueError(f"A takes one or two counts, got {counts!r}")
    return ("A", m, (j,), counts)


def term(*bundles: tuple[Factor, Mono], scale: Mono = ()) -> Term:
    return tuple((f, base + scale) for f, base in bundles)


def _sym(fa: Factor, fb: Factor, fc: Factor) -> Term:  # w_a^{l+m} w_b^{k+m} w_c^{k+l}
    return term((fa, (b, c)), (fb, (a, c)), (fc, (a, b)))


def _cyc(fa: Factor, fb: Factor, fc: Factor) -> Term:  # w_c^k w_a^l w_b^m
    return term((fa, (c,)), (fb, (a,)), (fc, (b,)))


ORBIT_TEMPLATES: dict[str, Term] = {
    "eee": _sym(E((a,), 0), E((b,), 1), E((c,), 2)),
    "eet": _sym(E((a,), 0), E((b,), 1), T(c)),
    "e-shift": term((E((a,), 0), (b,)), (A((b,), 1, c), (a,)), scale=(c,)),
    "ett": _sym(E((a,), 0), T(b), T(c)),
    "shift-t": term((A((b,), 0, a), (c,)), (T(c), (b,)), scale=(a,)),
    "double-shift": term((A((c,), 0, a, b), ()), scale=(a, b)),
    "ttt": _sym(T(a), T(b), T(c)),
    "eee-cyclic": _cyc(E((a,), 0), E((b,), 0), E((c,), 0)),
    "ttt-cyclic": _cyc(T(a), T(b), T(c)),
}

EXPECTED_ORBIT_SIZES: dict[str, int] = {
    "eee": 6, "eet": 6, "e-shift": 6, "ett": 3, "shift-t": 6,
    "double-shift": 3, "ttt": 1, "eee-cyclic": 2, "ttt-cyclic": 2,
}


def _map_monos(t: Term, f: Callable[[Mono], Mono]) -> Term:
    return tuple(((kind, f(m), js, f(cs)), f(base)) for (kind, m, js, cs), base in t)


def substitute(t: Term, perm: Perm) -> Term:
    """The term with every weight slot s replaced by perm[s]."""
    return _map_monos(t, lambda m: tuple(perm[s] for s in m))


def normal_form(t: Term, perm: Perm) -> Term:
    """The permuted term modulo renaming of its bound summation indices."""
    return tuple(sorted(_map_monos(t, lambda m: tuple(sorted(perm[s] for s in m)))))


def orbit_forms(template: str) -> dict[Term, list[Perm]]:
    """Group the six weight permutations by normal form."""
    if template not in ORBIT_TEMPLATES:
        raise ValueError(f"unknown template {template!r}; "
                         f"expected one of {sorted(ORBIT_TEMPLATES)}")
    groups: dict[Term, list[Perm]] = {}
    for p in ALL_PERMS:
        groups.setdefault(normal_form(ORBIT_TEMPLATES[template], p), []).append(p)
    return groups


def orbit_audit(template: str) -> int:
    """Number of distinct normal forms of the template over the six permutations."""
    return len(orbit_forms(template))
