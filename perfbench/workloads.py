"""The benchmark's workloads: CLI argument lists generated from a seed.

Every workload is a list of ``eulersym`` CLI invocations making up one
repetition ("rep").  The program only ever sees the generated arguments.
Inputs depend on the seed in ways that keep the cost of a rep the same:
the seed picks values of fixed size (shift samples, evaluation points,
weight orders), never degrees, orders or counts.

* ``accept_grid``: the acceptance-criterion-1 grid through ``verify`` (all
  8 theorem families, even weights included, the 6 standard shifts, JSON),
  with ``n_max`` lowered from 10 so that several reps fit in one run.  The
  seed is not used.
* ``shift_fanout``: the 8 shifted-argument families through ``verify``
  with seeded shift samples of large denominator, CSV output.  Its Euler
  value lookups see 4,170 distinct arguments, a new argument in 1.7% of
  ``euler_values`` calls: 5x the rate of ``accept_grid``.
* ``query``: one-shot ``euler``/``altsum``/``series`` calls, one fresh
  process each.  Rep r passes the series weights in permutation r mod 6;
  the series are symmetric in the weights, so every rep must print the
  same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations
from random import Random

DEFAULT_SEED = 1
SEEDS = range(16)  # seeds with a reference digest in reference.json

# (w arity, y arity, odd weights only) of each family the workloads sweep,
# restated here from the identity statements so that a sweep that drops or
# adds cases is caught.
FAMILY_SHAPES = {
    "T1": (3, 3, False),
    "T2": (3, 2, True),
    "T5": (3, 2, True),
    "T8": (3, 1, True),
    "T11": (3, 1, True),
    "T14": (3, 1, True),
    "T16": (3, 1, False),
    "T17": (3, 0, True),
    "C6": (2, 2, True),
    "C12": (2, 1, True),
    "C13": (1, 1, True),
    "C15": (2, 1, True),
    "INTRO_CHAIN": (2, 1, True),
}

ACCEPT_FAMILIES = ("T1", "T2", "T5", "T8", "T11", "T14", "T16", "T17")
ACCEPT_W = (1, 2, 3, 4, 5, 7)
ACCEPT_YS = "0,1,-1,1/2,-1/3,2/7"
ACCEPT_NMAX = 2

SHIFT_FAMILIES = ("T5", "T11", "T14", "C6", "C12", "C13", "C15", "INTRO_CHAIN")
SHIFT_W = (1, 3, 5, 7, 9)
SHIFT_NMAX = 1
SHIFT_SAMPLES = 6

EULER_N = 100
# Table-bound calls are 4 of the 15 per rep, so the latency tail (the
# slowest ~15%) always falls among them rather than on a group boundary.
EULER_POINTS = 3
SERIES_ORDER = 100
SERIES_W = (3, 5, 7)
# (family, sub-index, number of shift values): every LAMBDA_FAMILIES member.
SERIES_MEMBERS = tuple(
    [("L23", i, 3 - i) for i in range(4)]
    + [("L13", i, 3 - i) for i in range(4)]
    + [("L12_0", None, 1), ("L12_1", None, 0)]
)
WEIGHT_ORDERS = tuple(permutations(range(3)))

WORKLOADS = ("accept_grid", "shift_fanout", "query")


@dataclass(frozen=True)
class Invocation:
    """One CLI call.  ``kind`` selects the output check run.py applies.

    Values that may start with '-' are passed as ``--opt=value``; argparse
    would take a separate ``-1/3`` for an option."""

    argv: tuple[str, ...]
    kind: str
    expect: dict = field(default_factory=dict)


def expected_cases(
    families: tuple[str, ...], w_set: tuple[int, ...], include_even: bool,
    n_max: int, n_samples: int,
) -> int:
    """Records a sweep must report: per family (n_max + 1) x weight tuples
    x cyclic shift windows (one window per distinct sample)."""
    total = 0
    for family in families:
        w_arity, y_arity, odd_only = FAMILY_SHAPES[family]
        weights = [w for w in set(w_set) if w % 2 or (include_even and not odd_only)]
        windows = n_samples if y_arity else 1
        total += (n_max + 1) * len(weights) ** w_arity * windows
    return total


def _rational(rng: Random, num_digits: int, den_digits: int) -> Fraction:
    num = rng.randrange(10 ** (num_digits - 1), 10**num_digits)
    den = rng.randrange(10 ** (den_digits - 1), 10**den_digits)
    return Fraction(num if rng.random() < 0.5 else -num, den)


def sweep(families, w_set, n_max, ys, fmt, include_even) -> Invocation:
    """A ``verify`` call and what its report must contain."""
    argv = [
        "verify", "--family", ",".join(families),
        "--wset", ",".join(map(str, w_set)),
        "--nmax", str(n_max), f"--ys={ys}", "--format", fmt,
    ]
    if include_even:
        argv.append("--include-even-w")
    n_samples = len(ys.split(","))
    theorems = sum(1 for f in families if f.startswith("T"))
    return Invocation(
        tuple(argv),
        "verify",
        {
            "format": fmt,
            "cases": expected_cases(families, w_set, include_even, n_max, n_samples),
            # each theorem family gets one orbit audit and one series oracle
            "orbit_checks": theorems,
            "oracle_checks": theorems,
        },
    )


def shift_samples(seed: int) -> list[Fraction]:
    rng = Random(f"shift_fanout/{seed}")
    samples: list[Fraction] = []
    while len(samples) < SHIFT_SAMPLES:
        y = _rational(rng, 4, 6)
        if y not in samples:
            samples.append(y)
    return samples


def _query_calls(seed: int, rep: int) -> list[Invocation]:
    rng = Random(f"query/{seed}")
    probe = _rational(rng, 2, 2)  # point for the E_n(x) + E_n(x+1) = 2x^n check
    calls = [Invocation(("euler", "--n", str(EULER_N)), "euler", {"n": EULER_N, "probe": probe})]
    for _ in range(EULER_POINTS):
        x = _rational(rng, 6, 6)
        calls.append(
            Invocation(("euler", "--n", str(EULER_N), f"--x={x}"), "euler_x", {"n": EULER_N, "x": x})
        )
    k, m = rng.randrange(100, 200), rng.randrange(500, 1000)
    calls.append(Invocation(("altsum", "--k", str(k), "--n", str(m)), "altsum", {"k": k, "n": m}))
    shifts = [[_rational(rng, 3, 3) for _ in range(count)] for _, _, count in SERIES_MEMBERS]
    order = WEIGHT_ORDERS[rep % len(WEIGHT_ORDERS)]
    w = ",".join(str(SERIES_W[j]) for j in order)
    for (family, sub, _), ys in zip(SERIES_MEMBERS, shifts):
        argv = ["series", "--family", family, "--w", w, "--order", str(SERIES_ORDER)]
        if sub is not None:
            argv += ["--i", str(sub)]
        if ys:
            argv.append("--y=" + ",".join(map(str, ys)))
        calls.append(Invocation(tuple(argv), "series", {"order": SERIES_ORDER}))
    Random(f"query-order/{seed}").shuffle(calls)
    return calls


def rep_calls(workload: str, seed: int, rep: int) -> list[Invocation]:
    """The invocations of repetition ``rep`` of ``workload`` at ``seed``."""
    if workload == "accept_grid":
        return [sweep(ACCEPT_FAMILIES, ACCEPT_W, ACCEPT_NMAX, ACCEPT_YS, "json", True)]
    if workload == "shift_fanout":
        ys = ",".join(map(str, shift_samples(seed)))
        return [sweep(SHIFT_FAMILIES, SHIFT_W, SHIFT_NMAX, ys, "csv", False)]
    if workload == "query":
        return _query_calls(seed, rep)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def reference_key(workload: str, seed: int) -> str:
    """Key of the reference digest: accept_grid's inputs ignore the seed."""
    return "any" if workload == "accept_grid" else str(seed)
