"""Run a table of named mutants of eulersym against the tests, one at a time.

    python3 scripts/mutants.py

Run from anywhere inside a source checkout.  Each mutant is an exact
(file under ``src/``, old text, new text) edit whose old text must occur
once in that file.  For each, the checkout's ``src/``, ``tests/`` and
``pyproject.toml`` are copied to a temporary directory, the edit is made
there, and ``python -m pytest -q -x`` runs in that directory with its
``src`` first on ``PYTHONPATH``, one child at a time.  A mutant is killed
when that run fails and survives when it passes.

It prints each mutant's name, killed or survived, the first failing test
and the seconds taken, and exits 1 if any mutant survives or any edit
fails to match once; otherwise 0.  Standard library only; it takes no
options.  The checkout itself is never edited.  Each mutant stands for a
check that a test must keep making: a surviving one means a test, or the
check it covers, has been weakened.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, file under src/, old text, new text)
MUTANTS = [
    # The Taylor-shift recurrence of the quotient series.
    ("shift: p and q swapped", "eulersym/egf_series.py",
     "row = [q * b + p * a for a, b in zip(row, row[1:])]",
     "row = [p * b + q * a for a, b in zip(row, row[1:])]"),
    ("shift: p negated", "eulersym/egf_series.py",
     "row = [q * b + p * a for a, b in zip(row, row[1:])]",
     "row = [q * b - p * a for a, b in zip(row, row[1:])]"),
    ("shift: q factor dropped", "eulersym/egf_series.py",
     "row = [q * b + p * a for a, b in zip(row, row[1:])]",
     "row = [b + p * a for a, b in zip(row, row[1:])]"),
    ("shift: last entry read", "eulersym/egf_series.py",
     "coeffs.append(Fraction(row[0], d * q ** k))",
     "coeffs.append(Fraction(row[-1], d * q ** k))"),
    # A term's values: its shift-free fold shifted by its rate R = p/q, which
    # sums base * (monomial * shift - anchor) over its E and A bundles.
    ("term rate: p negated", "eulersym/identities.py",
     "_shift(folded, p // g, q // g, table)", "_shift(folded, -p // g, q // g, table)"),
    ("term shift: q dropped", "eulersym/identities.py",
     "row = [q * b + p * a for a, b in zip(row, row[1:])]",
     "row = [b + p * a for a, b in zip(row, row[1:])]"),
    ("term rate: first bundle left out", "eulersym/identities.py",
     "for _, m0, c0, b0, b1, j, j1 in plan:", "for _, m0, c0, b0, b1, j, j1 in plan[1:]:"),
    ("term rate: anchor dropped", "eulersym/identities.py",
     "* sn * dx0 - x0 * sd)", "* sn * dx0)"),
    ("term rate: first shift read for every bundle", "eulersym/identities.py",
     "sn, sd = kys[j]", "sn, sd = kys[0]"),
    # Repeated --wset and --ys values collapse.
    ("grid: repeated shifts kept", "eulersym/cli.py",
     "pool = tuple(dict.fromkeys(samples))", "pool = tuple(samples)"),
    ("grid: repeated weights kept", "eulersym/cli.py",
     "values = sorted(set(config.w_set))", "values = sorted(config.w_set)"),
    # Range checks that a later line would otherwise fail with the same class.
    ("range: sub-index up to 4", "eulersym/egf_series.py",
     "not 0 <= i <= 3", "not 0 <= i <= 4"),
    ("range: coefficient index unbounded above", "eulersym/egf_series.py",
     "not 0 <= k <= series.order", "not 0 <= k"),
    # The series spot check reading a family's rows.
    ("oracle: only n = n_max compared", "eulersym/identities.py",
     "zip(rows[cells - 1::cells], coeffs)", "zip(rows[-1:], coeffs[-1:])"),
    ("oracle: first cell read", "eulersym/identities.py",
     "zip(rows[cells - 1::cells], coeffs)", "zip(rows[0::cells], coeffs)"),
    ("oracle: cell count off by one", "eulersym/identities.py",
     "cells = len(rows) // (n_max + 1)", "cells = len(rows) // (n_max + 1) + 1"),
    ("oracle: empty-rows guard dropped", "eulersym/identities.py",
     "not in _TEMPLATE_SERIES or not rows:", "not in _TEMPLATE_SERIES:"),
    # A value interned under the pair it was looked up by, not its own ints.
    ("values: stored under the temporary pair", "eulersym/identities.py",
     "known[value.numerator, value.denominator] = value", "known[c // g, den // g] = value"),
    # The parity rule read off a term's factors.
    ("parity: T only", "eulersym/identities.py",
     'any(kind != "E" for kind, *_ in plan)', 'any(kind == "T" for kind, *_ in plan)'),
    ("parity: always odd", "eulersym/identities.py",
     'any(kind != "E" for kind, *_ in plan)', "True"),
    ("parity: never odd", "eulersym/identities.py",
     'any(kind != "E" for kind, *_ in plan)', "False"),
]


def _first_failure(output: str) -> str:
    """The first test pytest's short summary names as failed or in error."""
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ", 1)[0]
    return "(no test named; see the run's output)"


def _run(rel: str, old: str, new: str) -> tuple[bool, str]:
    """Whether the tests kill one mutant, and its verdict as printed:
    killed by the first failing test, survived, or no match."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        work = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, work / name, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", work / "pyproject.toml")
        target = work / "src" / rel
        text = target.read_text()
        if text.count(old) != 1:
            return False, f"no match: the old text occurs {text.count(old)} times in src/{rel}"
        target.write_text(text.replace(old, new))
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": str(work / "src") + (os.pathsep + path if path else "")}
        run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x"], cwd=work, env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if run.returncode == 0:
        return False, "survived"
    return True, f"killed by {_first_failure(run.stdout)}"


def main() -> int:
    bad = 0
    began = time.perf_counter()
    for name, rel, old, new in MUTANTS:
        t0 = time.perf_counter()
        killed, text = _run(rel, old, new)
        bad += not killed
        print(f"{name}: {text}, {time.perf_counter() - t0:.1f} s", flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed in "
          f"{time.perf_counter() - began:.1f} s", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
