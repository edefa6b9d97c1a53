"""Time two source trees of eulersym layer by layer, in one process.

    python3 scripts/ab.py OLD NEW [--rounds K]

OLD and NEW are each a source checkout (a directory that holds
``src/eulersym``) or a git revision of the checkout this script is in,
which is exported with ``git archive`` to a temporary directory.  Each
must be at or after commit ``8dc87ff``, from which a sweep yields its
records as plain row tuples; older trees yield ``VerificationReport``s,
which this script does not read.  Both
trees are imported side by side, as the packages ``ab_old`` and
``ab_new``, so both sides share one process, one interpreter and the
same moment of a shared host; two processes on one host can differ by
more than a layer's change.  The layers:

* ``sweep``: the criterion-1 grid (the eight theorems at n <= 10) swept
  through ``cli._family_sweeps``;
* ``shallow``: the grids of the ``accept_grid`` workload of ``perfbench``
  (n <= 2) and of its ``shift_fanout`` workload at seed 1 (n <= 1), each
  swept through ``cli._family_sweeps``.  At that depth most of a sweep's
  time goes to its term-table misses, and a miss's factor keys and bases
  weigh more against its fold than at n <= 10, where the folds
  (``_product_vec`` and its binomial convolutions) take most of a sweep;
  so a change to that part of a miss shows here and barely in ``sweep``;
* ``writer`` and ``writer_csv``: ``cli._report_pieces`` over the
  ``sweep`` layer's records, one chunk per family as ``verify`` writes
  them, in JSON and in CSV (its own separator, bare values and no quotes,
  the format of the ``shift_fanout`` workload);
* ``series``: ``lambda_series`` on each of the 10 ``series`` calls of the
  ``query`` workload of ``perfbench`` at seed 1.

Each side's inputs are built once, by that side, before any timing.  Each
round runs every layer on both sides, OLD first in even rounds and NEW
first in odd ones, and times each call with ``time.process_time``, after
a garbage collection and with the collector off, as ``timeit`` does: the
inputs of both sides stay alive, so a collection during one side's call
would also walk the other side's objects.  For
each layer it prints the least time of each side over K rounds, the
rounds each side won (a tie counts for neither), and the median and the
quartiles of the per-round ratio NEW/OLD, as a change.  The two sides of
a round run back to back, so their ratio cancels most of the drift of a
shared host, which can move one side's least time by more than a change
does; the quartiles show how far the ratio itself spreads.  It then
prints each side's own median time and interquartile range (q3 - q1):
a change counts as a gain only when the medians differ by more than the
OLD side's interquartile range, and a ratio that spreads widely can be
read against how far OLD spreads on its own.  With one round, each
quartile is that round's value and each range 0.  The exit code is 1 if
any layer's output differs between the sides, and 2 on a usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib
import importlib.util
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
CRITERION_1 = ["verify", "--family", "T1,T2,T5,T8,T11,T14,T16,T17",
               "--wset", "1,2,3,4,5,7", "--include-even-w", "--nmax", "10"]
SIDES = ("old", "new")


def source_tree(spec: str, scratch: str) -> Path:
    """The checkout ``spec`` names: a directory as it is, or else a git
    revision of ROOT, whose ``src`` is exported under ``scratch``; a
    ``ValueError`` if it is neither."""
    path = Path(spec)
    if path.is_dir():
        if not (path / "src" / "eulersym" / "__init__.py").is_file():
            raise ValueError(f"{spec} holds no src/eulersym")
        return path
    git = subprocess.run(["git", "-C", str(ROOT), "archive", spec, "src"], capture_output=True)
    if git.returncode:
        raise ValueError(f"{spec} is neither a directory nor a revision: "
                         f"{git.stderr.decode().strip()}")
    tree = Path(tempfile.mkdtemp(dir=scratch))
    subprocess.run(["tar", "-x", "-C", str(tree)], input=git.stdout, check=True)
    return tree


def load(tree: Path, name: str):
    """The ``cli`` and ``egf_series`` modules of ``tree``'s package,
    imported as the package ``name``."""
    package = tree / "src" / "eulersym"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli"), importlib.import_module(f"{name}.egf_series")


def layers(cli, egf_series) -> dict[str, tuple[Callable[[], object], Callable]]:
    """Layer name -> (the timed call, the function that turns its result
    into what the two sides must agree on), with the inputs built by this
    side."""
    from perfbench.workloads import rep_calls

    config = cli._sweep_config(cli._parse_args(CRITERION_1)[1])
    chunks = [records for records, _ in cli._family_sweeps(config)]
    shallow = [cli._sweep_config(cli._parse_args(call.argv)[1])
               for workload in ("accept_grid", "shift_fanout")
               for call in rep_calls(workload, SEED, 0)]
    series = []
    for call in rep_calls("query", SEED, 0):
        if call.kind == "series":
            args = cli._parse_args(call.argv)[1]
            series.append((args.family, None if args.i is None else int(args.i),
                           cli._numbers("--w", args.w),
                           cli._numbers("--y", args.y, cli.parse_rational), int(args.order)))

    def rows(swept):
        return [(records, dataclasses.astuple(part)) for records, part in swept]

    return {
        "sweep": (lambda: list(cli._family_sweeps(config)), rows),
        "shallow": (lambda: [list(cli._family_sweeps(c)) for c in shallow],
                    lambda sweeps: list(map(rows, sweeps))),
        "writer": (lambda: "".join(cli._report_pieces(chunks, "json")), lambda text: text),
        "writer_csv": (lambda: "".join(cli._report_pieces(chunks, "csv")), lambda text: text),
        "series": (lambda: [egf_series.lambda_series(family, i, w, y, order=order)
                            for family, i, w, y, order in series],
                   lambda out: [s.coeffs for s in out]),
    }


def quartiles(values: list[float]) -> list[float]:
    """q1, median and q3 of ``values``; with one value, that value thrice."""
    return statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="One-process A/B of two eulersym trees.")
    parser.add_argument("old", help="source checkout or git revision")
    parser.add_argument("new", help="source checkout or git revision")
    parser.add_argument("--rounds", type=int, default=15, help="rounds per layer (default 15)")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    sys.path.insert(0, str(ROOT))
    differs = set()
    with tempfile.TemporaryDirectory() as scratch:
        try:
            trees = [source_tree(spec, scratch) for spec in (args.old, args.new)]
        except ValueError as exc:
            parser.error(str(exc))
        sides = {side: layers(*load(tree, f"ab_{side}")) for side, tree in zip(SIDES, trees)}
        times = {name: {side: [] for side in SIDES} for name in sides["old"]}
        for round_ in range(args.rounds):
            order = SIDES if round_ % 2 == 0 else SIDES[::-1]
            for name in times:
                outputs = {}
                for side in order:
                    call, canonical = sides[side][name]
                    gc.collect()
                    gc.disable()
                    try:
                        start = time.process_time()
                        out = call()
                        spent = time.process_time() - start
                    finally:
                        gc.enable()
                    times[name][side].append(spent)
                    outputs[side] = canonical(out)
                    del out
                if outputs["old"] != outputs["new"]:
                    differs.add(name)
    print(f"python {platform.python_version()}, {args.rounds} rounds, "
          f"least process_time per side: old {args.old}, new {args.new}")
    print(f"{'layer':10} {'old ms':>9} {'new ms':>9} {'change':>8} {'new won':>8} {'old won':>8}"
          f" {'ratio q1':>9} {'median':>8} {'q3':>8}")
    for name, by_side in times.items():
        old, new = by_side["old"], by_side["new"]
        new_won = sum(n < o for o, n in zip(old, new))
        old_won = sum(o < n for o, n in zip(old, new))
        q1, median, q3 = quartiles([n / o for o, n in zip(old, new)])
        print(f"{name:10} {min(old) * 1e3:9.1f} {min(new) * 1e3:9.1f} "
              f"{min(new) / min(old) - 1:+8.1%} {new_won:>8} {old_won:>8}"
              f" {q1 - 1:+9.1%} {median - 1:+8.1%} {q3 - 1:+8.1%}")
    print("each side's own spread, ms:")
    print(f"{'layer':10} {'old p50':>9} {'old iqr':>9} {'new p50':>9} {'new iqr':>9}")
    for name, by_side in times.items():
        (o1, old_median, o3), (n1, new_median, n3) = (
            quartiles([t * 1e3 for t in by_side[side]]) for side in SIDES)
        print(f"{name:10} {old_median:9.1f} {o3 - o1:9.1f} {new_median:9.1f} {n3 - n1:9.1f}")
    for name in sorted(differs):
        print(f"ab.py: {name}: the outputs differ between the sides", file=sys.stderr)
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
