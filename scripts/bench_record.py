"""Record one point of the benchmark trajectory as BENCH_<label>.json.

    python3 scripts/bench_record.py LABEL

Run from anywhere inside a source checkout; the file is written at the
checkout's root.  For each workload of BENCHMARK.json it runs

    python3 perfbench/run.py --workload W --seed 1 --seconds 40 --trace 0

and keeps the run's provenance line and result line.  It then runs the
three pinned report grids (criterion 1, the default ``verify`` grid and
the shifted grid) through the CLI and keeps the SHA-256 of each report,
so that two BENCH files show both the speed and whether the reports
stayed byte-identical.  Last, in its own process, it times the
criterion-1 grid: the whole grid through ``run_sweep``, each of its
families swept alone, and ``emit_report`` over the whole grid's records,
each the median of three runs, and the series layer: each ``series``
call of the ``query`` workload at the same seed, and the series spot
check of each theorem family of the default grid at ``--nmax 80``, each
the median of three runs.  It also runs the default grid at
``--nmax 80`` (about 135 MB of report, written to a temporary file) in a
fresh interpreter that prints its own peak RSS after ``main`` returns, and
keeps it as ``deep_peak_rss_mb``: the memory ``verify`` needs at depth.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
SECONDS = 40
REPS = 3  # in-process runs per timing

# The report grids whose digests tests/test_cli.py and CI pin.
GRIDS = {
    "criterion_1": ["verify", "--family", "T1,T2,T5,T8,T11,T14,T16,T17",
                    "--wset", "1,2,3,4,5,7", "--include-even-w", "--nmax", "10"],
    "default": ["verify"],
    "shifted": ["verify", "--family", "T5,T11,T14,C6,C12,C13,C15,INTRO_CHAIN",
                "--wset", "1,3,5,7", "--nmax", "4",
                "--ys=123457/999983,-654321/100003,5/100019", "--format", "csv"],
}

# The deep grid: the default grid at n <= 80, 278,640 cases.  The series
# block times the series spot checks of its theorem families.
DEEP = ["verify", "--nmax", "80"]
# Run in a fresh interpreter, which reports its own peak RSS, in kB on Linux,
# not that of the processes a harness may have run before.
_PEAK_RSS = ("import resource, sys; from eulersym.cli import main; rc = main(sys.argv[1:]); "
             "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss); sys.exit(rc)")


def run_workload(workload: str) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    provenance, result = proc.stdout.strip().splitlines()[-2:]
    return {"command": cmd[1:], "provenance": json.loads(provenance),
            "result": json.loads(result)}


def grid_sha256(argv: list[str]) -> str:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-m", "eulersym.cli", *argv], cwd=ROOT,
                          capture_output=True, env=env, check=True)
    return hashlib.sha256(proc.stdout).hexdigest()


def deep_peak_rss_mb() -> float:
    """Peak RSS of a process that runs the DEEP grid to a file, in MB."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    with tempfile.TemporaryDirectory() as tmp:
        argv = [*DEEP, "--output", os.path.join(tmp, "deep.json")]
        proc = subprocess.run([sys.executable, "-c", _PEAK_RSS, *argv], cwd=ROOT,
                              capture_output=True, text=True, env=env, check=True)
    return round(int(proc.stdout) / 1024, 1)


def median_s(work) -> float:
    """Median wall time of REPS calls of ``work``, in seconds."""
    times = []
    for _ in range(REPS):
        start = time.perf_counter()
        work()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _checkout_cli():
    """The ``cli`` module of this checkout's own ``src``."""
    sys.path.insert(0, str(ROOT / "src"))
    from eulersym import cli

    return cli


def in_process(argv: list[str]) -> dict:
    """Time the ``verify`` grid of ``argv`` in this process, with the
    checkout's own ``src``: the whole grid through ``run_sweep``, each
    family swept alone (a table of its own), and ``emit_report`` over the
    whole grid's records in the grid's format."""
    cli = _checkout_cli()
    args = cli._parse_args(argv)[1]
    config = cli._sweep_config(args)
    records = cli.run_sweep(config)[0]
    return {
        "python": platform.python_version(),
        "reps": REPS,
        "cases": len(records),
        "run_sweep_s": median_s(lambda: cli.run_sweep(config)),
        "run_sweep_per_family_s": {
            fid: median_s(lambda: cli.run_sweep(dataclasses.replace(config, families=(fid,))))
            for fid in sorted(set(config.families))
        },
        "emit_report_s": median_s(lambda: cli.emit_report(records, args.format)),
    }


def series_layer() -> dict:
    """Time the series layer in this process, with the checkout's own
    ``src``: ``lambda_series`` on the arguments of each ``series`` call of
    the ``query`` workload's first repetition at SEED, keyed by its options,
    and ``identities._oracle_holds`` on the parameters the sweep of the
    DEEP grid gives each of its families with a series spot check (the
    theorem families), keyed by family id, each the median of REPS runs."""
    cli = _checkout_cli()
    sys.path.insert(0, str(ROOT))
    from eulersym import identities
    from eulersym.egf_series import lambda_series
    from perfbench.workloads import rep_calls

    calls = {}
    for call in rep_calls("query", SEED, 0):
        if call.kind == "series":
            args = cli._parse_args(call.argv)[1]
            calls[" ".join(call.argv[1:])] = (
                args.family, None if args.i is None else int(args.i),
                cli._numbers("--w", args.w), cli._numbers("--y", args.y, cli.parse_rational),
                int(args.order))
    config = cli._sweep_config(cli._parse_args(DEEP)[1])
    checks = {}
    for fid in config.families:
        fam = identities.FAMILIES[fid]
        wt = tuple(product(cli._admissible_w_values(fam, config), repeat=fam.w_arity))[-1]
        yt = cli._y_tuples(config.y_samples, fam.y_arity)[-1]
        # At the last (w, y), as the sweep checks it; None: the family has no series.
        if identities._oracle_holds(fam, config.n_max, wt, yt) is not None:
            checks[fid] = (fam, config.n_max, wt, yt)
    return {
        "reps": REPS,
        "series_call_s": {
            key: median_s(lambda: lambda_series(family, i, w, y, order=order))
            for key, (family, i, w, y, order) in sorted(calls.items())
        },
        "spot_grid": DEEP[1:],
        "spot_check_s": {
            fid: median_s(lambda: identities._oracle_holds(*check))
            for fid, check in sorted(checks.items())
        },
        "spot_checks_s": median_s(
            lambda: [identities._oracle_holds(*check) for check in checks.values()]),
    }


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not argv[0]:
        print("usage: python3 scripts/bench_record.py LABEL", file=sys.stderr)
        return 2
    label = argv[0]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = {
        "label": label,
        "workloads": {w["name"]: run_workload(w["name"]) for w in spec["workloads"]},
        "grid_sha256": {name: grid_sha256(grid) for name, grid in GRIDS.items()},
        "criterion_1_in_process": in_process(GRIDS["criterion_1"]),
        "series_in_process": series_layer(),
        "deep_peak_rss_mb": deep_peak_rss_mb(),
    }
    out = ROOT / f"BENCH_{label}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
