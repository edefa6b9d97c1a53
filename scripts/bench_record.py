"""Record one point of the benchmark trajectory as BENCH_<label>.json.

    python3 scripts/bench_record.py LABEL

Run from anywhere inside a source checkout; the file is written at the
checkout's root.  For each workload of BENCHMARK.json it runs

    python3 perfbench/run.py --workload W --seed 1 --seconds 40 --trace 0

and keeps the run's provenance line and result line.  It then runs the
three pinned report grids (criterion 1, the default ``verify`` grid and
the shifted grid) through the CLI and keeps the SHA-256 of each report,
so that two BENCH files show both the speed and whether the reports
stayed byte-identical.  Last, it runs the default grid at ``--nmax 80``
(about 135 MB of report, written to a temporary file) in a fresh
interpreter that prints its own peak RSS after ``main`` returns, and keeps
it as ``deep_peak_rss_mb``: the memory ``verify`` needs at depth.

Per-layer times are not recorded here: two records are two processes,
which on a shared host can differ by more than a layer's change.
``scripts/ab.py OLD NEW`` times the layers of two trees in one process.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
SECONDS = 40

# The report grids whose digests tests/test_cli.py and CI pin.
GRIDS = {
    "criterion_1": ["verify", "--family", "T1,T2,T5,T8,T11,T14,T16,T17",
                    "--wset", "1,2,3,4,5,7", "--include-even-w", "--nmax", "10"],
    "default": ["verify"],
    "shifted": ["verify", "--family", "T5,T11,T14,C6,C12,C13,C15,INTRO_CHAIN",
                "--wset", "1,3,5,7", "--nmax", "4",
                "--ys=123457/999983,-654321/100003,5/100019", "--format", "csv"],
}

# The deep grid: the default grid at n <= 80, 278,640 cases.
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
        "deep_peak_rss_mb": deep_peak_rss_mb(),
    }
    out = ROOT / f"BENCH_{label}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
