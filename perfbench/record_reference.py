"""Record the reference digests that the benchmark's gate compares against.

    python3 perfbench/record_reference.py

For each workload and each seed in ``workloads.SEEDS``, runs one untraced
rep through the full gate (exit codes, case counts, equal flags, orbit and
oracle audits, the query value checks) and stores the digest of its output
in ``perfbench/reference.json``.  The file is rewritten from scratch, and
only if every rep passed.  accept_grid ignores the seed and is recorded
once.  Re-record only for a change that is meant to alter the bytes of the
reports.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    reference: dict[str, dict[str, str]] = {}
    for workload in workloads.WORKLOADS:
        table = reference.setdefault(workload, {})
        for seed in workloads.SEEDS:
            key = workloads.reference_key(workload, seed)
            if key in table:
                continue  # accept_grid: one digest for every seed
            rep = run.run_rep(workload, seed, 0, False, run.monotonic() + run.RUN_LIMIT_S)
            if rep.verdict.failed:
                print(f"{workload} seed {seed}: gate failed: {rep.verdict.problems[:5]}", file=sys.stderr)
                return 1
            table[key] = rep.digest
            print(f"{workload} {key} {rep.digest}", flush=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
