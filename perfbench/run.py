"""eulersym benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/eulersym`` must exist; there
is nothing to build).  Each CLI invocation of a workload runs in a fresh
child interpreter (``child.py``), one at a time: a closed loop with one
client.  Reps of the workload repeat until the next one would overrun
``--seconds`` (at least two reps).

``--trace 0`` measures the end-to-end metrics, untraced.  ``--trace 1``
alternates untraced and traced reps and reports the per-layer metrics of
the traced ones, plus the tracing overhead.  Every rep passes through the
correctness gate (see ``judge``); the last line of stdout is the result
object, the line before it the run's provenance.  Spans of traced reps and
the full result go to ``.perfbench_out/`` in the checkout.

See perfbench/README.md for the design: workloads, metrics, the
layer-to-end-to-end map and how the bounds were chosen.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import workloads
from tracer import LAYERS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = BENCH_DIR / "reference.json"

SETUP_PROBES = 20  # pairs of a bare interpreter start and an import-only child
# A bare interpreter start on the 2-core VM the bounds were set on, quiet.
# Set-up time is reported in seconds on a host where one takes this long.
BARE_START_REF_S = 0.040
MIN_REPS = 2
RUN_LIMIT_S = 170.0  # a run must end within 180 s


class BenchmarkError(Exception):
    """The benchmark itself cannot run (not a failure of the program)."""


def monotonic() -> float:
    """The clock child.py stamps its import with; it is shared by all
    processes on the machine, so the two stamps can be subtracted."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def bare_start() -> float:
    """Seconds from spawning an interpreter that imports nothing until it
    runs its first line: set-up time without eulersym."""
    stamp = "import time; print(time.clock_gettime(time.CLOCK_MONOTONIC))"
    cmd = [sys.executable, "-E", "-s", "-c", stamp]
    start = monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=60)
    return float(proc.stdout) - start


def spawn(spec: dict, timeout: float) -> dict:
    """Run child.py on ``spec``; return its facts plus ``setup_s``.

    A child that crashes or times out comes back with ``rc`` set to a
    non-zero value and nothing else, which the gate counts as a failure.
    """
    cmd = [sys.executable, "-E", "-s", str(BENCH_DIR / "child.py"), str(SRC), json.dumps(spec)]
    start = monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"rc": "timeout"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"rc": f"child exit {proc.returncode}", "stderr": proc.stderr[-2000:]}
    facts = json.loads(lines[-1])
    facts["setup_s"] = facts.pop("ready") - start
    return facts


# --------------------------------------------------------------------------
# Correctness gate.


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def add(self, other: "Verdict") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems


def _summary_counts(stderr: str) -> dict[str, int] | None:
    """Parse verify's 'families=.. cases=.. failures=..' stderr line."""
    for line in reversed(stderr.splitlines()):
        if line.startswith("families="):
            return {k: int(v) for k, v in (part.split("=") for part in line.split()[:5])}
    return None


def _poly(coeffs: list[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _lines(facts: dict) -> list[Fraction] | None:
    try:
        return [Fraction(line) for line in facts["stdout"].split()]
    except (KeyError, ValueError, ZeroDivisionError):
        return None


def judge(inv: workloads.Invocation, facts: dict, rep_outputs: dict) -> Verdict:
    """Gate one invocation.  Operations: the call itself (exit code and
    output shape) and, for verify, every case, orbit audit and oracle.

    ``rep_outputs`` collects the outputs that ``check_euler_x`` compares
    once the whole query rep has run."""
    v = Verdict()
    ok_exit = facts.get("rc") == 0
    exp = inv.expect
    if inv.kind == "verify":
        counts = _summary_counts(facts.get("stderr", "")) or {}
        v.check(
            ok_exit and facts.get("records") == exp["cases"] == counts.get("cases"),
            f"verify exit {facts.get('rc')}, records {facts.get('records')}, "
            f"expected {exp['cases']}",
        )
        unequal = facts.get("unequal", exp["cases"])
        v.attempted += exp["cases"]
        v.failed += unequal
        if unequal:
            v.problems.append(f"{unequal} cases with equal:false")
        for kind in ("orbit", "oracle"):
            bad = counts.get(f"{kind}_failures", exp[f"{kind}_checks"])
            v.attempted += exp[f"{kind}_checks"]
            v.failed += bad
            if bad:
                v.problems.append(f"{bad} {kind} failures")
        return v

    values = _lines(facts) if ok_exit else None
    if inv.kind == "euler":
        n, probe = exp["n"], exp["probe"]
        ok = values is not None and len(values) == n + 1 and values[n] == 1
        if ok:
            rep_outputs["euler"] = values
            ok = _poly(values, probe) + _poly(values, probe + 1) == 2 * probe**n
        v.check(ok, f"euler --n {n}: coefficients fail E_n(x)+E_n(x+1)=2x^n")
    elif inv.kind == "euler_x":
        ok = values is not None and len(values) == 1
        if ok:
            rep_outputs.setdefault("euler_x", []).append((exp["x"], values[0]))
        v.check(ok, f"euler --n {exp['n']} --x {exp['x']}: no value")
    elif inv.kind == "altsum":
        k, n = exp["k"], exp["n"]
        direct = sum((-1) ** i * i**k for i in range(n + 1))
        v.check(values == [direct], f"altsum --k {k} --n {n}: wrong value")
    elif inv.kind == "series":
        ok = values is not None and len(values) == exp["order"] + 1
        v.check(ok, f"{' '.join(inv.argv)}: wrong coefficient count")
    return v


def check_euler_x(rep_outputs: dict) -> Verdict:
    """Each ``euler --n N --x p/q`` must equal the printed E_N coefficients
    evaluated at p/q.  Checked after the rep, as the seeded call order can
    put either call first."""
    v = Verdict()
    coeffs = rep_outputs.get("euler")
    for x, value in rep_outputs.get("euler_x", []) if coeffs else []:
        v.check(value == _poly(coeffs, x), f"euler --x={x} disagrees with the E_n coefficients")
    return v


# --------------------------------------------------------------------------
# Reps.


@dataclass
class Rep:
    traced: bool
    duration_s: float = 0.0  # of the whole rep, spawning and checks included
    wall_s: float = 0.0  # calibrated, as are latencies
    raw_wall_s: float = 0.0  # as the clock read it
    latencies: list[float] = field(default_factory=list)
    peak_rss_kb: int = 0
    records: int = 0
    digest: str = ""
    verdict: Verdict = field(default_factory=Verdict)
    traces: list[dict] = field(default_factory=list)


def run_rep(workload: str, seed: int, index: int, traced: bool, deadline: float) -> Rep:
    started = monotonic()
    calls = workloads.rep_calls(workload, seed, index)
    rep = Rep(traced)
    digest = hashlib.sha256()
    rep_outputs: dict = {}
    reports = OUT / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    for j, inv in enumerate(calls):
        spec = {"argv": list(inv.argv), "trace": traced}
        if inv.kind == "verify":
            path = reports / f"{workload}.{inv.expect['format']}"
            path.unlink(missing_ok=True)
            spec["argv"] += ["--output", str(path)]
            spec["report"] = {"path": str(path), "format": inv.expect["format"]}
        if traced:
            spec["spans"] = str(OUT / "spans" / f"{workload}-rep{index}-call{j}.jsonl")
        facts = spawn(spec, timeout=max(1.0, deadline - monotonic()))
        rep.verdict.add(judge(inv, facts, rep_outputs))
        digest.update(facts.get("sha256", "missing").encode())
        if "elapsed_s" not in facts:
            continue
        call_s = facts["elapsed_s"] * (facts["call_speed"] or 1.0)  # traced calls are not sampled
        rep.wall_s += call_s
        rep.raw_wall_s += facts["elapsed_s"]
        rep.latencies.append(call_s)
        rep.peak_rss_kb = max(rep.peak_rss_kb, facts["peak_rss_kb"])
        rep.records += facts.get("records", 1)  # a query call is one case
        if traced:
            rep.traces.append(facts["trace"])
    rep.verdict.add(check_euler_x(rep_outputs))
    rep.digest = digest.hexdigest()
    rep.duration_s = monotonic() - started
    return rep


def load_reference() -> dict:
    try:
        return json.loads(REFERENCE.read_text())
    except FileNotFoundError:
        return {}


def check_digests(workload: str, seed: int, reps: list[Rep], reference: dict) -> Verdict:
    """Every rep must print the same bytes, and those bytes must match the
    stored reference where one exists for this seed."""
    v = Verdict()
    expected = reference.get(workload, {}).get(workloads.reference_key(workload, seed))
    first = reps[0].digest
    for i, rep in enumerate(reps):
        v.check(rep.digest == first, f"rep {i} output differs from rep 0")
    if expected is not None:
        v.check(first == expected, f"report digest {first} != reference {expected}")
    return v


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[list[float], list[Rep], bool]:
    """Set-up probes, then reps until the next would overrun ``seconds``."""
    start = monotonic()
    hard_deadline = start + RUN_LIMIT_S
    setups = []
    for _ in range(SETUP_PROBES):
        bare = bare_start()
        facts = spawn({"argv": None, "trace": False}, timeout=60)
        if "setup_s" not in facts:
            raise BenchmarkError(f"set-up probe failed: {facts}")
        setups.append(facts["setup_s"] * BARE_START_REF_S / bare)
    reps: list[Rep] = []
    while True:
        traced = trace and len(reps) % 2 == 1  # trace runs alternate
        reps.append(run_rep(workload, seed, len(reps), traced, hard_deadline))
        if monotonic() >= hard_deadline:
            return setups, reps, True
        traced = trace and len(reps) % 2 == 1
        alike = [r.duration_s for r in reps if r.traced == traced] or [reps[-1].duration_s]
        if len(reps) >= MIN_REPS and monotonic() - start + statistics.median(alike) > seconds:
            return setups, reps, False


# --------------------------------------------------------------------------
# Metrics.


def tail(values: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it, by
    nearest rank; with 20 samples or fewer no such percentile above the
    median exists, and the maximum is reported instead."""
    xs = sorted(values)
    n = len(xs)
    if n <= 20:
        return xs[-1], f"max of {n}"
    p = math.floor(100 * (1 - 10 / n))
    return xs[math.ceil(p / 100 * n) - 1], f"p{p} of {n}"


def end_to_end(setups: list[float], reps: list[Rep]) -> tuple[dict, dict]:
    """The end-to-end metrics, from calibrated times."""
    walls = [r.wall_s for r in reps]
    latencies = [x for r in reps for x in r.latencies]
    wall = statistics.median(walls)
    tail_value, tail_label = tail(latencies)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
        "cases_per_s": (statistics.median(r.records for r in reps) / wall, "1/s"),
        "query_p50_s": (statistics.median(latencies), "s"),
        "query_tail_s": (tail_value, "s"),
        "peak_rss_mb": (statistics.median(r.peak_rss_kb for r in reps) / 1024, "MB"),
    }
    notes = {
        "reps": len(reps),
        "rep_wall_s": walls,
        "raw_rep_wall_s": [r.raw_wall_s for r in reps],
        "latency_samples": len(latencies),
        "query_tail": tail_label,
        "setup_samples": len(setups),
    }
    return metrics, notes


def _rep_layers(rep: Rep) -> dict[str, float]:
    """Per-layer figures of one traced rep, summed over its children."""
    def total(key: str, name: str) -> float:
        return sum(t[key][name] for t in rep.traces)

    def count(key: str) -> float:
        return sum(t[key] for t in rep.traces)

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for t in rep.traces:
        for qualname, s in t["self_s"].items():
            layer_self[qualname.split(".", 1)[0]] += s
    cases = sorted(us for t in rep.traces for us in t["case_us"])
    values_calls = total("calls", "euler.euler_values")
    hits, misses = count("altsum_hits"), count("altsum_misses")
    out = {f"{layer}.self_s": s for layer, s in layer_self.items()}
    out.update({
        "cli.run_sweep_s": total("total_s", "cli.run_sweep"),
        "cli.emit_report_s": total("total_s", "cli.emit_report"),
        "cli.report_bytes": count("report_bytes"),
        "identities.check_case_calls": total("calls", "identities.check_case"),
        "identities.variant_evals": count("variant_evals"),
        "identities.case_p50_us": statistics.median(cases) if cases else 0.0,
        "identities.case_tail_us": tail(cases)[0] if cases else 0.0,
        "euler.values_self_s": total("self_s", "euler.euler_values"),
        "euler.values_calls": values_calls,
        "euler.values_distinct_args": count("values_distinct_args"),
        "euler.values_new_arg_ratio": (
            count("values_distinct_args") / values_calls if values_calls else 0.0
        ),
        "euler.eval_calls": total("calls", "euler.euler_eval"),
        "euler.eval_s": total("total_s", "euler.euler_eval"),
        "euler.table_s": total("total_s", "euler.euler_polynomial")
        + total("total_s", "euler.euler_polynomials_up_to"),
        "euler.max_degree": max(t["max_degree"] for t in rep.traces),
        "egf_series.lambda_series_calls": total("calls", "egf_series.lambda_series"),
        "egf_series.lambda_series_s": total("total_s", "egf_series.lambda_series"),
        "egf_series.mul_s": total("total_s", "egf_series.egf_mul"),
        "egf_series.div_s": total("total_s", "egf_series.egf_div"),
        "egf_series.coeff_ops": count("coeff_ops"),
        "altsum.calls": total("calls", "altsum.alt_power_sum"),
        "altsum.s": total("total_s", "altsum.alt_power_sum"),
        "altsum.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "altsum.cache_entries": max(t["altsum_entries"] for t in rep.traces),
        "orbits.audit_calls": total("calls", "orbits.orbit_audit"),
        "orbits.audit_s": total("total_s", "orbits.orbit_audit"),
        "exact_arith.format_rational_calls": total("calls", "exact_arith.format_rational"),
        "exact_arith.format_rational_s": total("total_s", "exact_arith.format_rational"),
        "trace.wall_s": rep.raw_wall_s,
        "trace.self_coverage": sum(layer_self.values()) / rep.raw_wall_s,
        "trace.spans": count("spans"),
    })
    return out


def per_layer(reps: list[Rep], units: dict[str, str]) -> dict:
    """Medians over the traced reps of every metric named in ``units``."""
    traced = [_rep_layers(r) for r in reps if r.traced and r.traces]
    if not traced:
        raise BenchmarkError("no traced call completed")
    untraced_wall = statistics.median(r.raw_wall_s for r in reps if not r.traced)
    for t in traced:
        t["trace.overhead_ratio"] = t["trace.wall_s"] / untraced_wall
    return {name: (statistics.median(t[name] for t in traced), unit) for name, unit in units.items()}


# --------------------------------------------------------------------------
# Provenance and main.


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "eulersym").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(seed: int) -> dict:
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
    }


def bench(workload: str, seed: int, seconds: float | None, trace: bool) -> tuple[dict, dict]:
    """One run: (provenance and notes, result object)."""
    if not (SRC / "eulersym" / "__init__.py").is_file():
        raise BenchmarkError(f"no eulersym sources under {SRC}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if seconds is None else seconds
    shutil.rmtree(OUT / "spans", ignore_errors=True)
    (OUT / "spans").mkdir(parents=True)
    # Unmeasured warm-up: compiles bytecode once, as an install would, and
    # proves the package imports.
    if "setup_s" not in spawn({"argv": None, "trace": False}, timeout=120):
        raise BenchmarkError("eulersym does not import")
    setups, reps, timed_out = measure(workload, seed, seconds, trace)

    verdict = Verdict()
    for rep in reps:
        verdict.add(rep.verdict)
    verdict.add(check_digests(workload, seed, reps, load_reference()))
    if timed_out:
        verdict.check(False, f"run exceeded {RUN_LIMIT_S:.0f} s")

    untraced = [r for r in reps if not r.traced and r.latencies]
    if not untraced:
        raise BenchmarkError(f"no call completed: {verdict.problems[:5]}")
    e2e, notes = end_to_end(setups, untraced)
    if trace:
        metrics = per_layer(reps, {m["name"]: m["unit"] for m in spec["per_layer"]})
    else:
        metrics = e2e
    result = {
        "correct": verdict.failed == 0,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    info = {
        "workload": workload,
        "trace": int(trace),
        "seconds": seconds,
        "provenance": provenance(seed),
        "fail_ratio": verdict.failed / verdict.attempted,
        "problems": verdict.problems[:20],
        "digest": reps[0].digest,
        "end_to_end": {k: v for k, (v, _) in e2e.items()},
        **notes,
    }
    return info, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        info, result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({"info": info, "result": result}, indent=1))
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
