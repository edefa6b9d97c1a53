"""Negative controls for the benchmark's correctness gate.

    python3 -m pytest perfbench -q

A gate that cannot fail proves nothing.  Each test hands the gate a run
that must fail (a perturbed report, a child exiting 1, a wrong case count,
a corrupted program) and checks that it is counted as failed, next to the
unperturbed run that passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import child  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

# A verify call small enough for a test: T17 and C13 at odd weights 1, 3.
SMALL = workloads.sweep(("T17", "C13"), (1, 3), 1, "0,1/2,-1/3", "json", False)


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """(facts, report bytes) of one real child running SMALL."""
    path = tmp_path_factory.mktemp("report") / "small.json"
    spec = {
        "argv": list(SMALL.argv) + ["--output", str(path)],
        "trace": False,
        "report": {"path": str(path), "format": "json"},
    }
    facts = run.spawn(spec, timeout=120)
    return facts, path.read_bytes()


def test_unperturbed_run_passes(small_run):
    facts, _ = small_run
    verdict = run.judge(SMALL, facts, {})
    assert facts["rc"] == 0
    assert facts["records"] == SMALL.expect["cases"] == 2 * (8 + 2 * 3)
    assert verdict.failed == 0 and verdict.attempted > SMALL.expect["cases"]


def test_perturbed_report_fails(small_run):
    facts, payload = small_run
    records = json.loads(payload)
    records[-1]["values"][0] = "12345/7"
    records[-1]["equal"] = False
    perturbed = json.dumps(records, separators=(",", ":")).encode() + b"\n"

    records_n, unequal = child.report_counts(perturbed, "json")
    assert (records_n, unequal) == (len(records), 1)
    verdict = run.judge(SMALL, dict(facts, unequal=unequal), {})
    assert verdict.failed == 1

    # Same counts but different bytes: the digest check catches it.
    good = run.Rep(False, digest=facts["sha256"])
    bad = run.Rep(False, digest=run.hashlib.sha256(perturbed).hexdigest())
    reference = {"accept_grid": {"any": facts["sha256"]}}
    assert run.check_digests("accept_grid", 1, [good, good], reference).failed == 0
    assert run.check_digests("accept_grid", 1, [good, bad], reference).failed == 1
    assert run.check_digests("accept_grid", 1, [bad, bad], reference).failed == 1


def test_child_exiting_nonzero_fails(small_run):
    facts, _ = small_run
    assert run.judge(SMALL, dict(facts, rc=1), {}).failed >= 1
    crashed = {"rc": "child exit 1", "stderr": "Traceback"}
    assert run.judge(SMALL, crashed, {}).failed >= 1


def test_usage_error_is_a_failed_call():
    bad = workloads.Invocation(("verify", "--family", "NOPE"), "verify", SMALL.expect)
    facts = run.spawn({"argv": list(bad.argv), "trace": False}, timeout=60)
    assert facts["rc"] == 2
    assert run.judge(bad, facts, {}).failed >= 1


def test_wrong_case_count_fails(small_run):
    facts, _ = small_run
    for cases in (SMALL.expect["cases"] - 1, SMALL.expect["cases"] + 1):
        wrong = workloads.Invocation(SMALL.argv, "verify", dict(SMALL.expect, cases=cases))
        assert run.judge(wrong, facts, {}).failed >= 1


def test_query_checks_catch_wrong_values():
    euler = workloads.Invocation(("euler", "--n", "3"), "euler", {"n": 3, "probe": run.Fraction(2, 5)})
    good = {"rc": 0, "stdout": "1/4\n0\n-3/2\n1\n"}  # E_3(x) = x^3 - 3/2 x^2 + 1/4
    outputs: dict = {}
    assert run.judge(euler, good, outputs).failed == 0
    assert run.judge(euler, {"rc": 0, "stdout": "1/4\n1\n-3/2\n1\n"}, {}).failed == 1

    euler_x = workloads.Invocation((), "euler_x", {"n": 3, "x": run.Fraction(1, 2)})
    assert run.judge(euler_x, {"rc": 0, "stdout": "0\n"}, outputs).failed == 0
    assert run.check_euler_x(outputs).failed == 0
    outputs["euler_x"] = [(run.Fraction(1, 2), run.Fraction(1, 8))]
    assert run.check_euler_x(outputs).failed == 1

    altsum = workloads.Invocation((), "altsum", {"k": 2, "n": 3})
    assert run.judge(altsum, {"rc": 0, "stdout": "-6\n"}, {}).failed == 0  # 0 - 1 + 4 - 9
    assert run.judge(altsum, {"rc": 0, "stdout": "6\n"}, {}).failed == 1


def test_sampler_takes_its_ticks_off():
    """Ticks run during the work, and their time is reported for the
    caller to subtract."""
    sampler = child.Sampler()
    timed = {}

    def work():
        start = time.perf_counter()
        while time.perf_counter() - start < 0.35:
            pass
        timed["elapsed"] = time.perf_counter() - start

    during, speed = sampler.sample(work)
    assert len(sampler.ticks) >= 2 + 3  # before, after, and every 0.1 s
    assert 0 < during < timed["elapsed"] / 10
    assert speed > 0


def _checkout(tmp_path: Path, with_src: bool) -> Path:
    """A copy of what the benchmark needs: BENCHMARK.json, perfbench/, src/."""
    root = tmp_path / "checkout"
    shutil.copytree(run.BENCH_DIR, root / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", root)
    if with_src:
        shutil.copytree(run.SRC, root / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return root


def _bench(root: Path, workload: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


def test_corrupted_program_fails_the_run(tmp_path):
    """Perturb E_n(x) at its top index inside identities: the allegedly
    equal variants drift apart, verify exits 1, the run is not correct."""
    root = _checkout(tmp_path, with_src=True)
    identities = root / "src" / "eulersym" / "identities.py"
    text = identities.read_text()
    seam = "    return euler.euler_values(x, n_max)\n"
    assert seam in text
    identities.write_text(text.replace(
        seam,
        "    vals = euler.euler_values(x, n_max)\n"
        "    return vals[:-1] + (vals[-1] + x,)\n",
    ))
    proc = _bench(root, "shift_fanout")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]


def test_checkout_without_sources_exits_without_result(tmp_path):
    root = _checkout(tmp_path, with_src=False)
    proc = _bench(root, "accept_grid")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
