"""One benchmark child: a fresh interpreter that runs one eulersym CLI call.

Usage (from run.py only): child.py SRC_DIR SPEC_JSON

The child imports eulersym from SRC_DIR, stamps the moment the import is
done (CLOCK_MONOTONIC, comparable with the parent's spawn stamp), then
calls ``eulersym.cli.main`` with the spec's argv, optionally under the
tracer.  It prints one JSON line with the facts the parent judges: exit
code, elapsed time, peak RSS, the report's SHA-256 and record counts, and
the captured stderr.  A spec without argv only measures set-up.

Harness modules are imported after the stamp, so set-up time is the
interpreter plus ``import eulersym`` and nothing of the benchmark's own.

The machine's speed is sampled during the call (``Sampler``): a SIGALRM
handler times a fixed piece of exact arithmetic every 100 ms.  The child
reports the call's time less the ticks' own time, and a speed factor: the
reference tick duration over the mean tick.  run.py multiplies the two,
so that a host that runs this process slower for a while, as a shared
one does, moves the figures little (see README, "Calibration").  Traced
calls are not sampled.
"""

import sys
import time

TICK_TERMS = 200
# About the fastest tick seen on the 2-core VM the bounds were set on.
# Call times are reported in seconds on a host where a tick takes this long.
TICK_REF_S = 0.001
TICK_INTERVAL_S = 0.1


class Sampler:
    """Speed samples of this process: the durations of fixed ticks."""

    def __init__(self) -> None:
        self.ticks: list[float] = []

    def tick(self, *_signal_args) -> None:
        from fractions import Fraction

        start = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, TICK_TERMS):
            acc = (acc + Fraction(i % 17 - 8, i % 13 + 1)) * Fraction(i % 5 + 1, i % 7 + 1)
            acc = Fraction(acc.numerator % 10007, acc.denominator % 9973 + 1)
        self.ticks.append(time.perf_counter() - start)

    def sample(self, work) -> tuple[float, float]:
        """Run ``work()`` with a tick before, after and every
        ``TICK_INTERVAL_S`` during it.  Returns the time the ticks during
        it took, which the caller takes off its own timing of ``work``,
        and the speed factor over all the ticks."""
        import signal

        self.ticks = []
        self.tick()
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_INTERVAL_S, TICK_INTERVAL_S)
        try:
            work()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        during = sum(self.ticks[1:])
        self.tick()
        return during, TICK_REF_S * len(self.ticks) / sum(self.ticks)


def report_counts(payload: bytes, fmt: str) -> tuple[int, int]:
    """(records, records whose variants are not all equal) of a report."""
    import csv
    import io
    import json

    if fmt == "json":
        records = json.loads(payload)
        return len(records), sum(1 for r in records if r["equal"] is not True)
    # verify ends its report with a newline of its own, so skip blank rows
    rows = [r for r in csv.reader(io.StringIO(payload.decode("utf-8"))) if r][1:]
    return len(rows), sum(1 for r in rows if r[-1] != "true")


def run(spec: dict) -> dict:
    """Call ``eulersym.cli.main`` as the spec says and collect the facts."""
    import contextlib
    import hashlib
    import io
    import resource

    if spec["trace"]:
        import tracer as tracer_module

        tracer = tracer_module.install()
    else:
        tracer = None
    cli = sys.modules["eulersym.cli"]  # looked up after the tracer wrapped main

    stdout, stderr = io.StringIO(), io.StringIO()
    timed = {}

    def call() -> None:
        start = time.perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                timed["rc"] = cli.main(spec["argv"])
            except SystemExit as exc:  # argparse rejects usage errors this way
                timed["rc"] = exc.code
        timed["elapsed"] = time.perf_counter() - start

    if tracer is None:
        ticked, call_speed = Sampler().sample(call)
    else:
        call()
        ticked, call_speed = 0.0, None
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    out = {}
    report = spec.get("report")
    if report is not None:
        try:
            with open(report["path"], "rb") as handle:
                payload = handle.read()
        except FileNotFoundError:
            payload = b""
        if payload:
            out["records"], out["unequal"] = report_counts(payload, report["format"])
    else:
        payload = stdout.getvalue().encode("utf-8")
        out["stdout"] = stdout.getvalue()

    out.update(
        rc=timed["rc"],
        elapsed_s=timed["elapsed"] - ticked,
        call_speed=call_speed,
        peak_rss_kb=peak_kb,
        sha256=hashlib.sha256(payload).hexdigest(),
        stderr=stderr.getvalue()[-2000:],
    )
    if tracer is not None:
        out["trace"] = tracer.summary()
        if spec.get("spans"):
            tracer.write_spans(spec["spans"])
    return out


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    import eulersym.cli  # noqa: F401  (this import is what set-up time measures)

    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    import json

    spec = json.loads(sys.argv[2])
    facts = {} if spec["argv"] is None else run(spec)
    facts["ready"] = ready
    print(json.dumps(facts))
