"""In-memory span tracer for one benchmark child process.

``install()`` replaces selected public functions of the ``eulersym``
modules with timing wrappers.  A wrapper is installed in every module
namespace that holds the original object, so it is found wherever a caller
looks the function up: ``euler.euler_values`` as ``identities`` reads it,
``format_rational`` in ``cli``'s namespace, ``egf_mul``/``egf_div`` inside
``egf_series``.  Nothing under ``src/`` is edited.

Functions called in the innermost kernel loops (``multinomial3``,
``binomial``, the private ``_tri_sum``) are deliberately not wrapped: a
span per call would cost more than the work it measures.  Their time counts
as self time of the layer that calls them.

Every span is kept in memory as (id, parent id, function, start, end) and
written out by ``write_spans`` after the work is done.  A span's self time
is its duration minus the durations of its direct child spans; a layer's
self time is the sum over the spans of its functions.
"""

from __future__ import annotations

import functools
import json
import time
from fractions import Fraction

# (layer, function name) pairs to wrap.  The layer is the eulersym module
# that defines the function.
TRACED = (
    ("cli", "main"),
    ("cli", "run_sweep"),
    ("cli", "emit_report"),
    ("identities", "check_case"),
    ("identities", "variant_values"),
    ("euler", "euler_values"),
    ("euler", "euler_eval"),
    ("euler", "euler_polynomial"),
    ("euler", "euler_polynomials_up_to"),
    ("altsum", "alt_power_sum"),
    ("egf_series", "lambda_series"),
    ("egf_series", "egf_mul"),
    ("egf_series", "egf_div"),
    ("orbits", "orbit_audit"),
    ("exact_arith", "format_rational"),
    ("exact_arith", "parse_rational"),
)

LAYERS = ("cli", "identities", "euler", "altsum", "egf_series", "orbits", "exact_arith")

_EULER_DEGREE_ARG = {
    "euler_values": 1,
    "euler_eval": 0,
    "euler_polynomial": 0,
    "euler_polynomials_up_to": 0,
}


class Tracer:
    """Spans and per-function counters for one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, int, int]] = []
        self.calls: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.case_ns: list[int] = []
        self.variant_evals = 0
        self.report_bytes = 0
        self.coeff_ops = 0
        self.value_args: set[Fraction] = set()
        self.max_degree = 0
        self._stack: list[list[int]] = []  # [span id, children ns]
        self.originals: dict[str, object] = {}

    def wrap(self, qualname: str, func):
        index = len(self.names)
        self.names.append(qualname)
        short = qualname.split(".", 1)[1]
        self.calls[qualname] = 0
        self.total_ns[qualname] = 0
        self.self_ns[qualname] = 0
        note = self._note_for(short)
        clock = time.perf_counter_ns
        stack = self._stack
        spans = self.spans

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span_id = len(spans)
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0]
            stack.append(frame)
            spans.append((span_id, parent, index, 0, 0))  # reserve the id
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                spans[span_id] = (span_id, parent, index, start, end)
                self.calls[qualname] += 1
                self.total_ns[qualname] += dur
                self.self_ns[qualname] += dur - frame[1]
            if note is not None:
                note(args, result, dur)
            return result

        return traced

    def _note_for(self, short: str):
        """Extra per-call bookkeeping for the counters the layers report."""
        if short == "check_case":
            return lambda args, result, dur: self.case_ns.append(dur)
        if short == "variant_values":
            def note(args, result, dur):
                self.variant_evals += len(result)
            return note
        if short == "emit_report":
            def note(args, result, dur):
                self.report_bytes += len(result)
            return note
        if short in ("egf_mul", "egf_div"):
            def note(args, result, dur):
                n = len(result.coeffs) - 1
                self.coeff_ops += (n + 1) * (n + 2) // 2
            return note
        if short in _EULER_DEGREE_ARG:
            pos = _EULER_DEGREE_ARG[short]
            track_arg = short == "euler_values"

            def note(args, result, dur):
                if len(args) > pos:
                    self.max_degree = max(self.max_degree, int(args[pos]))
                if track_arg:
                    self.value_args.add(Fraction(args[0]))
            return note
        return None

    def write_spans(self, path: str) -> None:
        """One JSON line per span: [id, parent, function, start_ns, end_ns]."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"functions": self.names}) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")

    def summary(self) -> dict:
        """Counters for the parent; times in seconds."""
        apsum = self.originals["altsum.alt_power_sum"].cache_info()
        return {
            "calls": dict(self.calls),
            "total_s": {k: v / 1e9 for k, v in self.total_ns.items()},
            "self_s": {k: v / 1e9 for k, v in self.self_ns.items()},
            "case_us": [ns / 1e3 for ns in self.case_ns],
            "variant_evals": self.variant_evals,
            "report_bytes": self.report_bytes,
            "coeff_ops": self.coeff_ops,
            "values_distinct_args": len(self.value_args),
            "max_degree": self.max_degree,
            "altsum_hits": apsum.hits,
            "altsum_misses": apsum.misses,
            "altsum_entries": apsum.currsize,
            "spans": len(self.spans),
        }


def install() -> Tracer:
    """Wrap every function in TRACED wherever eulersym modules hold it."""
    import eulersym
    from eulersym import altsum, cli, egf_series, euler, exact_arith, identities, orbits

    modules = {
        "cli": cli,
        "identities": identities,
        "euler": euler,
        "altsum": altsum,
        "egf_series": egf_series,
        "orbits": orbits,
        "exact_arith": exact_arith,
    }
    namespaces = [eulersym, *modules.values()]
    tracer = Tracer()
    for layer, name in TRACED:
        original = getattr(modules[layer], name)
        qualname = f"{layer}.{name}"
        tracer.originals[qualname] = original
        wrapper = tracer.wrap(qualname, original)
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
    return tracer
