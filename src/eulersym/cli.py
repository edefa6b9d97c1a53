"""Command-line front end: parameter sweeps, report serialization, exit codes.

Subcommands:

* ``euler``  -- print the coefficient vector of E_n(x), or its value at x
* ``altsum`` -- print the alternating power sum T_k(n)
* ``series`` -- print the coefficients of one of the quotient series
* ``verify`` -- sweep identity families over a parameter grid and emit one
  report record per (family, n, w, y) case; each theorem's series spot
  check runs at its last admissible (w, y), for every n <= ``--nmax``.
  Each family's records are written as soon as that family is swept and
  then dropped, so memory holds one family's records, not the report.  A
  record is an ``identities.Row``, a plain tuple ``(family_id, n, w, y,
  values, equal)``, as ``identities._check_grid`` gives a family's rows,
  from the sweep to the writer; ``run_sweep`` and ``emit_report`` keep
  ``VerificationReport``s for their callers and convert at their edges.

Options: ``_COMMANDS`` lists each command's handler, help line and
options, and one parser, ``_parse_args``, and the ``-h`` text read it.  An
option name matches only whole, with no abbreviation; ``--opt value`` and
``--opt=value`` are the same, and the value is taken whole even when it
starts with ``-`` (``--x -1/2``), though not when it starts with ``--``;
a flag takes no value; given twice, an option keeps its last value.
``-h``/``--help``, on its own or after a command, prints help and exits 0.

Reports: ``_FORMATS`` describes each format once (head, record template,
separators, tail), and one generator, ``_report_pieces``, reads it for
both ``emit_report`` and ``verify``.  It writes the rows in blocks of at
most ``_BLOCK`` records, one piece each, so no text of a whole family is
ever held at once.  A record whose variants agree, as every record of a
holding identity does, is written from the text of its first value
alone; ``emit_report`` first checks that its other values are exact, as
``format_rational`` checks the first.  Nothing is escaped or quoted, so a
family id is one or more ASCII letters, digits and ``_``; the writer and
``--family`` refuse any other.

Exit codes: 0 when every checked identity holds, 1 when at least one case
fails, 2 on usage or configuration errors, before any computation starts.
A malformed number in any option, an empty item in a number list, or a
list given to a one-number option, is such an error, and its message names
the option (``exact_arith`` gives the grammar; a wholly empty list has no
items).  So is a ``--family`` item that, stripped, is not a family id, as
an empty item is (``--family T17,,C18``).  Exit 2 comes only from a
``ValueError`` or an ``OSError`` (such as an unwritable ``--output``); any
other exception is a fault of the program and propagates.

Sweeps are deterministic: cases are ordered lexicographically by
(family id, n, w tuple, y tuple) and records carry no timestamps, so the
same configuration always produces byte-identical output.

Shift-value grids: ``--ys`` takes scalar samples.  A family needing r
shift values is swept over the cyclic length-r windows of that list (one
window per starting offset), so every sample appears in every slot while
the case count stays linear in the sample count.
"""

from __future__ import annotations

import io
import re
import sys
from contextlib import nullcontext
from dataclasses import astuple, dataclass, fields
from fractions import Fraction
from itertools import product
from types import SimpleNamespace
from typing import (
    Any, Callable, Iterable, Iterator, Mapping, NamedTuple, NoReturn, Sequence,
)

from . import altsum, euler, identities
from .egf_series import LAMBDA_FAMILIES, lambda_series
from .exact_arith import (
    as_rational, count, format_rational, int_weights, parse_int, parse_rational,
    rational_shifts,
)
from .identities import FAMILIES, FAMILY_IDS, IdentityFamily, Row, VerificationReport
from .orbits import orbit_audit

__all__ = ["SweepConfig", "SweepSummary", "run_sweep", "emit_report", "main"]

DEFAULT_Y_SAMPLES = "0,1,-1,1/2,-1/3,2/7"


@dataclass(frozen=True)
class SweepConfig:
    """A sweep's grid, checked when it is made: ``families`` a tuple or list
    of ``str`` ids, ``n_max`` a count, ``w_set`` a sequence of positive ints,
    ``y_samples`` a sequence of ints or Fractions and ``include_even_w`` a
    ``bool``.  Nothing is coerced; a bad field, a bare number given for a
    sequence among them, raises ``ValueError`` naming it.  Each sequence is
    stored as a tuple, ``w_set`` and ``y_samples`` as ``int_weights`` and
    ``rational_shifts`` return them, so every case the sweep builds from
    them is valid as it stands; ``run_sweep`` checks the ids."""

    families: tuple[str, ...]
    w_set: tuple[int, ...]
    n_max: int
    y_samples: tuple[Fraction, ...]
    include_even_w: bool = False

    def __post_init__(self) -> None:
        ids = self.families
        if not isinstance(ids, (tuple, list)) or not all(isinstance(f, str) for f in ids):
            raise ValueError(f"families must be a tuple or list of family ids, got {ids!r}")
        object.__setattr__(self, "families", tuple(ids))
        if not isinstance(self.include_even_w, bool):
            raise ValueError(f"include_even_w must be a bool, got {self.include_even_w!r}")
        count(self.n_max, "n_max")
        object.__setattr__(self, "w_set", int_weights(self.w_set, "w_set"))
        object.__setattr__(self, "y_samples", rational_shifts(self.y_samples, "y_samples"))


@dataclass(frozen=True)
class SweepSummary:
    families_run: int
    cases_run: int
    failures: int
    orbit_checks: int = 0
    orbit_failures: int = 0
    oracle_checks: int = 0
    oracle_failures: int = 0

    @property
    def ok(self) -> bool:
        return self.failures == 0 and self.orbit_failures == 0 and self.oracle_failures == 0


def _admissible_w_values(family: IdentityFamily, config: SweepConfig) -> tuple[int, ...]:
    # Even weights are dropped for odd-only families unconditionally, and
    # for the any-parity families unless explicitly opted in.
    values = sorted(set(config.w_set))
    if family.odd_only or not config.include_even_w:
        values = [v for v in values if v % 2 == 1]
    return tuple(values)


def _y_tuples(samples: Sequence[Fraction], arity: int) -> tuple[tuple[Fraction, ...], ...]:
    if arity == 0:
        return ((),)
    pool = tuple(dict.fromkeys(samples))
    return tuple(
        tuple(pool[(start + offset) % len(pool)] for offset in range(arity))
        for start in range(len(pool))
    )


def _family_sweeps(
    config: SweepConfig,
    families: Mapping[str, IdentityFamily] | None = None,
) -> Iterator[tuple[list[Row], SweepSummary]]:
    """Check now, before anything is evaluated, that the catalog maps each
    family's own id to it and holds every id, and return a generator that
    sweeps one family per step, in id order, yielding its rows in report
    order and its own summary.  Its first step makes the sweep's one
    ``identities._Table`` at ``config.n_max``, so that its Pascal's rows are
    built only once the sweep starts; every family of the sweep reads and
    fills it, so that families share their factors, and it is dropped with
    the generator."""
    catalog = FAMILIES if families is None else families
    misfiled = [f"{key} holds {fam.family_id}" for key, fam in catalog.items()
                if key != fam.family_id]
    if misfiled:
        raise ValueError(f"catalog keys not their families' ids: {', '.join(misfiled)}")
    unknown = sorted(set(config.families).difference(catalog))
    if unknown:
        raise ValueError(
            f"unknown families: {', '.join(unknown)} (choose from {', '.join(catalog)})"
        )
    family_ids = sorted(set(config.families))

    def sweeps() -> Iterator[tuple[list[Row], SweepSummary]]:
        table = identities._Table(config.n_max)
        for family_id in family_ids:
            yield _sweep_family(catalog[family_id], config, table)

    return sweeps()


def _sweep_family(
    fam: IdentityFamily, config: SweepConfig, table: identities._Table,
) -> tuple[list[Row], SweepSummary]:
    """The rows of one family, in report order (n, then w, then y), from
    one ``identities._check_grid`` call over its whole (w, y) grid, and its
    summary, whose failures are counted from the rows' ``equal`` flags.
    The series spot check, ``identities._oracle_holds``, reads those rows,
    the values the report holds, and finds its cell (w, y) in them."""
    audited = fam.orbit_template is not None
    orbit_failed = audited and orbit_audit(fam.orbit_template) != fam.expected_orbit_size

    w_values = _admissible_w_values(fam, config)
    w_tuples = tuple(product(w_values, repeat=fam.w_arity))
    y_tuples = _y_tuples(config.y_samples, fam.y_arity)

    # The config is validated and the grid admissible for fam, so the grid
    # goes straight to the step check_cases runs after validating.
    rows = identities._check_grid(fam, w_tuples, y_tuples, table)
    held = identities._oracle_holds(fam, rows)
    return rows, SweepSummary(
        families_run=1,
        cases_run=len(rows),
        failures=[row[5] for row in rows].count(False),
        orbit_checks=int(audited),
        orbit_failures=int(orbit_failed),
        oracle_checks=int(held is not None),
        oracle_failures=int(held is False),
    )


def _total(parts: Iterable[SweepSummary]) -> SweepSummary:
    """The field-wise sum of per-family summaries."""
    columns = [0] * len(fields(SweepSummary))
    for part in parts:
        columns = [a + b for a, b in zip(columns, astuple(part))]
    return SweepSummary(*columns)


def run_sweep(
    config: SweepConfig,
    families: Mapping[str, IdentityFamily] | None = None,
) -> tuple[list[VerificationReport], SweepSummary]:
    """Evaluate every admissible (family, n, w, y) case of the grid, each
    (family, w, y) once for all n, and list the records in that order.

    Every id must be in the catalog (``FAMILIES`` unless ``families`` is
    given), which maps each family's own ``family_id`` to it; both are
    checked before any evaluation.  Besides the variant-equality checks,
    each family with an orbit template, in any catalog, gets a one-off
    orbit-size audit of it and, where the template has a series, a
    series-coefficient spot check of every value computed at its last
    admissible parameter tuple, for every n <= ``n_max``, which
    ``identities._oracle_holds`` reads off the family's rows.

    This is the family-by-family sweep that ``verify`` writes as it goes,
    each of its rows wrapped in a ``VerificationReport``; so it holds every
    record at once, where ``verify`` holds one family's rows.
    """
    records: list[VerificationReport] = []
    parts = []
    for rows, part in _family_sweeps(config, families):
        records += [VerificationReport(family_id, n, w, y, values)
                    for family_id, n, w, y, values, _ in rows]
        parts.append(part)
    return records, _total(parts)


# Head, record, list-item separator, value template, record separator, tail.
# With format_rational values and _FAMILY_ID ids, these are the bytes of the
# json module with (",", ":") separators and the csv module with "\n" rows.
_FORMATS = {
    "json": ("[", '{"family":"%s","n":%s,"w":[%s],"y":[%s],"values":[%s],"equal":%s}',
             ",", '"%s"', ",", "]"),
    "csv": ("family,n,w,y,values,equal\n", "%s,%s,%s,%s,%s,%s\n", "|", "%s", "", ""),
}
_FAMILY_ID = re.compile(r"[A-Za-z0-9_]+")
# The most records one piece of a report joins.
_BLOCK = 1024


def _family_id(text: str, name: str) -> str:
    """``text`` if it is a family id: one or more ASCII letters, digits and
    ``_``; otherwise a ``ValueError`` naming ``name``."""
    if not _FAMILY_ID.fullmatch(text):
        raise ValueError(f"malformed id for {name}: {text!r}")
    return text


def _report_pieces(chunks: Iterable[Sequence[Row]], format: str) -> Iterator[str]:
    """The report of the rows of ``chunks``, in order, as pieces of text:
    the head, then for each block of at most ``_BLOCK`` rows of each chunk
    the record separator (none before the first block) and the block's
    records as one piece, then the tail.  ``verify`` hands one family's
    rows per chunk, so the text of at most one block is held at a time.

    A row whose ``equal`` flag is true is written from its first value
    alone, that value's text once per value: the flag says each value is
    ``==`` to the first, and ``format_rational`` writes equal ``int`` and
    ``Fraction`` values alike (``emit_report`` checks that the others are
    such values; the sweep makes only such values).
    The values of a row whose flag is false are each written.  The rows
    of a sweep share their value objects, one per distinct value (see
    ``identities``), and the rows of a (family, w, y) share their ``w``
    and ``y`` tuples, so each object needed, keyed by ``id``, is written
    once per chunk: each ``y`` value, first value of an agreeing row and
    value of a disagreeing row through ``format_rational``, and each ``w``
    and ``y`` tuple as its list text.  The rows keep every object alive
    while this runs, so no id is reused.  Each distinct family id of a
    chunk is checked against the id grammar once."""
    if format not in _FORMATS:
        raise ValueError(f"unknown report format {format!r}")
    head, record, item, quote, sep, tail = _FORMATS[format]
    yield head
    before = ""
    for rows in chunks:
        if rows:
            for family_id in {row[0] for row in rows}:
                _family_id(family_id, "family")
            ws = {id(row[2]): row[2] for row in rows}
            ys = {id(row[3]): row[3] for row in rows}
            objects = {id(row[4][0]): row[4][0] for row in rows if row[5]}
            objects.update((id(v), v) for row in rows if not row[5] for v in row[4])
            objects.update((id(v), v) for y in ys.values() for v in y)
            text = {key: quote % format_rational(v) for key, v in objects.items()}.__getitem__
            w_text = {key: item.join(map(str, w)) for key, w in ws.items()}
            y_text = {key: item.join(map(text, map(id, y))) for key, y in ys.items()}
            for start in range(0, len(rows), _BLOCK):
                yield before
                yield sep.join([record % (
                    family_id, n, w_text[id(w)], y_text[id(y)],
                    item.join([text(id(values[0]))] * len(values)) if equal
                    else item.join(map(text, map(id, values))), "true" if equal else "false",
                ) for family_id, n, w, y, values, equal in rows[start:start + _BLOCK]])
                before = sep
            del rows, ws, ys, objects, text, w_text, y_text  # before the next chunk is made
    yield tail


def emit_report(records: Sequence[VerificationReport], format: str = "json") -> bytes:
    """Serialize records; byte-stable for a fixed record order.  These are
    the bytes ``verify`` writes, family by family, for the same records:
    the pieces of one ``_report_pieces`` over the records as rows, joined.

    Every value must be an ``int`` or a ``Fraction``, or ``ValueError`` is
    raised, as ``format_rational`` raises.  An agreeing record is written
    from its first value, so the others are checked here: a record's
    ``all_equal`` holds for ``(Fraction(1, 2), 0.5)`` or
    ``(Fraction(1), True)``.  ``verify``'s rows need no check: the sweep
    makes every value."""
    for r in records:
        if r.all_equal:
            for v in r.variant_values[1:]:
                as_rational(v, "value")
    rows = [(r.family_id, r.n, r.w, r.y, r.variant_values, r.all_equal) for r in records]
    return "".join(_report_pieces([rows], format)).encode("utf-8")


# --------------------------------------------------------------------------
# Argument parsing helpers.


def _numbers(option: str, text: str, parse: Callable[[str, str], Any] = parse_int) -> tuple:
    """``parse`` of each comma-separated item of ``text``, the value of
    ``option`` (blank text has none); an empty item is malformed."""
    return tuple(parse(part, option) for part in text.split(",")) if text.strip() else ()


def _resolve_families(text: str) -> tuple[str, ...]:
    if text == "all":
        return FAMILY_IDS
    return tuple(_family_id(part.strip(), "--family") for part in text.split(","))


def _cmd_euler(args: SimpleNamespace) -> int:
    n = parse_int(args.n, "--n")
    if args.x is None:
        for coeff in euler.euler_polynomial(n).coeffs:
            print(format_rational(coeff))
    else:
        print(format_rational(euler.euler_eval(n, parse_rational(args.x, "--x"))))
    return 0


def _cmd_altsum(args: SimpleNamespace) -> int:
    k, n = parse_int(args.k, "--k"), parse_int(args.n, "--n")
    print(format_rational(altsum.alt_power_sum(k, n)))
    return 0


def _cmd_series(args: SimpleNamespace) -> int:
    w = _numbers("--w", args.w)
    y = _numbers("--y", args.y, parse_rational)
    i = None if args.i is None else parse_int(args.i, "--i")
    series = lambda_series(args.family, i, w, y, order=parse_int(args.order, "--order"))
    for coeff in series.coeffs:
        print(format_rational(coeff))
    return 0


def _sweep_config(args: SimpleNamespace) -> SweepConfig:
    """The sweep of parsed ``verify`` arguments."""
    return SweepConfig(
        families=_resolve_families(args.family),
        w_set=_numbers("--wset", args.wset),
        n_max=parse_int(args.nmax, "--nmax"),
        y_samples=_numbers("--ys", args.ys, parse_rational),
        include_even_w=args.include_even_w,
    )


def _cmd_verify(args: SimpleNamespace) -> int:
    config = _sweep_config(args)
    # The ids are checked before the file is opened, so that a configuration
    # error leaves an existing file as it was; the file is opened before the
    # first step of the sweep, so that an unwritable path fails before any
    # evaluation.  sys.stdout is read only to write, as a caller may redirect
    # it, and a stream without a binary buffer (a StringIO) is written text.
    sweeps = _family_sweeps(config)
    with nullcontext() if args.output is None else open(args.output, "wb") as handle:
        out = handle if handle is not None else getattr(sys.stdout, "buffer", sys.stdout)
        text = isinstance(out, io.TextIOBase)
        parts: list[SweepSummary] = []

        def chunks() -> Iterator[list[Row]]:
            # Each family's rows are written, then dropped before the next is swept.
            for rows, part in sweeps:
                parts.append(part)
                yield rows
                del rows

        # writelines keeps no piece past its write, as a loop variable would.
        pieces = _report_pieces(chunks(), args.format)
        out.writelines(pieces if text else map(str.encode, pieces))
        out.write("\n" if text else b"\n")
        out.flush()
    summary = _total(parts)

    note = "" if summary.cases_run else " (0 admissible parameter tuples)"
    print(
        f"families={summary.families_run} cases={summary.cases_run} "
        f"failures={summary.failures} orbit_failures={summary.orbit_failures} "
        f"oracle_failures={summary.oracle_failures} orbit_checks={summary.orbit_checks} "
        f"oracle_checks={summary.oracle_checks}{note}",
        file=sys.stderr,
    )
    return 0 if summary.ok else 1


# --------------------------------------------------------------------------
# The command table and its parser.


class _Option(NamedTuple):
    """One ``--`` option: its help text, its default (``None`` unless given;
    ``False`` makes it a flag, which takes no value and is ``True`` when
    given), whether it is required, and the values it may take (any when
    empty)."""

    help: str
    default: str | bool | None = None
    required: bool = False
    choices: tuple[str, ...] = ()


class _Command(NamedTuple):
    """One command: what runs it, its help line and its options by name."""

    handler: Callable[[SimpleNamespace], int]
    help: str
    options: dict[str, _Option]


_COMMANDS = {
    "euler": _Command(_cmd_euler, "Euler polynomial coefficients or a point value", {
        "--n": _Option("polynomial index", required=True),
        "--x": _Option("evaluation point as 'p/q'; omit for coefficients"),
    }),
    "altsum": _Command(_cmd_altsum, "alternating power sum T_k(n)", {
        "--k": _Option("power", required=True),
        "--n": _Option("number of terms", required=True),
    }),
    "series": _Command(_cmd_series, "coefficients of a quotient generating function", {
        "--family": _Option("quotient series", required=True, choices=LAMBDA_FAMILIES),
        "--i": _Option("sub-index 0..3 (L23/L13 only)"),
        "--w": _Option("weights, e.g. 1,3,5", required=True),
        "--y": _Option("shift values, e.g. 0,1/2", ""),
        "--order": _Option("last coefficient index", "24"),
    }),
    "verify": _Command(_cmd_verify, "sweep identity families", {
        "--family": _Option("family id, comma list, or 'all'", "all"),
        "--wset": _Option("weight values", "1,3,5,7"),
        "--nmax": _Option("largest n swept", "10"),
        "--ys": _Option("shift samples", DEFAULT_Y_SAMPLES),
        "--include-even-w": _Option(
            "let any-parity families (T1, T16) use even weights from --wset", False),
        "--output": _Option("write report here"),
        "--format": _Option("report format", "json", choices=tuple(_FORMATS)),
    }),
}
_HELP = ("-h", "--help")


def _metavar(name: str, option: _Option) -> str:
    if option.default is False:
        return name
    value = "{%s}" % ",".join(option.choices) if option.choices else name[2:].upper()
    return f"{name} {value}"


def _usage(command: str | None) -> str:
    if command is None:
        return "usage: eulersym [-h] {%s} ..." % ",".join(_COMMANDS)
    usage = [f"usage: eulersym {command} [-h]"]
    for name, option in _COMMANDS[command].options.items():
        text = _metavar(name, option)
        usage.append(text if option.required else f"[{text}]")
    return " ".join(usage)


def _help(command: str | None) -> NoReturn:
    """Print the commands (``command`` None) or a command's options, each
    with its help, and exit 0."""
    if command is None:
        about = ("Exact computation and verification of symmetry identities for Euler "
                 "polynomials and alternating power sums.  'eulersym COMMAND -h' lists "
                 "a command's options.")
        heading, rows = "commands", [(name, row.help) for name, row in _COMMANDS.items()]
    else:
        about, heading = _COMMANDS[command].help, "options"
        rows = [("-h, --help", "show this help message and exit")] + [
            (_metavar(name, option), option.help)
            for name, option in _COMMANDS[command].options.items()
        ]
    width = max(len(left) for left, _ in rows)
    lines = [f"  {left.ljust(width)}  {text}" for left, text in rows]
    sys.stdout.write("\n".join([_usage(command), "", about, "", f"{heading}:", *lines, ""]))
    raise SystemExit(0)


def _fail(command: str | None, message: str) -> NoReturn:
    """Print the usage and a usage error on stderr, and exit 2."""
    prog = "eulersym" if command is None else f"eulersym {command}"
    sys.stderr.write(f"{_usage(command)}\n{prog}: error: {message}\n")
    raise SystemExit(2)


def _parse_args(argv: Sequence[str]) -> tuple[Callable[[SimpleNamespace], int], SimpleNamespace]:
    """The handler of the command ``argv`` names and its options, each by
    its name in ``_COMMANDS`` less ``--``, with ``-`` read as ``_``, in the
    grammar the module docstring states.  Help exits 0 and a usage error
    exits 2, before any handler runs."""
    if not argv:
        _fail(None, "no command given")
    command, *rest = argv
    if command in _HELP:
        _help(None)
    if command not in _COMMANDS:
        _fail(None, f"unknown command {command!r} (choose from {', '.join(_COMMANDS)})")
    handler, _, options = _COMMANDS[command]
    values: dict[str, str | bool] = {}
    words = iter(rest)
    for word in words:
        if word in _HELP:
            _help(command)
        name, eq, value = word.partition("=")
        option = options.get(name)
        if option is None:
            _fail(command, f"unrecognized argument {word!r}")
        if option.default is False:
            if eq:
                _fail(command, f"{name} takes no value")
            values[name] = True
            continue
        if not eq:
            value = next(words, None)
            if value is None or value.startswith("--"):
                _fail(command, f"{name} expects a value")
        if option.choices and value not in option.choices:
            _fail(command, f"invalid choice for {name}: {value!r} "
                           f"(choose from {', '.join(option.choices)})")
        values[name] = value
    missing = [name for name, option in options.items()
               if option.required and name not in values]
    if missing:
        _fail(command, f"the following options are required: {', '.join(missing)}")
    return handler, SimpleNamespace(**{
        name[2:].replace("-", "_"): values.get(name, option.default)
        for name, option in options.items()
    })


def main(argv: Sequence[str] | None = None) -> int:
    handler, args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
