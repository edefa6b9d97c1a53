import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from eulersym import altsum, egf_series, identities
from eulersym import cli
from eulersym.cli import SweepConfig, _y_tuples, emit_report, main, run_sweep
from eulersym.orbits import A, E, T, term


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- euler


def test_euler_coefficients(capsys):
    code, out, _ = run_cli(capsys, "euler", "--n", "3")
    assert code == 0
    assert out.splitlines() == ["1/4", "0", "-3/2", "1"]


def test_euler_point_value(capsys):
    code, out, _ = run_cli(capsys, "euler", "--n", "2", "--x", "1/2")
    assert code == 0
    assert out.strip() == "-1/4"


def test_euler_rejects_negative_n(capsys):
    code, _, err = run_cli(capsys, "euler", "--n", "-1")
    assert code == 2
    assert "error" in err


# ---------------------------------------------------------------- altsum


def test_altsum_value(capsys):
    code, out, _ = run_cli(capsys, "altsum", "--k", "2", "--n", "3")
    assert code == 0
    assert out.strip() == "-6"


def test_altsum_rejects_negative(capsys):
    code, _, _ = run_cli(capsys, "altsum", "--k", "-2", "--n", "3")
    assert code == 2


# ---------------------------------------------------------------- series


def test_series_alternating_quotient(capsys):
    # L23 with i=3 at (1,1,3) collapses to (e^{3t}+1)/(e^t+1): T_k(2)
    code, out, _ = run_cli(
        capsys, "series", "--family", "L23", "--i", "3", "--w", "1,1,3",
        "--order", "3",
    )
    assert code == 0
    assert out.splitlines() == ["1", "1", "3", "7"]


def test_series_with_shifts(capsys):
    code, out, _ = run_cli(
        capsys, "series", "--family", "L12_0", "--w", "2,3,4", "--y", "1/2",
        "--order", "4",
    )
    assert code == 0
    assert len(out.splitlines()) == 5


def test_series_parity_rejection(capsys):
    code, _, err = run_cli(
        capsys, "series", "--family", "L23", "--i", "1", "--w", "2,3,5",
        "--y", "0,0",
    )
    assert code == 2
    assert "odd" in err


def test_series_malformed_weights(capsys):
    code, _, _ = run_cli(capsys, "series", "--family", "L13", "--i", "3", "--w", "1,x,3")
    assert code == 2


# ---------------------------------------------------------------- verify


def test_verify_c10_worked_example(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--family", "C10", "--wset", "3", "--nmax", "1",
        "--ys", "0",
    )
    assert code == 0
    records = json.loads(out)
    assert len(records) == 2
    assert records[1] == {
        "family": "C10",
        "n": 1,
        "w": [3],
        "y": ["0"],
        "values": ["-1/2", "-1/2"],
        "equal": True,
    }
    assert "cases=2" in err and "failures=0" in err


def test_verify_single_record_bytes():
    config = SweepConfig(
        families=("C10",), w_set=(3,), n_max=1, y_samples=(Fraction(0),)
    )
    records, summary = run_sweep(config)
    assert summary.cases_run == 2 and summary.failures == 0
    payload = emit_report(records[1:], "json")
    assert payload == (
        b'[{"family":"C10","n":1,"w":[3],"y":["0"],'
        b'"values":["-1/2","-1/2"],"equal":true}]'
    )


def test_verify_is_deterministic(capsys):
    args = (
        "verify", "--family", "C9,C10", "--wset", "1,3,5", "--nmax", "3",
        "--ys", "0,1/2,-1/3",
    )
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--family", "C10", "--wset", "3", "--nmax", "1",
        "--ys", "0", "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "family,n,w,y,values,equal"
    assert lines[2] == "C10,1,3,0,-1/2|-1/2,true"


def test_verify_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "verify", "--family", "C10", "--wset", "3", "--nmax", "0",
        "--ys", "0", "--output", str(target),
    )
    assert code == 0
    assert out == ""
    records = json.loads(target.read_text())
    assert records[0]["equal"] is True


def test_verify_output_to_missing_directory(monkeypatch, tmp_path, capsys):
    # The output is opened before the sweep: a sweep that ran would fail
    # with a TypeError, not the i/o error.
    monkeypatch.setattr(identities, "_check_grid", None)
    target = tmp_path / "missing" / "r.json"
    code, out, err = run_cli(
        capsys, "verify", "--family", "C10", "--wset", "3", "--nmax", "0",
        "--output", str(target),
    )
    assert code == 2
    assert err.startswith("i/o error:")
    assert not target.exists()


def test_verify_parity_filter_yields_zero_cases(capsys):
    # odd-only families drop even weights even when the flag is set
    code, out, err = run_cli(
        capsys, "verify", "--family", "T2", "--wset", "2", "--nmax", "2",
        "--ys", "0", "--include-even-w",
    )
    assert code == 0
    assert json.loads(out) == []
    assert "0 admissible" in err


def test_empty_family_list_runs_zero_cases():
    config = SweepConfig(families=(), w_set=(3,), n_max=2, y_samples=(Fraction(0),))
    records, summary = run_sweep(config)
    assert records == [] and summary.cases_run == 0 and summary.ok


def test_verify_without_shift_samples_sweeps_shift_free_families(capsys):
    # No samples give no shift tuple of arity >= 1, so T8 (one shift) has
    # no case, while T17 (no shift) is swept as usual.
    assert _y_tuples((), 2) == ()
    code, out, err = run_cli(
        capsys, "verify", "--family", "T8,T17", "--wset", "1,3", "--nmax", "1", "--ys=",
    )
    assert code == 0
    records = json.loads(out)
    assert records and {r["family"] for r in records} == {"T17"}
    assert "families=2 " in err


def test_repeated_weights_and_shifts_sweep_what_their_distinct_values_sweep(capsys):
    # A repeated value in --wset or --ys collapses: it adds no weight tuple,
    # no shift window and no record, and the report and the summary are
    # byte for byte those of the distinct values.
    grid = ("verify", "--family", "T5,C13", "--nmax", "1")
    distinct = run_cli(capsys, *grid, "--wset", "1,3", "--ys", "0,1")
    assert distinct[0] == 0 and json.loads(distinct[1])
    for argv in (("--wset", "1,1,3", "--ys", "0,1"), ("--wset", "1,3", "--ys", "0,0,1"),
                 ("--wset", "1,1,3", "--ys", "0,0,1")):
        assert run_cli(capsys, *grid, *argv) == distinct, argv


def test_emit_report_empty():
    assert emit_report([], "json") == b"[]"
    assert emit_report([], "csv") == b"family,n,w,y,values,equal\n"
    with pytest.raises(ValueError):
        emit_report([], "yaml")


def test_verify_include_even_w_extends_t16(capsys):
    args = ("verify", "--family", "T16", "--wset", "1,2", "--nmax", "1", "--ys", "0")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    weights = {tuple(r["w"]) for r in json.loads(out)}
    assert weights == {(1, 1, 1)}

    code, out, _ = run_cli(capsys, *args, "--include-even-w")
    assert code == 0
    weights = {tuple(r["w"]) for r in json.loads(out)}
    assert weights == {t for t in weights} and (2, 2, 2) in weights
    assert len(weights) == 8


def test_verify_rejects_malformed_rational(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--family", "C10", "--wset", "3", "--nmax", "1",
        "--ys", "0,beta",
    )
    assert code == 2
    assert "malformed" in err


@pytest.mark.parametrize("option, argv", [
    ("--wset", ("verify", "--wset", "1_1", "--family", "C13", "--nmax", "0")),
    ("--x", ("euler", "--n", "2", "--x", "0.5")),
    ("--n", ("euler", "--n", "1_0")),
    ("--k", ("altsum", "--k", "\u0662", "--n", "3")),
    ("--nmax", ("verify", "--family", "T17", "--nmax", "1_0")),
    ("--order", ("series", "--family", "L12_1", "--w", "1,3,5", "--order", "1_0")),
    ("--i", ("series", "--family", "L23", "--i", "\u0661", "--w", "1,3,5", "--y=0,0")),
    ("--wset", ("verify", "--family", "T17", "--wset", "1,,3", "--nmax", "0")),
    ("--ys", ("verify", "--family", "C10", "--wset", "3", "--nmax", "0", "--ys", "0,,1/2")),
    ("--n", ("euler", "--n", "1,2")),
    ("--nmax", ("verify", "--family", "T17", "--nmax", "3,99")),
    ("--x", ("euler", "--n", "2", "--x", "1/2,7")),
    ("--family", ("verify", "--family", "T17,,C18", "--nmax", "0")),
    ("--family", ("verify", "--family", "", "--nmax", "0")),
], ids=["wset 1_1", "x 0.5", "n 1_0", "k arabic 2", "nmax 1_0", "order 1_0", "i arabic 1",
        "wset empty item", "ys empty item", "n comma", "nmax comma", "x comma",
        "family empty item", "family empty"])
def test_only_plain_integers_and_fractions_parse(capsys, option, argv):
    # Not read as 11 or 10, as the float's value or as a non-ASCII digit's
    # value, an empty list item (a family id too) is not dropped, and a
    # scalar option is not a list: each is a usage error that names the option.
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: malformed ") and f" for {option}: " in err


def test_verify_rejects_unknown_family(capsys):
    code, _, err = run_cli(capsys, "verify", "--family", "T99")
    assert code == 2
    assert "unknown famil" in err


@pytest.mark.parametrize("before", [None, b"earlier report\n"], ids=["missing", "existing"])
def test_verify_unknown_family_leaves_the_output_as_it_was(tmp_path, capsys, before):
    # The ids are checked before the output is opened: a configuration
    # error exits 2, creates no file and leaves an existing file's bytes as
    # they were.
    target = tmp_path / "r.json"
    if before is not None:
        target.write_bytes(before)
    code, _, err = run_cli(capsys, "verify", "--family", "T99", "--output", str(target))
    assert code == 2
    assert "unknown families" in err
    assert (target.read_bytes() if target.exists() else None) == before


STREAMED_GRIDS = [
    ("--family", "T2,T1,T5", "--wset", "2,3", "--include-even-w", "--nmax", "1"),
    ("--family", "T2", "--wset", "2", "--nmax", "1"),  # no admissible case: []
    ("--family", "T2,T1", "--wset", "2", "--nmax", "1", "--format", "csv"),
    ("--family", "T8,T17", "--ys=", "--nmax", "2"),  # T8 has no case
]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("grid", STREAMED_GRIDS)
def test_streamed_report_equals_emit_report(tmp_path, capsysbinary, grid, fmt):
    # verify writes family by family; the bytes on stdout and in --output
    # are those of emit_report over the whole sweep's records.
    argv = ["verify", *grid, "--format", fmt]
    config = cli._sweep_config(cli._parse_args(argv)[1])
    expected = emit_report(run_sweep(config)[0], fmt) + b"\n"
    assert main(argv) == 0
    assert capsysbinary.readouterr().out == expected
    target = tmp_path / "r"
    assert main([*argv, "--output", str(target)]) == 0
    assert target.read_bytes() == expected


def test_verify_writes_each_family_before_sweeping_the_next(monkeypatch):
    # Each family's grid is checked by one _check_grid call.  When T2's
    # call runs, T1's records are already in the output, and nothing of
    # T2's.
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    check_grid = identities._check_grid
    seen = []

    def logged(fam, *args):
        seen.append((fam.family_id, len(stdout.buffer.getvalue())))
        return check_grid(fam, *args)

    monkeypatch.setattr(identities, "_check_grid", logged)
    grid = dict(w_set=(1, 3), n_max=1, y_samples=(Fraction(0),))
    t1 = emit_report(run_sweep(SweepConfig(families=("T1",), **grid))[0])
    seen.clear()
    with contextlib.redirect_stdout(stdout):
        code = main(["verify", "--family", "T2,T1", "--wset", "1,3", "--nmax", "1", "--ys", "0"])
    assert code == 0
    assert seen == [("T1", len("[")), ("T2", len(t1) - len("]"))]
    assert stdout.buffer.getvalue().startswith(t1[:-1] + b",")


def test_verify_holds_one_familys_records_at_a_time(monkeypatch):
    # verify drops each family's rows once they are written: when a
    # family's _check_grid call runs, no row of an earlier family is
    # alive.  A row is a tuple (family_id, n, w, y, values, equal); gc
    # tracks it, as its values are Fractions, which gc tracks.
    def live_rows():
        gc.collect()
        return {o[0] for o in gc.get_objects()
                if type(o) is tuple and len(o) == 6 and o[0] in ("T1", "T2", "T8")
                and type(o[1]) is int and type(o[5]) is bool}

    check_grid = identities._check_grid
    calls = []

    def logged(fam, *args):
        calls.append((fam.family_id, live_rows()))
        return check_grid(fam, *args)

    monkeypatch.setattr(identities, "_check_grid", logged)
    argv = ["verify", "--family", "T1,T2,T8", "--wset", "1,3", "--nmax", "1", "--ys", "0"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    assert calls == [("T1", set()), ("T2", set()), ("T8", set())]
    # The probe sees rows that are alive: run_sweep's loop still holds a
    # family's rows while the next family is swept.
    calls.clear()
    run_sweep(cli._sweep_config(cli._parse_args(argv)[1]))
    assert calls == [("T1", set()), ("T2", {"T1"}), ("T8", {"T2"})]


def test_verify_to_a_text_stdout_without_buffer(tmp_path):
    # A caller may redirect sys.stdout to an io.StringIO, which has no
    # binary buffer: the report is written to it as text.
    argv = ["verify", "--family", "T17", "--nmax", "1"]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(argv) == 0
    target = tmp_path / "r.json"
    assert main([*argv, "--output", str(target)]) == 0
    assert stdout.getvalue() == target.read_text()


def test_run_sweep_rejects_unknown_family_before_evaluating(monkeypatch):
    # run_sweep is the one check of family ids, for the CLI and for callers
    # alike; no family is evaluated when any id is unknown.
    monkeypatch.setattr(identities, "_check_grid", None)
    config = SweepConfig(families=("T8", "T99", "C0"), w_set=(1, 3), n_max=1,
                         y_samples=(Fraction(0),))
    with pytest.raises(ValueError, match=r"^unknown families: C0, T99 \(choose from T1, T2, "):
        run_sweep(config)


def test_run_sweep_rejects_a_family_under_another_id_before_evaluating(monkeypatch):
    # A catalog maps each family's own id to it: records carry the family's
    # id and the spot check follows its template, so T8 filed under T2 is
    # refused before any family is evaluated or spot-checked.
    monkeypatch.setattr(identities, "_check_grid", None)
    monkeypatch.setattr(identities, "_oracle_holds", None)
    config = SweepConfig(families=("T2",), w_set=(1, 3), n_max=2,
                         y_samples=(Fraction(0), Fraction(1, 2)))
    with pytest.raises(ValueError, match=r"^catalog keys not their families' ids: T2 holds T8$"):
        run_sweep(config, families={"T2": identities.FAMILIES["T8"]})


def test_a_templated_family_in_another_catalog_gets_every_check():
    # The orbit audit and the series spot check follow the template, not the id.
    t8b = dataclasses.replace(identities.FAMILIES["T8"], family_id="T8b")
    config = SweepConfig(families=("T8b",), w_set=(1, 3), n_max=2,
                         y_samples=(Fraction(0), Fraction(1, 2)))
    records, summary = run_sweep(config, families={"T8b": t8b})
    assert {r.family_id for r in records} == {"T8b"}
    assert (summary.orbit_checks, summary.oracle_checks) == (1, 1)
    assert summary.ok


def test_verify_rejects_bad_weight(capsys):
    code, _, _ = run_cli(capsys, "verify", "--family", "C10", "--wset", "0", "--nmax", "1")
    assert code == 2


def test_usage_error_exit_code():
    # verify has no --order: its series spot check reads every n <= --nmax.
    for argv in (["verify", "--format", "yaml"], ["verify", "--order", "3"]):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2


@pytest.fixture
def no_handler(monkeypatch):
    """Every command's handler replaced by one that fails if it is reached."""
    def reached(args):
        raise AssertionError(f"a handler ran with {args}")

    for name, row in cli._COMMANDS.items():
        monkeypatch.setitem(cli._COMMANDS, name, row._replace(handler=reached))


@pytest.mark.parametrize("flag", ["-h", "--help"])
@pytest.mark.parametrize("command", [None, *cli._COMMANDS])
def test_help_lists_every_command_and_option(no_handler, capsys, command, flag):
    argv = [flag] if command is None else [command, flag]
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 0
    out, err = capsys.readouterr()
    assert err == ""
    lines = out.splitlines()
    if command is None:
        rows = [(name, row.help) for name, row in cli._COMMANDS.items()]
    else:
        rows = [(name, option.help) for name, option in cli._COMMANDS[command].options.items()]
        assert lines[0].startswith(f"usage: eulersym {command} ")
        assert cli._COMMANDS[command].help in lines
    for name, text in rows:
        assert any(line.split()[0] == name and line.endswith(text) for line in lines if line), name


@pytest.mark.parametrize("argv", [
    [],
    ["frobnicate"],
    ["verify", "--frobnicate", "1"],
    ["verify", "T17"],
    ["verify", "--fam", "T17"],  # no abbreviation
    ["euler", "--n"],  # a value option at the end
    ["euler", "--n", "--x", "1/2"],  # followed by another option
    ["verify", "--include-even-w=1"],
    ["verify", "--format", "yaml"],
    ["series", "--family", "L99", "--w", "1,3,5"],
    ["euler"],
    ["altsum", "--k", "2"],
    ["series", "--family", "L23"],
])
def test_usage_errors_exit_2_before_any_handler(no_handler, capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    out, err = capsys.readouterr()
    prog = " ".join(["eulersym", *argv[:1]]) if argv and argv[0] in cli._COMMANDS else "eulersym"
    assert out == ""
    usage, error = err.splitlines()
    assert usage.startswith(f"usage: {prog} ") and error.startswith(f"{prog}: error: ")


def test_a_value_is_taken_whole_even_when_it_starts_with_a_dash(capsys):
    assert run_cli(capsys, "euler", "--n", "2", "--x", "-1/2") == (0, "3/4\n", "")
    assert run_cli(capsys, "euler", "--n=2", "--x=-1/2") == (0, "3/4\n", "")


def test_a_negative_count_is_still_a_value_error(capsys):
    code, out, err = run_cli(capsys, "euler", "--n", "-1")
    assert (code, out) == (2, "")
    assert err.startswith("error: n must")


def test_a_repeated_option_keeps_its_last_value(capsys):
    assert run_cli(capsys, "euler", "--n", "5", "--x", "9", "--n", "2", "--x=1/2") == (
        0, "-1/4\n", "")
    _, args = cli._parse_args(["verify", "--format", "csv", "--format", "json",
                               "--include-even-w", "--include-even-w"])
    assert (args.format, args.include_even_w, args.family) == ("json", True, "all")


def test_importing_the_cli_loads_no_argument_parser():
    # A fresh interpreter, isolated from the environment and user site, so
    # that only eulersym.cli's own imports can add modules.
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
        "import eulersym.cli; "
        "print(sorted({'argparse', 'gettext', 'locale'} & (set(sys.modules) - before)))"
    )
    src = str(Path(cli.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-E", "-s", "-c", code, src],
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


def test_an_internal_index_error_propagates(monkeypatch, capsys):
    # Exit 2 means bad input; a fault of the program is not reported as one.
    tval = identities._tval

    def faulty(k, upper):
        if k == 2:
            raise IndexError("internal fault")
        return tval(k, upper)

    monkeypatch.setattr(identities, "_tval", faulty)
    with pytest.raises(IndexError, match="internal fault"):
        main(["verify", "--family", "C10,T1", "--wset", "3", "--nmax", "3", "--ys", "0"])


def test_sweep_order_is_lexicographic():
    config = SweepConfig(
        families=("T17", "C18"), w_set=(1, 3), n_max=1,
        y_samples=(Fraction(0),),
    )
    records, _ = run_sweep(config)
    keys = [(r.family_id, r.n, r.w, r.y) for r in records]
    assert keys == sorted(keys)


def test_sweep_runs_plain_variants_per_n():
    # A variant without a grid form is called once per n, so one wrong only
    # at n = n_max fails exactly the n_max records.
    n_max = 3
    fam = identities.FAMILIES["C9"]
    compiled = fam.variants[1]

    def wrong_at_top(n, w, y):
        return compiled(n, w, y) + (n == n_max)

    catalog = {**identities.FAMILIES, "C9": dataclasses.replace(
        fam, variants=(fam.variants[0], wrong_at_top, fam.variants[2]))}
    config = SweepConfig(families=("C9",), w_set=(1, 3, 5), n_max=n_max,
                         y_samples=(Fraction(0), Fraction(123457, 999983)))
    records, summary = run_sweep(config, families=catalog)
    assert [r.n == n_max for r in records] == [not r.all_equal for r in records]
    assert summary.failures == 9 * 2


def test_shared_factor_table_matches_fresh_cases():
    # One sweep shares one factor table across all 19 families; every record
    # must equal check_case on that case alone, whose variants share one
    # table of that call's own, and its values must equal each variant
    # evaluated alone, with a fresh table (eval_variant).  The grid would
    # catch a key that dropped the shift's denominator (1/3 and 1/5, 1/3 and
    # -1/3 share a numerator), the count weights (repeated and distinct
    # weights share monomial values) or the kind (T_k(w - 1) and E_k(w * 0)
    # share everything else).
    config = SweepConfig(
        families=identities.FAMILY_IDS, w_set=(1, 3, 5), n_max=4,
        y_samples=(Fraction(0), Fraction(1, 3), Fraction(1, 5), Fraction(-1, 3),
                   Fraction(123457, 999983)),
    )
    records, summary = run_sweep(config)
    assert summary.failures == 0
    assert {r.family_id for r in records} == set(identities.FAMILY_IDS)
    for r in records:
        assert r == identities.check_case(r.family_id, r.n, r.w, r.y)
        fam = identities.FAMILIES[r.family_id]
        assert r.variant_values == tuple(
            identities.eval_variant(r.family_id, i, r.n, r.w, r.y)
            for i in range(len(fam.variants))
        )


def test_sweep_holds_one_object_per_distinct_value():
    # A sweep's table maps each reduced (numerator, denominator) to one
    # Fraction, so equal values are one object and unequal ones are not.
    config = SweepConfig(
        families=identities.FAMILY_IDS, w_set=(1, 3, 5), n_max=3,
        y_samples=(Fraction(0), Fraction(1, 2), Fraction(-1, 3)),
    )
    records, summary = run_sweep(config)
    assert summary.failures == 0
    values = [v for r in records for v in r.variant_values]
    pairs = {(v.numerator, v.denominator) for v in values}
    assert len({id(v) for v in values}) == len(pairs) < len(values)


def test_a_sweep_builds_pascal_rows_once(monkeypatch):
    # A sweep's one table builds Pascal's rows when it is made, and every
    # fold and every A vector of every family convolves against them, so
    # the whole sweep builds them once.  A theorem's series spot check
    # reads the values the sweep computed, and folds nothing of its own.
    pascal_rows = identities._pascal_rows
    calls = []

    def counted(n):
        calls.append(n)
        return pascal_rows(n)

    monkeypatch.setattr(identities, "_pascal_rows", counted)
    config = SweepConfig(families=("T8", "C6", "C12"), w_set=(1, 3, 5), n_max=2,
                         y_samples=(Fraction(0), Fraction(1, 2)))
    records, summary = run_sweep(config)
    assert summary.ok and summary.oracle_checks == 1
    assert {r.family_id for r in records} == {"T8", "C6", "C12"}
    assert calls == [2]


@pytest.mark.parametrize("field, value", [
    ("w_set", (1.5, 3)), ("include_even_w", "no"), ("n_max", 1.5), ("y_samples", (0.5,)),
    ("families", "T8"), ("families", (1,)), ("families", ("T8", 3)), ("families", None),
    ("include_even_w", 1), ("w_set", 5), ("y_samples", Fraction(1, 2)),
    ("w_set", {1, 3}), ("y_samples", b"\x00"),
])
def test_sweep_config_rejects_non_exact_fields(field, value):
    # Nothing is coerced or dropped: a float weight is not filtered out as
    # even, a float n_max is not taken as a bound, one id is not swept as
    # its characters and a truthy value is not taken as True.
    fields = dict(families=("T8",), w_set=(1, 3), n_max=2, y_samples=(Fraction(0),))
    with pytest.raises(ValueError, match=field):
        SweepConfig(**{**fields, field: value})


def test_sweep_config_reads_a_one_pass_iterable_whole():
    # A generator of weights is read once, not checked and then found empty,
    # which swept no case and passed.
    config = SweepConfig(families=("T8",), w_set=(w for w in (1, 3)), n_max=1,
                         y_samples=iter([Fraction(0)]))
    assert (config.w_set, config.y_samples) == ((1, 3), (Fraction(0),))


def test_term_table_shares_values_only_between_identical_terms(monkeypatch):
    # A sweep folds each distinct term once and hands its values to every
    # variant with the same key.  With every identity broken, a key that
    # let two different expressions share values would show as a variant
    # differing from its value computed alone, with a table of its own;
    # with the identities intact the borrowed value would be right anyway.
    # Every E and A vector is built at the one anchor, whatever its shift,
    # so each factor's stand-in perturbs by its monomial value, which
    # differs between the factors of a term, not by its argument, the
    # anchor, which does not.  T1's variants fold the same three (factor,
    # base) pairs in permuted bundle order at the same rate, so no factor's
    # perturbation can split them; the fold's stand-in adds its first
    # bundle's base, which tells the orders apart.  Repeated weights
    # (3, 3, 5) make variants of one family coincide.  A single shift value
    # gives every slot the same shift, so that T1's and T16's term keys
    # read the same shifts while their bases differ.  Every scale in the
    # catalog is the product of its term's count weights, which the factor
    # keys hold; SCALE adds two terms whose one factor is the same and
    # whose bases differ, () against the folded scale (1,).  KIND adds two
    # terms with the same slot counts and the same reads, (w1, w2, w3) and
    # y1, whose bundles differ only in kind.  SLOTS adds pairs of terms
    # whose reads agree, at w2 = w3 or at any w, and whose bundles differ
    # only in how those reads group: a slot moves from one bundle's
    # monomial, counts or base to the other's.
    build_e, alt_vec, tval = identities._BUILD["E"], identities._alt_vec, identities._tval
    fold = identities._fold
    monkeypatch.setitem(identities._BUILD, "E",
                        lambda table, a: [v + a for v in build_e(table, a)])
    monkeypatch.setattr(identities, "_alt_vec", lambda base, m, counts, rows: [
        v + m for v in alt_vec(base, m, counts, rows)])

    def first_base_added(forms, bases, rows):
        nums, d = fold(forms, bases, rows)
        return [c + bases[0] * d for c in nums], d

    monkeypatch.setattr(identities, "_fold", first_base_added)
    # T17 and C18 read only T_k.
    monkeypatch.setattr(identities, "_tval", lambda k, upper: tval(k, upper) + upper)
    scaled = (term((E((0,), 0), ())), term((E((0,), 0), ()), scale=(1,)))
    kinds = (term((T(0), (1,)), (E((2,), 0), ())), term((E((0,), 0), (1,)), (T(2), ())))
    slots = (
        term((E((0,), 0), (1,)), (E((1, 2), 0), (0,))),
        term((E((0, 1), 0), (2,)), (E((2,), 0), (0,))),
        term((A((), 0, 0), (1,)), (A((), 0, 1, 2), (0,))),
        term((A((), 0, 0, 1), (2,)), (A((), 0, 2), (0,))),
        term((E((0,), 0), (1,)), (E((2,), 0), ())),
        term((E((0,), 0), ()), (E((1,), 0), (2,))),
    )
    catalog = {**identities.FAMILIES, **{
        fid: identities.IdentityFamily.from_terms(fid, row)
        for fid, row in (("SCALE", scaled), ("KIND", kinds), ("SLOTS", slots))
    }}
    failing = set()
    for ys in ((Fraction(1, 3), Fraction(-1, 2)), (Fraction(1, 3),)):
        config = SweepConfig(families=tuple(catalog), w_set=(1, 3, 5), n_max=2, y_samples=ys)
        records, _ = run_sweep(config, families=catalog)
        failing |= {r.family_id for r in records if not r.all_equal}
        for r in records:
            alone = [ev(r.n, r.w, r.y) for ev in catalog[r.family_id].variants]
            assert list(r.variant_values) == alone, r
    assert failing == set(catalog)


def test_perturbed_euler_vec_after_a_sweep_fails(monkeypatch, capsys):
    # A sweep's factor table dies with the sweep.  After one clean sweep in
    # this process, perturb E_n(x) at its top index, as the benchmark gate
    # does: the same sweep again must notice and the process must exit 1.
    argv = ("verify", "--family", "T5,C6", "--wset", "1,3,5", "--nmax", "2",
            "--ys", "0,1/2")
    assert run_cli(capsys, *argv)[0] == 0
    euler_vec = identities._euler_vec

    def perturbed(x, n_max):
        vals = euler_vec(x, n_max)
        return vals[:-1] + (vals[-1] + x,)

    monkeypatch.setattr(identities, "_euler_vec", perturbed)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1
    assert '"equal":false' in out
    assert {r["family"] for r in json.loads(out) if not r["equal"]} == {"T5", "C6"}


def test_failing_record_and_exit_code(monkeypatch, capsys):
    # Shift every alternating power sum one slot: T_k(w) instead of
    # T_k(w-1).  The sweep must notice and the process must exit 1.
    monkeypatch.setattr(
        identities, "_tval", lambda k, upper: altsum.alt_power_sum(k, upper + 1)
    )
    code, out, err = run_cli(
        capsys, "verify", "--family", "C10", "--wset", "3", "--nmax", "2",
        "--ys", "0,1/2",
    )
    assert code == 1
    records = json.loads(out)
    assert any(not r["equal"] for r in records)
    assert "cases=6 failures=5" in err


def test_wrong_orbit_size_fails_the_sweep(monkeypatch, capsys):
    # An orbit audit that disagrees with a theorem's expected orbit size
    # fails that family's audit; corollaries have no template to audit.
    monkeypatch.setattr(cli, "orbit_audit", lambda template: 0)
    config = SweepConfig(families=identities.FAMILY_IDS, w_set=(1, 3), n_max=0,
                         y_samples=(Fraction(0),))
    _, summary = run_sweep(config)
    theorems = [f for f in identities.FAMILIES.values() if f.orbit_template is not None]
    assert summary.failures == 0
    assert summary.orbit_checks == summary.orbit_failures == len(theorems) == 8
    assert not summary.ok
    code, _, err = run_cli(capsys, "verify", "--family", "T8", "--wset", "3", "--nmax", "1")
    assert code == 1
    assert "failures=0 orbit_failures=1 " in err


def test_every_theorem_gets_one_audit_and_one_spot_check():
    config = SweepConfig(families=identities.FAMILY_IDS, w_set=(1, 3), n_max=0,
                         y_samples=(Fraction(0),))
    _, summary = run_sweep(config)
    assert summary.orbit_checks == summary.oracle_checks == 8
    assert summary.ok


@pytest.mark.parametrize("family, checks", [("T1,T2,T5,T8,T11,T14,T16,T17", 8), ("C10", 0)],
                         ids=["theorems", "corollary"])
def test_verify_says_how_many_checks_ran(capsys, family, checks):
    code, _, err = run_cli(capsys, "verify", "--family", family, "--wset", "1,3", "--nmax", "1",
                           "--ys", "0")
    assert code == 0
    assert f" oracle_failures=0 orbit_checks={checks} oracle_checks={checks}\n" in err


def test_spot_check_reads_the_weights(monkeypatch, capsys):
    # Paired with L13_2 in place of L23_2, the "ett" spot check must fail on
    # the default grid.  At its first weights, w = (1, 1, 1), the two series
    # are equal, so a check run there would pass.
    monkeypatch.setitem(identities._TEMPLATE_SERIES, "ett", ("L13", 2))
    code, _, err = run_cli(capsys, "verify", "--family", "T8", "--nmax", "2")
    assert code == 1
    assert "failures=0 orbit_failures=0 oracle_failures=1 " in err


@pytest.mark.parametrize("wrong, failures", [((0, 1, 2), 0), ((2,), 54)],
                         ids=["every variant", "last variant"])
def test_spot_check_reads_every_value_of_the_sweep(wrong, failures):
    # The series spot check compares the values the sweep computed, each of
    # them, with the series.  T8's variants at `wrong` add 1 at n = n_max:
    # when all three do, they still agree with each other, and only the
    # spot check can notice; when only the last does, the spot check must
    # notice it too, though the first two values match the series.
    n_max = 2
    fam = identities.FAMILIES["T8"]

    def plus_one_at_top(ev):
        return lambda n, w, y: ev(n, w, y) + (n == n_max)

    variants = tuple(plus_one_at_top(ev) if i in wrong else ev
                     for i, ev in enumerate(fam.variants))
    catalog = {"T8": dataclasses.replace(fam, variants=variants)}
    config = SweepConfig(families=("T8",), w_set=(1, 3, 5), n_max=n_max,
                         y_samples=(Fraction(0), Fraction(1, 2)))
    records, summary = run_sweep(config, families=catalog)
    assert (summary.failures, summary.oracle_checks, summary.oracle_failures) == (failures, 1, 1)
    assert all(r.all_equal for r in records if r.n < n_max)


@pytest.mark.parametrize("k, argv, oracle_failures", [
    (3, ("--family", "T8,T17,C9", "--wset", "1,3", "--nmax", "3", "--ys", "0"), 2),
    # Past n = 24, where the spot check used to stop.
    (30, ("--family", "T8", "--nmax", "30"), 1),
    # Below n_max: every coefficient is compared, not only the last.
    (1, ("--family", "T8,T17,C9", "--wset", "1,3", "--nmax", "3", "--ys", "0"), 2),
], ids=["coefficient 3", "coefficient 30", "coefficient 1"])
def test_perturbed_series_fails_the_oracle(monkeypatch, capsys, k, argv, oracle_failures):
    # Coefficient k of every quotient series off by 1: the identities still
    # hold, and the series spot check of each theorem swept must notice.
    quotient = egf_series._quotient

    def perturbed(*args):
        coeffs = list(quotient(*args).coeffs)
        if len(coeffs) > k:
            coeffs[k] += 1
        return egf_series.TruncatedEGF(tuple(coeffs))

    monkeypatch.setattr(egf_series, "_quotient", perturbed)
    code, _, err = run_cli(capsys, "verify", *argv)
    assert code == 1
    assert f"failures=0 orbit_failures=0 oracle_failures={oracle_failures}" in err


def test_perturbed_alt_vec_fails_d_only_families(monkeypatch, capsys):
    # T14 and C15's D variant read neither an Euler vector nor T_k, only the
    # A/D kernel.  Perturb its top entry by the base, as the benchmark gate
    # perturbs E_n(x): the sweep must notice and the process must exit 1.
    argv = ("verify", "--family", "T14,C15", "--wset", "1,3,5", "--nmax", "2",
            "--ys", "0,1/2")
    assert run_cli(capsys, *argv)[0] == 0
    alt_vec = identities._alt_vec

    def perturbed(base, m, counts, rows):
        vals = alt_vec(base, m, counts, rows)
        return vals[:-1] + [vals[-1] + base]

    monkeypatch.setattr(identities, "_alt_vec", perturbed)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1
    assert '"equal":false' in out
    assert {r["family"] for r in json.loads(out) if not r["equal"]} == {"T14", "C15"}


# ---------------------------------------------------------------- pinned outputs

_SERIES_SHIFTS = ("1/2", "-1/3", "2/7")
# (family, sub-index, shift count): every LAMBDA_FAMILIES member.
_SERIES_MEMBERS = (
    [("L23", i, 3 - i) for i in range(4)]
    + [("L13", i, 3 - i) for i in range(4)]
    + [("L12_0", None, 1), ("L12_1", None, 0)]
)


def _series_argvs():
    for family, i, count in _SERIES_MEMBERS:
        argv = ["series", "--family", family, "--w", "1,3,5", "--order", "40"]
        if i is not None:
            argv += ["--i", str(i)]
        yield argv + ["--y=" + ",".join(_SERIES_SHIFTS[:count])]


# SHA-256 and length of stdout, recorded before the series and Euler
# coefficient paths were rewritten; any change to the exact values shows.
PINNED = {
    "verify": (
        [["verify", "--family", "all", "--wset", "1,3,5", "--nmax", "4", "--format", "json"]],
        848685, "f07c836c86b773656841ff7e5a1649e05545223d47429b29a2adeead020a0c93",
    ),
    "series": (
        list(_series_argvs()),
        17824, "90243a9d0c4f8ad679056ac45578ba4388427b19cd254b25ac95543c4fdd972e",
    ),
    # The shifted families at 6-digit-denominator shifts, recorded before the
    # A/D kernel moved to integers over a common, non-minimal denominator.
    "shifted": (
        [["verify", "--family", "T5,T11,T14,C6,C12,C13,C15,INTRO_CHAIN", "--wset", "1,3,5,7",
          "--nmax", "4", "--ys=123457/999983,-654321/100003,5/100019", "--format", "csv"]],
        843112, "58c0f1b53a6df121831cb5da00fd5505372502dd968222c16fa7dfb8593f08ae",
    ),
    "euler": (
        [["euler", "--n", "80"]],
        2076, "49bc30fc0074ea6848d456f10e9c951a45ebc7caf1afb10123ff1863a4e34179",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_outputs(capsys, name):
    argvs, size, digest = PINNED[name]
    out = b""
    for argv in argvs:
        code, text, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        out += text.encode()
    assert (len(out), hashlib.sha256(out).hexdigest()) == (size, digest)
