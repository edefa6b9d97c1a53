"""``emit_report`` writes the bytes of the plain emitters in
``report_reference``, in both formats, for any id of the family-id
grammar, refuses any other id, any record whose ``n``, ``w`` or ``y`` is
not a count, weights or shifts, and any value that is not an ``int`` or
a ``Fraction``, and formats each value object it needs
once: each ``y`` value, the first value of a record whose values agree,
and every value of a record whose values do not."""

import string
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import report_reference as ref
from eulersym import cli
from eulersym.cli import SweepConfig, emit_report, run_sweep
from eulersym.exact_arith import format_rational
from eulersym.identities import FAMILIES, FAMILY_IDS, VerificationReport, check_cases

FORMATS = ("json", "csv")

# Zero, negative, small, integral and 20-digit numerators and denominators.
numerators = st.one_of(
    st.just(0), st.integers(-9, 9), st.integers(-(10**20) + 1, 10**20 - 1),
)
denominators = st.one_of(
    st.just(1), st.integers(-9, 9), st.integers(-(10**20) + 1, 10**20 - 1),
).filter(bool)

# The catalog's ids and any other the id grammar, [A-Za-z0-9_]+, admits.
# (st.from_regex fails the too_slow health check on a first run, with no
# .hypothesis directory yet.)
family_ids = st.one_of(
    st.sampled_from(FAMILY_IDS),
    st.text(st.sampled_from(string.ascii_letters + string.digits + "_"), min_size=1),
)


@st.composite
def reports(draw):
    """A list of records whose values come from a small pool, so that
    values repeat: some as the pool's own object, shared between records,
    and some as an equal value in an object of its own."""
    pool = draw(st.lists(st.builds(Fraction, numerators, denominators), min_size=1, max_size=5))

    def values(min_size, max_size):
        out = []
        for _ in range(draw(st.integers(min_size, max_size))):
            v = draw(st.sampled_from(pool))
            out.append(Fraction(v.numerator, v.denominator) if draw(st.booleans()) else v)
        return tuple(out)

    records = []
    for _ in range(draw(st.integers(0, 6))):
        w = tuple(draw(st.lists(st.integers(1, 99), min_size=1, max_size=3)))
        records.append(VerificationReport(
            draw(family_ids), draw(st.integers(0, 40)), w,
            values(0, 3), values(1, 8),
        ))
    return records


EVERY_FAMILY = [
    VerificationReport(fid, 2, (3, 5, 1), (Fraction(-1, 3),), (Fraction(7, 4), Fraction(7, 4)))
    for fid in FAMILY_IDS
]


@given(reports())
@example([])
@example(EVERY_FAMILY)
def test_emit_report_matches_reference(records):
    for fmt in FORMATS:
        assert emit_report(records, fmt) == ref.emit_report(records, fmt)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("family_id", ['T"1', "T,1", "T|1", "T\u00e4", "T 1", ""])
def test_emit_report_refuses_an_id_the_template_cannot_write(fmt, family_id):
    # None is a family id: the template neither escapes nor quotes.
    record = VerificationReport(family_id, 0, (1,), (), (Fraction(1),))
    with pytest.raises(ValueError, match="malformed id"):
        emit_report([record], fmt)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("field, n, w, y", [
    ("n", True, (1,), ()), ("w", 1, (True, 2.5), ()), ("w", 1, 5, ()), ("y", 1, (1,), None),
], ids=["n=True", "w=(True, 2.5)", "w=5", "y=None"])
def test_emit_report_refuses_a_record_whose_n_w_or_y_it_cannot_write(fmt, field, n, w, y):
    # A bool n or weight would be written as True, not JSON; a float weight
    # as 2.5; and a bare number or None raised a TypeError from iteration.
    record = VerificationReport("T1", n, w, y, (Fraction(1),))
    with pytest.raises(ValueError, match=f"^{field} must"):
        emit_report([record], fmt)


@pytest.mark.parametrize("fmt", FORMATS)
def test_emit_report_writes_one_pass_weights_and_shifts_whole(fmt):
    # Checked and written from one reading: a second pass over an iterator
    # would find it empty and write [].
    records = [VerificationReport("T1", 1, iter(w), iter(y), (Fraction(1),))
               for w, y in (((1, 3), (0, HALF)), ((5,), (HALF,)))]
    expected = [VerificationReport("T1", 1, (1, 3), (0, HALF), (Fraction(1),)),
                VerificationReport("T1", 1, (5,), (HALF,), (Fraction(1),))]
    assert emit_report(records, fmt) == ref.emit_report(expected, fmt)


def _formatted(records):
    """The ids of the value objects the writer formats for ``records``,
    one chunk: each ``y`` value, the first value of each record whose
    values agree and every value of each record whose values do not."""
    ids = {id(v) for r in records for v in r.y}
    for r in records:
        ids.update(map(id, r.variant_values[:1] if r.all_equal else r.variant_values))
    return ids


def _format_calls(monkeypatch):
    """The list of values that ``cli`` formats from now on, in order."""
    calls = []
    format_rational = cli.format_rational
    monkeypatch.setattr(cli, "format_rational", lambda v: calls.append(v) or format_rational(v))
    return calls


def test_sweep_report_formats_each_value_object_once(monkeypatch):
    # The writer formats each object it needs once.  In a sweep the equal
    # values of a record are one object, so on a sweep that holds, the
    # objects it needs, the y values and each record's first value, are
    # every distinct value object of the records.
    config = SweepConfig(families=("T2", "C3", "T14", "INTRO_CHAIN"), w_set=(1, 3, 5), n_max=2,
                         y_samples=(Fraction(0), Fraction(1, 2), Fraction(-1, 3)))
    records, summary = run_sweep(config)
    assert summary.failures == 0
    objects = _formatted(records)
    assert objects == {id(v) for r in records for v in r.y + r.variant_values}
    calls = _format_calls(monkeypatch)
    for fmt in FORMATS:
        calls.clear()
        assert emit_report(records, fmt) == ref.emit_report(records, fmt)
        assert len(calls) == len(objects) < sum(len(r.y + r.variant_values) for r in records)
        assert {id(v) for v in calls} == objects


HALF, MINUS_THIRD = Fraction(1, 2), Fraction(-1, 3)


@pytest.mark.parametrize("records", [
    # One agreeing record whose values are distinct objects, equal in value.
    [VerificationReport("T1", 3, (1, 3), (HALF,),
                        (Fraction(7, 4), Fraction(7, 4), Fraction(-14, -8)))],
    # Two agreeing records of different lengths whose first value is one object.
    [VerificationReport("T1", 0, (1,), (), (HALF, HALF)),
     VerificationReport("C3", 0, (1,), (), (HALF, Fraction(1, 2), HALF))],
    # A disagreeing record between agreeing ones that hold its objects first.
    [VerificationReport("C6", 1, (3,), (MINUS_THIRD,), (HALF, HALF)),
     VerificationReport("C6", 1, (5,), (MINUS_THIRD,), (HALF, MINUS_THIRD, HALF)),
     VerificationReport("C6", 1, (7,), (MINUS_THIRD,), (MINUS_THIRD,) * 3)],
], ids=["equal-objects", "shared-first-value", "disagreeing-between"])
@pytest.mark.parametrize("fmt", FORMATS)
def test_agreeing_records_are_written_from_their_first_value(monkeypatch, records, fmt):
    calls = _format_calls(monkeypatch)
    assert emit_report(records, fmt) == ref.emit_report(records, fmt)
    assert len(calls) == len(_formatted(records))
    assert {id(v) for v in calls} == _formatted(records)


@pytest.mark.parametrize("values", [(HALF, 0.5), (HALF, HALF, 0.5), (Fraction(1), True),
                                    (Fraction(0), Fraction(0), False)],
                         ids=["float", "float-last-of-three", "true", "false"])
@pytest.mark.parametrize("fmt", FORMATS)
def test_an_agreeing_record_with_a_float_or_bool_value_is_refused(fmt, values):
    # Each value is == to the first, so the record agrees, but a float or
    # a bool is no exact value: both writers refuse it, though the fast
    # one writes an agreeing record from its first value.
    record = VerificationReport("T1", 0, (1,), (), values)
    assert record.all_equal
    with pytest.raises(ValueError, match="must be an int or a Fraction"):
        ref.emit_report([record], fmt)
    with pytest.raises(ValueError, match="must be an int or a Fraction"):
        emit_report([record], fmt)


@pytest.mark.parametrize("fmt", FORMATS)
def test_a_failing_record_is_written_value_by_value(monkeypatch, fmt):
    # Negative control: a sweep in which C6's last variant is perturbed by
    # 1/7919 at every n, next to C7, which holds.  Each C6 record disagrees
    # and is written value by value, the perturbed one included, and the
    # bytes are those of the plain emitter.
    c6 = FAMILIES["C6"]
    last = c6.variants[-1]
    delta = Fraction(1, 7919)
    catalog = {"C6": replace(c6, variants=c6.variants[:-1] + (
        lambda n, w, y: last(n, w, y) + delta,)), "C7": FAMILIES["C7"]}
    config = SweepConfig(families=("C6", "C7"), w_set=(1, 3, 5), n_max=2,
                         y_samples=(Fraction(0), Fraction(1, 2)))
    chunks = [rows for rows, _ in cli._family_sweeps(config, catalog)]
    by_chunk = [[VerificationReport(*row[:5]) for row in rows] for rows in chunks]
    assert [[r.all_equal for r in records] for records in by_chunk] == [
        [row[5] for row in rows] for rows in chunks]
    records = [r for records in by_chunk for r in records]
    failing = [r for r in records if not r.all_equal]
    assert {r.family_id for r in failing} == {"C6"} and len(failing) == len(by_chunk[0])

    calls = _format_calls(monkeypatch)
    text = "".join(cli._report_pieces(chunks, fmt))
    assert text.encode("utf-8") == ref.emit_report(records, fmt)
    assert len(calls) == sum(len(_formatted(records)) for records in by_chunk)
    item, quote = cli._FORMATS[fmt][2:4]
    for r in failing:
        perturbed = format_rational(r.variant_values[-1])
        assert perturbed != format_rational(r.variant_values[0])
        assert item.join(quote % format_rational(v) for v in r.variant_values) in text


def test_block_text_is_the_same_for_shared_and_fresh_tuples():
    # The records of one (family, w, y) block share their w and y tuples,
    # whose text the emitter writes once per object; equal tuples of their
    # own, with values of their own, must give the same bytes.
    shared = check_cases("T5", 3, (3, 5, 7), (Fraction(1, 2), Fraction(-1, 3)))
    assert len({id(r.w) for r in shared}) == len({id(r.y) for r in shared}) == 1
    fresh = [
        VerificationReport(r.family_id, r.n, tuple(list(r.w)),
                           tuple(Fraction(v.numerator, v.denominator) for v in r.y),
                           r.variant_values)
        for r in shared
    ]
    assert len({id(r.w) for r in fresh}) == len({id(r.y) for r in fresh}) == len(fresh)
    for fmt in FORMATS:
        expected = ref.emit_report(shared, fmt)
        assert ref.emit_report(fresh, fmt) == expected
        assert emit_report(shared, fmt) == expected
        assert emit_report(fresh, fmt) == expected


@pytest.mark.parametrize("fmt", FORMATS)
def test_report_is_written_in_blocks(fmt):
    # 2,500 records, not a multiple of the block size, in chunks of 2,100
    # and 400: each chunk's records are written in pieces of at most cli._BLOCK records,
    # with the record separator between pieces, and the bytes are those of
    # the plain emitter.
    values = [Fraction(k, 7) for k in range(-3, 4)]
    records = [
        VerificationReport(("T2", "C3")[k >= 2100], k % 41, (1, 3, 5)[: 1 + k % 3],
                           (values[k % 7],), (values[k % 5], values[k % 5 + k % 2]))
        for k in range(2500)
    ]
    rows = [(r.family_id, r.n, r.w, r.y, r.variant_values, r.all_equal) for r in records]
    pieces = list(cli._report_pieces([rows[:2100], rows[2100:]], fmt))
    marker = '{"family":' if fmt == "json" else "\n"
    sizes = [piece.count(marker) for piece in pieces[1:-1]]  # the head and tail hold none
    assert [size for size in sizes if size] == [1024, 1024, 52, 400]
    assert max(sizes) <= cli._BLOCK
    assert "".join(pieces).encode("utf-8") == ref.emit_report(records, fmt)
