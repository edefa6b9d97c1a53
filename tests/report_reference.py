"""The plain report emitters that ``eulersym.cli.emit_report`` replaces.

JSON is ``json.dumps`` over one dict per record; CSV is one
``csv.writer`` row per record, every value through ``format_rational``
each time it occurs.  They are slow but obviously right, so the property
tests use them as the reference the fast emitter must match byte for
byte.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Sequence

from eulersym.exact_arith import format_rational
from eulersym.identities import VerificationReport


def record_dict(record: VerificationReport) -> dict:
    return {
        "family": record.family_id,
        "n": record.n,
        "w": list(record.w),
        "y": [format_rational(v) for v in record.y],
        "values": [format_rational(v) for v in record.variant_values],
        "equal": record.all_equal,
    }


def emit_report(records: Sequence[VerificationReport], format: str = "json") -> bytes:
    if format == "json":
        payload = json.dumps([record_dict(r) for r in records], separators=(",", ":"))
        return payload.encode("utf-8")
    if format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["family", "n", "w", "y", "values", "equal"])
        for r in records:
            writer.writerow(
                [
                    r.family_id,
                    r.n,
                    "|".join(str(v) for v in r.w),
                    "|".join(format_rational(v) for v in r.y),
                    "|".join(format_rational(v) for v in r.variant_values),
                    "true" if r.all_equal else "false",
                ]
            )
        return buffer.getvalue().encode("utf-8")
    raise ValueError(f"unknown report format {format!r}")
