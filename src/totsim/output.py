"""Deterministic emission of trial records, summaries, and run metadata.

One column table per row type, `columns(cls, slots)`, drives both CSVs and
summary.json: one column per `TrialRecord` or `SummaryRow` field, with the
row's one slot dict expanded in place into one column per declared slot
(`slot_<name>` flags for `partial_info`, `slot_<name>_rate` for
`slot_rates`). summary.json's objects are keyed by summary.csv's column
names; records.json keeps each record's nested per-slot map.
`CSV_SCHEMA_VERSION` versions the records CSV, and `JSON_SCHEMA_VERSION`
the records.json and summary.json payloads, so a change to one format
moves no byte of the other. Booleans are 0/1, times decimal milliseconds
with three fractional digits, other floats shortest round-trip decimals.
Files are written to a temporary name and renamed, so failures never
leave partial output behind.
"""

from __future__ import annotations

import json
import os
import secrets
from dataclasses import asdict, fields
from pathlib import Path
from typing import get_type_hints

from .errors import ParameterError
from .experiment import STREAM_VERSION, SummaryRow, TrialRecord

CSV_SCHEMA_VERSION = 2
# 2: every record names every declared slot in `partial_info`.
JSON_SCHEMA_VERSION = 2


def fmt_float(x: float) -> str:
    """Shortest decimal form that round-trips the float exactly."""
    return repr(float(x))


def fmt_ms(x: float) -> str:
    return f"{x:.3f}"


def fmt_flag(x: bool) -> str:
    return "1" if x else "0"


def parse_flag(text: str) -> bool:
    return bool(int(text))


# How a cell is written, by its column's type; the type itself parses it back.
_FORMAT = {int: str, float: fmt_float, str: str}
# Each row type's one slot dict, by field name, as (column name pattern,
# parse, format) of the column each declared slot becomes.
_SLOT_COLUMN = {"partial_info": ("slot_{}", parse_flag, fmt_flag),
                "slot_rates": ("slot_{}_rate", float, fmt_float)}


def columns(cls, slots) -> list[tuple]:
    """The CSV columns, as (name, parse, format), of row dataclass `cls`
    (`TrialRecord` or `SummaryRow`) in a run whose lexicon declares `slots`:
    one per field, in field order, with the row's slot dict expanded in
    place into one column per slot, in name order (`slot_<name>` flags for
    `partial_info`, `slot_<name>_rate` floats for `slot_rates`).
    `total_time_ms` is written with three decimals; any other field by its
    type."""
    out = []
    for name, kind in get_type_hints(cls).items():
        if name in _SLOT_COLUMN:
            pattern, parse, fmt = _SLOT_COLUMN[name]
            out += [(pattern.format(slot), parse, fmt) for slot in sorted(slots)]
        else:
            out.append((name, kind, fmt_ms if name == "total_time_ms" else _FORMAT[kind]))
    return out


def record_columns(slots) -> list[tuple]:
    """The records CSV columns of a run whose lexicon declares `slots`."""
    return columns(TrialRecord, slots)


def _atomic_write(path, text: str) -> None:
    path = Path(path)  # mode "x" creates the file as open(path, "w") would
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(8)}.tmp")
    try:
        with open(tmp, "x") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _table(cls, rows):
    """The column names and formats of `rows`, each a `cls`, and an iterator
    over each row's values under them. The slots are those the first row
    names (every row of a run names the same). The slot dict's index and the
    slots are found once; each row's slot values are spliced in there."""
    at, field = next((i, f.name) for i, f in enumerate(fields(cls)) if f.name in _SLOT_COLUMN)
    slots = sorted(getattr(rows[0], field)) if rows else []
    names, _, formats = zip(*columns(cls, slots))

    def values():
        for row in rows:
            spliced = list(vars(row).values())  # set by __init__ in field order
            spliced[at:at + 1] = [spliced[at][slot] for slot in slots]
            yield spliced

    return names, formats, values()


def _write_csv(cls, rows, path) -> None:
    names, formats, values = _table(cls, rows)
    lines = [",".join(names)]
    lines += [",".join([fmt(v) for fmt, v in zip(formats, row)]) for row in values]
    _atomic_write(path, "\n".join(lines) + "\n")


def write_records_csv(records: list[TrialRecord], path) -> None:
    """One row per record under `record_columns`."""
    _write_csv(TrialRecord, records, path)


def write_summary_csv(rows: list[SummaryRow], path) -> None:
    """One row per sweep point under `columns(SummaryRow, slots)`."""
    _write_csv(SummaryRow, rows, path)


def read_record_rows(path) -> list[dict]:
    """Parse a records CSV back into typed row dicts (schema-checked).

    The header must be `record_columns` of the slots it names, so slot
    columns stand in name order, once each, where `partial_info` stands,
    and no field column is missing. A cell is read only in the form its
    column writes: it must parse, and formatting the parsed value must give
    the cell back, so `"2"` is no flag and `"0.50"` no float. Anything else
    raises ParameterError naming the row (the first record is row 0).
    """
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",") if lines else []
    table = record_columns({name[len("slot_"):] for name in header if name.startswith("slot_")})
    if header != [name for name, _, _ in table]:
        raise ParameterError(f"unexpected records header in {path}")
    rows = []
    for i, line in enumerate(lines[1:]):
        values = line.split(",")
        if len(values) != len(table):
            raise ParameterError(f"malformed records row {i}: {line!r}")
        row = {}
        for (name, parse, fmt), cell in zip(table, values):
            try:
                row[name] = parse(cell)
                written = fmt(row[name]) == cell
            except ValueError:
                written = False
            if not written:
                raise ParameterError(
                    f"row {i}: {name} cell {cell!r} is not in its written form"
                )
        rows.append(row)
    return rows


def _write_json(path, key: str, objs: list[dict]) -> None:
    payload = {"schema_version": JSON_SCHEMA_VERSION, key: objs}
    _atomic_write(path, json.dumps(payload, indent=2) + "\n")


def write_records_json(records: list[TrialRecord], path) -> None:
    """Each record's fields, `partial_info` kept as its per-slot map."""
    _write_json(path, "records", [asdict(r) for r in records])


def write_summary_json(rows: list[SummaryRow], path) -> None:
    """Each row as an object keyed by the summary CSV's column names."""
    names, _, values = _table(SummaryRow, rows)
    _write_json(path, "summary", [dict(zip(names, row)) for row in values])


def build_metadata(normalized_config: dict, defaults_applied: list[str], fmt: str, version: str) -> dict:
    """Everything needed to reproduce the run byte-exactly.

    Deliberately free of timestamps, hostnames and worker counts: none of
    them affect output bytes.
    """
    return {
        "artifact": "totsim",
        "artifact_version": version,
        "csv_schema_version": CSV_SCHEMA_VERSION,
        "stream_version": STREAM_VERSION,
        "records_format": fmt,
        "interval_method": "Wilson score interval, 95% (z = 1.96)",
        "seed": normalized_config["seed"],
        "defaults_applied": list(defaults_applied),
        "config": normalized_config,
    }


def write_metadata(meta: dict, path) -> None:
    _atomic_write(path, json.dumps(meta, indent=2, sort_keys=True) + "\n")
