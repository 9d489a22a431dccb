"""Deterministic emission of trial records, summaries, and run metadata.

The records CSV has one column per `TrialRecord` field, with one flag
column per declared slot in place of `partial_info` (`record_columns`);
`CSV_SCHEMA_VERSION` versions that rule. Booleans are 0/1, times decimal
milliseconds with three fractional digits, other floats shortest
round-trip decimals. Files are written to a temporary name and renamed, so
failures never leave partial output behind.
"""

from __future__ import annotations

import json
import os
import secrets
from dataclasses import asdict
from pathlib import Path
from typing import get_type_hints

from .errors import ParameterError
from .experiment import STREAM_VERSION, SummaryRow, TrialRecord

CSV_SCHEMA_VERSION = 2


def fmt_float(x: float) -> str:
    """Shortest decimal form that round-trips the float exactly."""
    return repr(float(x))


def fmt_ms(x: float) -> str:
    return f"{x:.3f}"


def fmt_flag(x: bool) -> str:
    return "1" if x else "0"


def parse_flag(text: str) -> bool:
    return bool(int(text))


# How a cell of a `TrialRecord` field is written, by the field's type; the
# type itself parses it back.
_FORMAT = {int: str, float: fmt_float, str: str}


def record_columns(slots) -> list[tuple]:
    """The records CSV columns, as (name, parse, format), of a run whose
    lexicon declares `slots`: one per `TrialRecord` field, in field order,
    with `partial_info` expanded in place into one `slot_<name>` flag column
    per slot, in name order. `total_time_ms` is written with three
    decimals; any other field by its type."""
    columns = []
    for name, kind in get_type_hints(TrialRecord).items():
        if name == "partial_info":
            columns += [(f"slot_{slot}", parse_flag, fmt_flag) for slot in sorted(slots)]
        else:
            columns.append((name, kind, fmt_ms if name == "total_time_ms" else _FORMAT[kind]))
    return columns


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


def write_records_csv(records: list[TrialRecord], path) -> None:
    """One row per record under `record_columns`; the slots are those every
    record names."""
    slots = sorted(records[0].partial_info) if records else []
    columns = record_columns(slots)
    formats = [fmt for _, _, fmt in columns]
    at = list(get_type_hints(TrialRecord)).index("partial_info")
    lines = [",".join(name for name, _, _ in columns)]
    for record in records:
        values = list(vars(record).values())  # set by __init__ in field order
        values[at:at + 1] = [values[at][slot] for slot in slots]
        lines.append(",".join([fmt(v) for fmt, v in zip(formats, values)]))
    _atomic_write(path, "\n".join(lines) + "\n")


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
    columns = record_columns({name[len("slot_"):] for name in header if name.startswith("slot_")})
    if header != [name for name, _, _ in columns]:
        raise ParameterError(f"unexpected records header in {path}")
    rows = []
    for i, line in enumerate(lines[1:]):
        values = line.split(",")
        if len(values) != len(columns):
            raise ParameterError(f"malformed records row {i}: {line!r}")
        row = {}
        for (name, parse, fmt), cell in zip(columns, values):
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


def write_records_json(records: list[TrialRecord], path) -> None:
    payload = {
        "schema_version": CSV_SCHEMA_VERSION,
        "records": [asdict(r) for r in records],
    }
    _atomic_write(path, json.dumps(payload, indent=2) + "\n")


def _summary_obj(row: SummaryRow) -> dict:
    """The row's fields, with `slot_rates` flattened into `slot_<name>_rate`."""
    out = asdict(row)
    slot_rates = out.pop("slot_rates")
    for name in sorted(slot_rates):
        out[f"slot_{name}_rate"] = slot_rates[name]
    return out


def write_summary_csv(rows: list[SummaryRow], path) -> None:
    objs = [_summary_obj(r) for r in rows]
    names = list(objs[0]) if objs else []
    lines = [",".join(names)]
    for obj in objs:
        lines.append(
            ",".join(
                str(obj[name]) if isinstance(obj[name], int) else fmt_float(obj[name])
                for name in names
            )
        )
    _atomic_write(path, "\n".join(lines) + "\n")


def write_summary_json(rows: list[SummaryRow], path) -> None:
    payload = {"schema_version": CSV_SCHEMA_VERSION, "summary": [_summary_obj(r) for r in rows]}
    _atomic_write(path, json.dumps(payload, indent=2) + "\n")


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
