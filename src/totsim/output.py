"""Deterministic emission of trial records, summaries, and run metadata.

The records CSV schema is fixed and versioned: exact header, booleans as
0/1, times as decimal milliseconds with three fractional digits. Files are
written to a temporary name and renamed, so failures never leave partial
output behind.
"""

from __future__ import annotations

import json
import os
import secrets
from dataclasses import asdict
from operator import attrgetter
from pathlib import Path

from .errors import ParameterError
from .experiment import STREAM_VERSION, SummaryRow, TrialRecord

CSV_SCHEMA_VERSION = 1


def fmt_float(x: float) -> str:
    """Shortest decimal form that round-trips the float exactly."""
    return repr(float(x))


def fmt_ms(x: float) -> str:
    return f"{x:.3f}"


def fmt_flag(x: bool) -> str:
    return "1" if x else "0"


def parse_flag(text: str) -> bool:
    return bool(int(text))


# The records CSV, column by column: (name, parse type, format). A
# `slot_<name>` column reads that slot of `partial_info`; every other column
# is the `TrialRecord` field of its name. The CSV leaves out every slot but
# `first_letter`; the JSON records carry them.
RECORD_COLUMNS = (
    ("trial", int, str),
    ("sweep_q", float, fmt_float),
    ("sweep_d", float, fmt_float),
    ("flip_rate", float, fmt_float),
    ("episode", int, str),
    ("classification", str, str),
    ("sel_completeness", float, fmt_float),
    ("att_sem", int, str),
    ("att_lex", int, str),
    ("att_phon", int, str),
    ("tot_strength", float, fmt_float),
    ("slot_first_letter", parse_flag, fmt_flag),
    ("total_time_ms", float, fmt_ms),
    ("seed_child", str, str),
)
RECORDS_HEADER = ",".join(name for name, _, _ in RECORD_COLUMNS)


def _cell_getter(name: str):
    if name.startswith("slot_"):
        slot = name[len("slot_"):]
        return lambda record: record.partial_info.get(slot, False)
    return attrgetter(name)


_RECORD_CELLS = tuple((_cell_getter(name), fmt) for name, _, fmt in RECORD_COLUMNS)


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


def record_row(record: TrialRecord) -> str:
    return ",".join([fmt(get(record)) for get, fmt in _RECORD_CELLS])


def write_records_csv(records: list[TrialRecord], path) -> None:
    lines = [RECORDS_HEADER]
    lines.extend(record_row(r) for r in records)
    _atomic_write(path, "\n".join(lines) + "\n")


def read_record_rows(path) -> list[dict]:
    """Parse a records CSV back into typed row dicts (schema-checked).

    A cell is read only in the form its column writes: it must parse, and
    formatting the parsed value must give the cell back, so `"2"` is no
    flag and `"0.50"` no float. Anything else raises ParameterError naming
    the row (the first record is row 0).
    """
    text = Path(path).read_text()
    lines = text.splitlines()
    if not lines or lines[0] != RECORDS_HEADER:
        raise ParameterError(f"unexpected records header in {path}")
    rows = []
    for i, line in enumerate(lines[1:]):
        values = line.split(",")
        if len(values) != len(RECORD_COLUMNS):
            raise ParameterError(f"malformed records row {i}: {line!r}")
        row = {}
        for (name, parse, fmt), cell in zip(RECORD_COLUMNS, values):
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
