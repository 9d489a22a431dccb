"""Deterministic emission of trial records, summaries, and run metadata.

The records CSV schema is fixed and versioned: exact header, booleans as
0/1, times as decimal milliseconds with three fractional digits. Files are
written to a temporary name and renamed, so failures never leave partial
output behind.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from .errors import ParameterError
from .experiment import STREAM_VERSION, SummaryRow, TrialRecord

CSV_SCHEMA_VERSION = 1
RECORDS_HEADER = (
    "trial,sweep_q,sweep_d,episode,classification,sel_completeness,"
    "att_sem,att_lex,att_phon,tot_strength,slot_first_letter,total_time_ms,seed_child"
)


def fmt_float(x: float) -> str:
    """Shortest decimal form that round-trips the float exactly."""
    return repr(float(x))


def fmt_ms(x: float) -> str:
    return f"{x:.3f}"


def _atomic_write(path, text: str) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def record_row(record: TrialRecord) -> str:
    return ",".join(
        (
            str(record.trial),
            fmt_float(record.sweep_q),
            fmt_float(record.sweep_d),
            str(record.episode),
            record.classification,
            fmt_float(record.sel_completeness),
            str(record.att_sem),
            str(record.att_lex),
            str(record.att_phon),
            fmt_float(record.tot_strength),
            "1" if record.partial_info.get("first_letter", False) else "0",
            fmt_ms(record.total_time_ms),
            record.seed_child,
        )
    )


def write_records_csv(records: list[TrialRecord], path) -> None:
    lines = [RECORDS_HEADER]
    lines.extend(record_row(r) for r in records)
    _atomic_write(path, "\n".join(lines) + "\n")


def read_record_rows(path) -> list[dict]:
    """Parse a records CSV back into typed row dicts (schema-checked)."""
    text = Path(path).read_text()
    lines = text.splitlines()
    if not lines or lines[0] != RECORDS_HEADER:
        raise ParameterError(f"unexpected records header in {path}")
    names = RECORDS_HEADER.split(",")
    types = {
        "trial": int,
        "sweep_q": float,
        "sweep_d": float,
        "episode": int,
        "classification": str,
        "sel_completeness": float,
        "att_sem": int,
        "att_lex": int,
        "att_phon": int,
        "tot_strength": float,
        "slot_first_letter": lambda v: bool(int(v)),
        "total_time_ms": float,
        "seed_child": str,
    }
    rows = []
    for line in lines[1:]:
        values = line.split(",")
        if len(values) != len(names):
            raise ParameterError(f"malformed records row: {line!r}")
        rows.append({name: types[name](value) for name, value in zip(names, values)})
    return rows


def record_json_obj(record: TrialRecord) -> dict:
    return {
        "trial": record.trial,
        "sweep_q": record.sweep_q,
        "sweep_d": record.sweep_d,
        "flip_rate": record.flip_rate,
        "episode": record.episode,
        "classification": record.classification,
        "sel_completeness": record.sel_completeness,
        "att_sem": record.att_sem,
        "att_lex": record.att_lex,
        "att_phon": record.att_phon,
        "tot_strength": record.tot_strength,
        "partial_info": dict(record.partial_info),
        "total_time_ms": record.total_time_ms,
        "seed_child": record.seed_child,
    }


def write_records_json(records: list[TrialRecord], path) -> None:
    payload = {
        "schema_version": CSV_SCHEMA_VERSION,
        "records": [record_json_obj(r) for r in records],
    }
    _atomic_write(path, json.dumps(payload, indent=2) + "\n")


def _summary_obj(row: SummaryRow) -> dict:
    out = {
        "sweep_q": row.sweep_q,
        "sweep_d": row.sweep_d,
        "flip_rate": row.flip_rate,
        "n_records": row.n_records,
        "n_trials": row.n_trials,
        "resolved_rate": row.resolved_rate,
        "resolved_ci_low": row.resolved_ci_low,
        "resolved_ci_high": row.resolved_ci_high,
        "tot_rate": row.tot_rate,
        "tot_ci_low": row.tot_ci_low,
        "tot_ci_high": row.tot_ci_high,
        "noaccess_rate": row.noaccess_rate,
        "noaccess_ci_low": row.noaccess_ci_low,
        "noaccess_ci_high": row.noaccess_ci_high,
        "mean_attempts": row.mean_attempts,
        "median_attempts": row.median_attempts,
        "mean_time_ms": row.mean_time_ms,
        "strong_tot_share": row.strong_tot_share,
        "eventual_resolution_rate": row.eventual_resolution_rate,
    }
    for name in sorted(row.slot_rates):
        out[f"slot_{name}_rate"] = row.slot_rates[name]
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
        "interval_method": "normal approximation, 95% (rate +/- 1.96 * sqrt(rate * (1 - rate) / n))",
        "seed": normalized_config["seed"],
        "defaults_applied": list(defaults_applied),
        "config": normalized_config,
    }


def write_metadata(meta: dict, path) -> None:
    _atomic_write(path, json.dumps(meta, indent=2, sort_keys=True) + "\n")
