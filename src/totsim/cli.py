"""Command-line entry point: scenario execution, oracle queries, and config
validation with deterministic file output.

Exit codes: 0 success, 2 config validation failure or oracle capacity
exceeded, 1 runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .config import load_raw_config, normalized_dict, parse_config
from .errors import CapacityError, ConfigError, TotsimError
from .experiment import (
    build_scenario_lexicon,
    damaged_lexicon,
    exact_success_prob,
    run_trials,
    summarize,
    sweep_points,
)
from .lexicon import COMPONENTS
from .output import (
    build_metadata,
    write_metadata,
    write_records_csv,
    write_records_json,
    write_summary_csv,
    write_summary_json,
)


def _cmd_simulate(args) -> int:
    raw = load_raw_config(args.config)
    if args.seed is not None:
        raw["seed"] = args.seed
    cfg, defaults = parse_config(raw)
    if args.workers < 1:
        raise ConfigError("workers", "must be >= 1")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    records = run_trials(cfg, workers=args.workers)
    summary = summarize(records, cfg.recall.strength_threshold)
    if args.format == "csv":
        write_records_csv(records, out_dir / "records.csv")
        write_summary_csv(summary, out_dir / "summary.csv")
    else:
        write_records_json(records, out_dir / "records.json")
        write_summary_json(summary, out_dir / "summary.json")
    meta = build_metadata(normalized_dict(cfg), defaults, args.format, __version__)
    write_metadata(meta, out_dir / "run_meta.json")
    return 0


def _cmd_oracle(args) -> int:
    raw = load_raw_config(args.config)
    cfg, _ = parse_config(raw)
    if args.component not in COMPONENTS:
        raise ConfigError("component", f"must be one of {COMPONENTS}, got {args.component!r}")
    if not cfg.lexicon.has_word(args.word):
        raise ConfigError("word", f"unknown word id {args.word!r}")
    n = cfg.lexicon.lengths[args.component]
    if not 0 <= args.cue_size <= n:
        raise ConfigError("cue-size", f"must be in [0, {n}], got {args.cue_size}")
    # The oracle evaluates the unswept base point: the damage plan at its
    # declared fractions, cue = the lowest cue_size unit indices.
    base_point = sweep_points(replace(cfg, sweep=None))[0]
    lex = damaged_lexicon(cfg, build_scenario_lexicon(cfg), base_point)
    node = lex.node_by_id(args.word)
    net = node.components[args.component]
    prob = exact_success_prob(
        net, node.metamemory_ref[args.component], range(args.cue_size)
    )
    decimal = repr(float(prob))
    if decimal.endswith(".0"):
        decimal = decimal[:-2]
    print(f"{prob.numerator}/{prob.denominator} = {decimal}")
    return 0


def _cmd_validate(args) -> int:
    raw = load_raw_config(args.config)
    cfg, _ = parse_config(raw)
    print(json.dumps(normalized_dict(cfg), indent=2, sort_keys=True))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="totsim",
        description="Deterministic simulator of tip-of-the-tongue word retrieval.",
    )
    parser.add_argument("--version", action="version", version=f"totsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a scenario and write records/summary/metadata")
    sim.add_argument("--config", required=True, help="scenario JSON file")
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--seed", type=int, default=None, help="override the config seed")
    sim.add_argument("--workers", type=int, default=1, help="trial fan-out (never affects output bytes)")
    sim.add_argument("--format", choices=("csv", "json"), default="csv")
    sim.set_defaults(func=_cmd_simulate)

    orc = sub.add_parser("oracle", help="exact per-attempt success probability")
    orc.add_argument("--config", required=True)
    orc.add_argument("--word", required=True)
    orc.add_argument("--component", required=True)
    orc.add_argument("--cue-size", type=int, required=True)
    orc.set_defaults(func=_cmd_oracle)

    val = sub.add_parser("validate", help="validate a config and echo it with defaults resolved")
    val.add_argument("--config", required=True)
    val.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TotsimError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
