"""The benchmark's workloads: inputs made from the seed, the timed set-up,
one timed pass, and the correctness gates every pass must clear.

Every call into totsim goes through a module or class attribute looked up at
call time, so the wrappers that `PATCHES` installs see it.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from numpy.random import SeedSequence, default_rng

from totsim import cli, config, experiment, lexicon, network, output, patterns, recall
from totsim.errors import TotsimError
from totsim.lexicon import Lexicon
from totsim.network import ComponentNetwork

ROOT = Path(__file__).resolve().parent.parent

# (owner, attribute, span name[, counters]): each wrapper replaces the name
# where its caller looks it up, so nothing under src/ changes.
PATCHES = [
    (cli, "parse_config", "config.parse_config"),
    (config, "parse_config", "config.parse_config"),
    (cli, "run_trials", "experiment.run_trials"),
    (cli, "summarize", "experiment.summarize"),
    (cli, "write_records_csv", "output.write_records_csv"),
    (cli, "write_summary_csv", "output.write_summary_csv"),
    (cli, "write_metadata", "output.write_metadata"),
    (experiment, "build_scenario_lexicon", "experiment.build_scenario_lexicon"),
    (experiment, "damaged_lexicon", "experiment.damaged_lexicon"),
    (experiment, "run_one_trial", "experiment.run_one_trial"),
    (experiment, "flip_by_rate", "patterns.flip_by_rate"),
    (experiment, "recall_word", "recall.recall_word"),
    (experiment, "exact_success_prob", "experiment.exact_success_prob"),
    (Lexicon, "select_node", "lexicon.select_node"),
    (lexicon, "overlap", "patterns.overlap"),
    (
        recall,
        "recall_component",
        "recall.recall_component",
        {"attempts": lambda o: o.attempts, "resolved": lambda o: int(o.resolved)},
    ),
    (recall, "generate_probe", "recall.generate_probe"),
    (recall, "overlap", "patterns.overlap"),
    (recall, "compare", "recall.compare"),
    (recall, "slot_match", "patterns.slot_match"),
    (ComponentNetwork, "retrieve_once", "network.retrieve_once"),
    (ComponentNetwork, "apply_mask", "network.apply_mask"),
    (ComponentNetwork, "damage", "network.damage"),
]
SPAN_NAMES = frozenset(patch[2] for patch in PATCHES)
RUN_TRIALS_PATCH = [p for p in PATCHES if p[2] == "experiment.run_trials"]

_SIMULATE_SPANS = (
    "config.parse_config",
    "experiment.build_scenario_lexicon",
    "experiment.run_trials",
    "experiment.damaged_lexicon",
    "experiment.run_one_trial",
    "patterns.flip_by_rate",
    "recall.recall_word",
    "lexicon.select_node",
    "patterns.overlap",
    "recall.recall_component",
    "recall.generate_probe",
    "network.retrieve_once",
    "recall.compare",
    "patterns.slot_match",
    "experiment.summarize",
    "output.write_records_csv",
    "output.write_summary_csv",
    "output.write_metadata",
)


@dataclass
class Check:
    """What one pass produced and what was wrong with it."""

    ops: int  # records expected, or oracle queries asked
    failed: int
    work: int  # retrieval attempts, or probe assignments enumerated
    problems: list[str] = field(default_factory=list)


def bundle_digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        h.update(f"{path.name}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


class SimulateWorkload:
    """One `totsim simulate --format csv` call on a seeded config."""

    def __init__(self, name, make_config, tiny, workers, extra_check=None, spans=()):
        self.name = name
        self._make_config = make_config
        self._tiny = tiny
        self.workers = workers
        self._extra_check = extra_check
        self.required_spans = _SIMULATE_SPANS + tuple(spans)

    def prepare(self, seed: int, work_dir: Path, tiny: bool = False) -> Path:
        """Write the seeded config; the seed overrides the config seed as
        `totsim simulate --seed` does."""
        raw = self._make_config()
        if tiny:
            raw.update(self._tiny)
        raw["seed"] = seed
        path = work_dir / "config.json"
        path.write_text(json.dumps(raw, indent=2))
        return path

    def setup(self, config_path: Path):
        """Parse the config and build the scenario lexicon (what `setup_s` times)."""
        raw = config.load_raw_config(config_path)
        cfg, _ = config.parse_config(raw)
        return cfg, experiment.build_scenario_lexicon(cfg)

    def run_pass(self, config_path: Path, state, out_dir: Path, workers: int) -> int:
        argv = ["simulate", "--config", str(config_path), "--out", str(out_dir),
                "--workers", str(workers), "--format", "csv"]
        return cli.main(argv)

    def check(self, state, out_dir: Path) -> Check:
        cfg, lex = state
        if cfg.episodes_per_trial != 1:
            raise ValueError("the record count is only fixed at one episode per trial")
        points = len(experiment.sweep_points(cfg))
        expected = cfg.n_trials * points
        try:
            rows = output.read_record_rows(out_dir / "records.csv")
            summary_rows = len((out_dir / "summary.csv").read_text().splitlines()) - 1
        except (OSError, ValueError, TotsimError) as exc:
            return Check(expected, expected, 0, [f"bundle unreadable: {exc}"])
        violations = experiment.validate_record_rows(
            rows,
            max_attempts=cfg.recall.max_attempts,
            spike_ms=cfg.recall.spike_ms,
            interval_ms=cfg.recall.interval_ms,
        )
        bad_rows = {v.split(":", 1)[0] for v in violations}
        problems = violations[:5]
        if len(rows) != expected:
            problems.append(f"{len(rows)} records, expected {expected}")
        if summary_rows != points:
            problems.append(f"{summary_rows} summary rows, expected {points}")
        wrong = 0
        if self._extra_check is not None and rows:
            wrong, extra = self._extra_check(cfg, lex, rows)
            problems.extend(extra)
        failed = min(expected, len(bad_rows) + wrong + max(0, expected - len(rows)))
        work = sum(r["att_sem"] + r["att_lex"] + r["att_phon"] for r in rows)
        return Check(expected, failed, work, problems)


def _shipped(name: str):
    return lambda: json.loads((ROOT / "configs" / name).read_text())


def _first_attempt_law(cfg, lex, rows) -> tuple[int, list[str]]:
    """The semantic first-attempt share agrees with the exact per-attempt
    success probability within five binomial standard errors. This is a
    property of all records together, so no single record counts as wrong."""
    node = lex.node_by_id(cfg.target)
    p = experiment.exact_success_prob(
        node.components["semantic"], node.metamemory_ref["semantic"], ()
    )
    share = sum(r["att_sem"] == 1 for r in rows) / len(rows)
    tolerance = 5 * math.sqrt(float(p * (1 - p)) / len(rows))
    if abs(share - float(p)) > tolerance:
        return 0, [f"semantic first-attempt share {share} is not within {tolerance} of {p}"]
    return 0, []


def _never_resolves(cfg, lex, rows) -> tuple[int, list[str]]:
    """A corrupted phonological reference never matches, so every record is a
    TOT that used all phonological attempts; any other record is wrong."""
    full = cfg.recall.max_attempts
    wrong = sum(r["classification"] != "TOT" or r["att_phon"] != full for r in rows)
    problems = [f"{wrong} records are not TOTs that ran all {full} phonological attempts"]
    return wrong, problems if wrong else []


def _generated_lexicon(count: int) -> dict:
    return {
        "generator": {
            "count": count,
            "lengths": {"semantic": 15, "lexical": 15, "phonological": 15},
            "min_pairwise_distance": 3,
        }
    }


def _lexicon_sweep_config() -> dict:
    return {
        "lexicon": _generated_lexicon(300),
        "target": "w0",
        "recall": {"cue_fraction": 0.6, "max_attempts": 4},
        "n_trials": 600,
        "sweep": {"flip_rate": [0.0, 0.1, 0.2, 0.3]},
    }


@dataclass(frozen=True)
class Query:
    label: str
    net: ComponentNetwork
    reference: patterns.BipolarPattern
    cue: tuple[int, ...]


def closed_form_success(net: ComponentNetwork, reference, cue) -> Fraction:
    """Exact per-attempt success of an undamaged one-pattern network.

    With stored pattern p the one-pass output is p where s = p . x > 0,
    -p where s < 0 and all +1 on a tie; masked inputs count 0 and masked
    outputs are +1. Cue units are clamped to the reference, so
    s = k + 2B - m with k the cue's agreement, m the free unmasked units and
    B ~ Bin(m, 1/2).
    """
    p = net.stored[0].units.tolist()
    r = reference.units.tolist()
    cue, mask = set(cue), net.mask
    live = [i for i in range(len(p)) if i not in mask]
    k = sum(p[i] * r[i] for i in live if i in cue)
    m = sum(1 for i in live if i not in cue)
    masked_ok = all(r[i] == 1 for i in mask)
    pos_ok = masked_ok and all(r[i] == p[i] for i in live)
    neg_ok = masked_ok and all(r[i] == -p[i] for i in live)
    tie_ok = all(v == 1 for v in r)
    hits = 0
    for b in range(m + 1):
        s = k + 2 * b - m
        if (s > 0 and pos_ok) or (s < 0 and neg_ok) or (s == 0 and tie_ok):
            hits += math.comb(m, b)
    return Fraction(hits, 2**m)


class OracleWorkload:
    """`exact_success_prob` on four networks drawn from the seed."""

    name = "oracle_enum"
    workers = 1
    required_spans = ("experiment.exact_success_prob", "network.apply_mask", "network.damage")

    def prepare(self, seed: int, work_dir: Path, tiny: bool = False):
        return seed, (10 if tiny else 20)

    def setup(self, inputs) -> list[Query]:
        """Train the networks, then mask one and damage another (what `setup_s` times)."""
        seed, n = inputs
        rng = default_rng(SeedSequence((seed, 0)))
        free = patterns.random_pattern(n, rng)
        cued = patterns.random_pattern(n + 2, rng)
        masked = patterns.random_pattern(n, rng)
        damaged = patterns.random_pattern(n, rng)
        cue = tuple(sorted(int(i) for i in rng.choice(n + 2, size=2, replace=False)))
        mask_net = network.train([masked]).apply_mask(0.25, rng)
        # The masked network can only ever output +1 on masked units.
        mask_ref = patterns.BipolarPattern(
            [1 if i in mask_net.mask else u for i, u in enumerate(masked.units.tolist())]
        )
        return [
            Query("free", network.train([free]), free, ()),
            Query("cue2", network.train([cued]), cued, cue),
            Query("mask", mask_net, mask_ref, ()),
            Query("damaged", network.train([damaged]).damage(0.3, rng), damaged, ()),
        ]

    def run_pass(self, inputs, queries: list[Query], out_dir: Path, workers: int) -> int:
        lines = []
        for q in queries:
            prob = experiment.exact_success_prob(q.net, q.reference, q.cue)
            lines.append(f"{q.label} {prob.numerator}/{prob.denominator}\n")
        (out_dir / "oracle.txt").write_text("".join(lines))
        return 0

    def check(self, queries: list[Query], out_dir: Path) -> Check:
        probes = sum(2 ** (q.net.n - len(q.cue)) for q in queries)
        try:
            lines = (out_dir / "oracle.txt").read_text().splitlines()
        except OSError as exc:
            return Check(len(queries), len(queries), 0, [f"oracle results unreadable: {exc}"])
        results = dict(line.split(" ", 1) for line in lines)
        problems = []
        for q in queries:
            if q.label not in results:
                problems.append(f"{q.label}: no result")
                continue
            got = Fraction(results[q.label])
            if q.net.damage_fraction:
                # No closed form under damage: enumeration is the reference.
                if not 0 <= got <= 1:
                    problems.append(f"{q.label}: {got} is not a probability")
            elif got != (want := closed_form_success(q.net, q.reference, q.cue)):
                problems.append(f"{q.label}: oracle gave {got}, closed form gives {want}")
        return Check(len(queries), len(problems), probes, problems)


WORKLOADS = {
    w.name: w
    for w in (
        SimulateWorkload(
            "illusory_long",
            _shipped("illusory_tot.json"),
            {"n_trials": 20},
            workers=1,
            extra_check=_never_resolves,
        ),
        SimulateWorkload(
            "free_recall_short",
            _shipped("free_recall.json"),
            {"n_trials": 200},
            workers=1,
            extra_check=_first_attempt_law,
        ),
        SimulateWorkload(
            "lexicon_sweep_w2",
            _lexicon_sweep_config,
            {"n_trials": 8, "lexicon": _generated_lexicon(30)},
            workers=2,
            spans=("network.apply_mask",),
        ),
        OracleWorkload(),
    )
}
