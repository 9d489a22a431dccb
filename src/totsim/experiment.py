"""Scenario execution: sweep grids, keyed per-trial random streams, the
Monte Carlo trial runner, the exact enumeration oracle, and summary
statistics."""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np
from numpy.random import SeedSequence, default_rng

from .errors import CapacityError, ConfigError, DimensionError, ParameterError
from .lexicon import COMPONENTS, Lexicon, LexiconSpec, WordNode, corrupt_metamemory, word_nodes
from .network import ComponentNetwork
from .patterns import BipolarPattern, flip_by_rate
from .recall import Classification, RecallOutcome, RecallParams, chronometry, is_strong, recall_word

# Child-stream key tags under the master seed. Keying streams by purpose and
# index (rather than spawning in program order) keeps every draw independent
# of scheduling and of which features a scenario enables.
SEED_TAG_LEXICON = 0
SEED_TAG_METAMEMORY = 1
SEED_TAG_DAMAGE = 2
SEED_TAG_TRIAL = 3

# Version of how the random streams are consumed. Output bytes are a
# function of the resolved config, the seed and this number. 2: the attempt
# engine draws each component loop as blocks (recall.recall_component) and
# masked-unit, cue and damage counts are exact floors.
STREAM_VERSION = 2

_ENUMERATION_CHUNK = 1 << 16
_MAX_FREE_INDICES = 24


@dataclass(frozen=True)
class DamagePlanEntry:
    """Zero `fraction` of one component's weight pairs, sparing protected slots."""

    word: str
    component: str
    fraction: float
    protected_slots: tuple[str, ...] = ()


@dataclass(frozen=True)
class CorruptionEntry:
    """Flip `flips` units of one component's metamemory reference."""

    word: str
    component: str
    flips: int


@dataclass(frozen=True)
class PrimingEntry:
    """Selection bonus for `word` during the first `decay_trials` trials."""

    word: str
    bonus: float
    decay_trials: int


@dataclass(frozen=True)
class SweepGrid:
    """Optional experiment axes: cue fraction, damage fraction, input flip rate."""

    q: tuple[float, ...] | None = None
    d: tuple[float, ...] | None = None
    flip_rate: tuple[float, ...] | None = None


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete declarative description of one experiment."""

    seed: int
    lexicon: LexiconSpec
    target: str
    recall: RecallParams
    semantic_input_flip_rate: float = 0.0
    damage: tuple[DamagePlanEntry, ...] = ()
    metamemory_corruption: tuple[CorruptionEntry, ...] = ()
    priming: tuple[PrimingEntry, ...] = ()
    episodes_per_trial: int = 1
    n_trials: int = 1000
    sweep: SweepGrid | None = None


@dataclass(frozen=True)
class SweepPoint:
    """One cell of the sweep grid; None coordinates mean 'not swept'."""

    index: int
    q: float | None
    d: float | None
    flip_rate: float | None


@dataclass(frozen=True)
class TrialRecord:
    """One emitted row: one recall episode of one trial at one sweep point."""

    trial: int
    sweep_q: float
    sweep_d: float
    flip_rate: float
    episode: int
    classification: str
    sel_completeness: float
    att_sem: int
    att_lex: int
    att_phon: int
    tot_strength: float
    partial_info: dict[str, bool]
    total_time_ms: float
    seed_child: str


@dataclass(frozen=True)
class SummaryRow:
    """Aggregate statistics for one sweep point."""

    sweep_q: float
    sweep_d: float
    flip_rate: float
    n_records: int
    n_trials: int
    resolved_rate: float
    resolved_ci_low: float
    resolved_ci_high: float
    tot_rate: float
    tot_ci_low: float
    tot_ci_high: float
    noaccess_rate: float
    noaccess_ci_low: float
    noaccess_ci_high: float
    mean_attempts: float
    median_attempts: float
    mean_time_ms: float
    strong_tot_share: float
    eventual_resolution_rate: float
    slot_rates: dict[str, float] = field(default_factory=dict)


def sweep_points(cfg: ScenarioConfig) -> list[SweepPoint]:
    """Cartesian product of the declared grid axes, in declaration order."""
    grid = cfg.sweep or SweepGrid()
    q_axis = grid.q if grid.q is not None else (None,)
    d_axis = grid.d if grid.d is not None else (None,)
    f_axis = grid.flip_rate if grid.flip_rate is not None else (None,)
    points = []
    for q in q_axis:
        for d in d_axis:
            for f in f_axis:
                points.append(SweepPoint(len(points), q, d, f))
    return points


def build_scenario_lexicon(cfg: ScenarioConfig) -> Lexicon:
    """Base lexicon: generated/explicit words plus metamemory corruption.

    Uses dedicated child streams so the same words appear at every sweep
    point and corruption does not shift the generator draws.
    """
    rng = default_rng(SeedSequence((cfg.seed, SEED_TAG_LEXICON)))
    nodes = list(word_nodes(cfg.lexicon, rng))
    if cfg.metamemory_corruption:
        rng = default_rng(SeedSequence((cfg.seed, SEED_TAG_METAMEMORY)))
        row = {node.id: i for i, node in enumerate(nodes)}
        for entry in cfg.metamemory_corruption:
            i = row[entry.word]
            nodes[i] = corrupt_metamemory(nodes[i], entry.component, entry.flips, rng)
    return Lexicon(tuple(nodes), cfg.lexicon.selection_threshold)


def _slot_indices(node: WordNode, slot_names) -> list[int]:
    indices: list[int] = []
    for name in slot_names:
        if name not in node.slot_map.slots:
            raise ConfigError("damage.protected_slots", f"unknown slot {name!r}")
        indices.extend(node.slot_map.slots[name])
    return indices


def damaged_lexicon(cfg: ScenarioConfig, lex: Lexicon, point: SweepPoint) -> Lexicon:
    """Apply the damage plan at one sweep point (d axis overrides fractions).

    Damage is trait-like: drawn once per sweep point from a keyed stream and
    shared by every trial at that point.
    """
    if not cfg.damage:
        return lex
    rng = default_rng(SeedSequence((cfg.seed, SEED_TAG_DAMAGE, point.index)))
    nodes = {node.id: node for node in lex.nodes}
    for entry in sorted(cfg.damage, key=lambda e: (e.word, e.component)):
        node = nodes[entry.word]
        fraction = point.d if point.d is not None else entry.fraction
        protected = _slot_indices(node, entry.protected_slots) if (
            entry.component == "phonological"
        ) else []
        components = dict(node.components)
        components[entry.component] = components[entry.component].damage(
            fraction, rng, protected=protected
        )
        nodes[entry.word] = replace(node, components=components)
    return Lexicon(tuple(nodes[node.id] for node in lex.nodes), lex.selection_threshold)


def effective_params(cfg: ScenarioConfig, point: SweepPoint) -> RecallParams:
    if point.q is None:
        return cfg.recall
    return replace(cfg.recall, cue_fraction={comp: point.q for comp in COMPONENTS})


def effective_flip_rate(cfg: ScenarioConfig, point: SweepPoint) -> float:
    return point.flip_rate if point.flip_rate is not None else cfg.semantic_input_flip_rate


def materialize_bonuses(cfg: ScenarioConfig, trial: int) -> dict[str, float]:
    """Effective priming bonuses for one trial index.

    A priming entry covers the first `decay_trials` trials; materializing
    the mapping up front keeps trials independent of execution order.
    """
    bonuses: dict[str, float] = {}
    for entry in cfg.priming:
        if trial < entry.decay_trials:
            bonuses[entry.word] = bonuses.get(entry.word, 0.0) + entry.bonus
    return bonuses


def _point_coordinates(cfg: ScenarioConfig, point: SweepPoint) -> tuple[float, float]:
    """(sweep_q, sweep_d) for emitted records.

    When an axis is swept the coordinate is the grid value; otherwise it is
    the effective value at the target's phonological component (cue fraction
    resp. planned damage fraction, 0 when undamaged).
    """
    if point.q is not None:
        q = point.q
    else:
        q = cfg.recall.cue_fraction["phonological"]
    if point.d is not None:
        d = point.d
    else:
        d = 0.0
        for entry in cfg.damage:
            if entry.word == cfg.target and entry.component == "phonological":
                d = entry.fraction
    return float(q), float(d)


def _outcome_to_record(
    cfg: ScenarioConfig,
    point: SweepPoint,
    trial: int,
    episode: int,
    outcome: RecallOutcome,
) -> TrialRecord:
    q, d = _point_coordinates(cfg, point)
    return TrialRecord(
        trial=trial,
        sweep_q=q,
        sweep_d=d,
        flip_rate=effective_flip_rate(cfg, point),
        episode=episode,
        classification=outcome.classification.value,
        sel_completeness=outcome.completeness,
        att_sem=outcome.components["semantic"].attempts,
        att_lex=outcome.components["lexical"].attempts,
        att_phon=outcome.components["phonological"].attempts,
        tot_strength=outcome.tot_strength,
        partial_info=dict(outcome.partial_info),
        total_time_ms=outcome.total_time_ms,
        seed_child=f"{cfg.seed}-{point.index}-{trial}",
    )


def run_one_trial(
    cfg: ScenarioConfig, lex: Lexicon, point: SweepPoint, trial: int
) -> list[TrialRecord]:
    """All episodes of one trial, on its own keyed random stream.

    The semantic input is drawn once per trial; each episode re-masks and
    re-draws probes. Episode k+1 runs only if episode k did not resolve.
    """
    rng = default_rng(SeedSequence((cfg.seed, SEED_TAG_TRIAL, point.index, trial)))
    params = effective_params(cfg, point)
    target = lex.node_by_id(cfg.target)
    semantic_input = flip_by_rate(
        target.truth["semantic"], effective_flip_rate(cfg, point), rng
    )
    bonuses = materialize_bonuses(cfg, trial)
    records = []
    for episode in range(1, cfg.episodes_per_trial + 1):
        outcome = recall_word(lex, semantic_input, params, rng, bonuses=bonuses)
        records.append(_outcome_to_record(cfg, point, trial, episode, outcome))
        if outcome.classification is Classification.RESOLVED:
            break
    return records


def _run_trial_range(
    cfg: ScenarioConfig, lex: Lexicon, point: SweepPoint, lo: int, hi: int
) -> list[TrialRecord]:
    records: list[TrialRecord] = []
    for trial in range(lo, hi):
        records.extend(run_one_trial(cfg, lex, point, trial))
    return records


# Each pool worker's damaged lexicon per sweep point index, set once by
# `_init_worker` so that tasks need not carry a lexicon.
_worker_lexicons: dict[int, Lexicon] = {}


def _init_worker(lexicons: dict[int, Lexicon]) -> None:
    global _worker_lexicons
    _worker_lexicons = lexicons


def _run_task(task) -> list[TrialRecord]:
    cfg, point, lo, hi = task
    return _run_trial_range(cfg, _worker_lexicons[point.index], point, lo, hi)


def run_trials(cfg: ScenarioConfig, workers: int = 1) -> list[TrialRecord]:
    """Run the whole scenario; record content is a pure function of the
    config and seed, independent of the worker count.

    When the trials are split over workers, every point's damaged lexicon
    is built up front and one process pool serves the whole run: each
    worker receives the lexicons once, through the pool initializer, and
    each task is one trial range `(cfg, point, lo, hi)`. Records come back
    in point order, then trial order.
    """
    if workers < 1:
        raise ParameterError("workers must be >= 1")
    base = build_scenario_lexicon(cfg)
    points = sweep_points(cfg)
    records: list[TrialRecord] = []
    if workers == 1 or cfg.n_trials < 2 * workers:
        for point in points:
            lex = damaged_lexicon(cfg, base, point)
            records.extend(_run_trial_range(cfg, lex, point, 0, cfg.n_trials))
        return records
    lexicons = {point.index: damaged_lexicon(cfg, base, point) for point in points}
    bounds = np.linspace(0, cfg.n_trials, workers + 1, dtype=int).tolist()
    tasks = [
        (cfg, point, lo, hi)
        for point in points
        for lo, hi in zip(bounds[:-1], bounds[1:])
        if hi > lo
    ]
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_init_worker, initargs=(lexicons,)
    ) as pool:
        for chunk in pool.map(_run_task, tasks):
            records.extend(chunk)
    return records


def exact_success_prob(
    net: ComponentNetwork, reference: BipolarPattern, cue_indices
) -> Fraction:
    """Exact per-attempt success probability by exhaustive enumeration.

    Enumerates every assignment of the non-cue probe units (cue units are
    clamped to the reference) and counts assignments whose one-pass output
    equals the reference exactly. The forward pass is recomputed here, in
    vectorized integer arithmetic, independently of the attempt-loop code
    it validates.
    """
    n = net.n
    if len(reference) != n:
        raise DimensionError(f"reference length {len(reference)} != network size {n}")
    cue = sorted(int(i) for i in set(cue_indices))
    if cue and (cue[0] < 0 or cue[-1] >= n):
        raise DimensionError("cue index out of range")
    free = [i for i in range(n) if i not in set(cue)]
    n_free = len(free)
    if n_free > _MAX_FREE_INDICES:
        raise CapacityError(
            f"{n_free} free indices exceeds the enumeration cap of {_MAX_FREE_INDICES}"
        )
    base = np.zeros(n, dtype=np.int64)
    if cue:
        base[cue] = reference.units[cue]
    mask = np.array(sorted(net.mask), dtype=np.int64)
    ref = reference.units
    free_arr = np.array(free, dtype=np.int64)
    total = 1 << n_free
    successes = 0
    for lo in range(0, total, _ENUMERATION_CHUNK):
        hi = min(lo + _ENUMERATION_CHUNK, total)
        codes = np.arange(lo, hi, dtype=np.int64)
        probes = np.tile(base, (hi - lo, 1))
        if n_free:
            bits = (codes[:, None] >> np.arange(n_free, dtype=np.int64)) & 1
            probes[:, free_arr] = 2 * bits - 1
        if mask.size:
            probes[:, mask] = 0
        activation = probes @ net.w_int.T
        outputs = np.where(activation >= 0, 1, -1)
        if mask.size:
            outputs[:, mask] = 1
        successes += int(np.sum(np.all(outputs == ref, axis=1)))
    return Fraction(successes, total)


def mean_success_prob_under_damage(
    net: ComponentNetwork,
    reference: BipolarPattern,
    cue_indices,
    fraction: float,
    draws: int,
    seed: int,
    protected=(),
) -> Fraction:
    """Exact mean per-attempt success probability over independent damage draws."""
    if draws < 1:
        raise ParameterError("draws must be >= 1")
    total = Fraction(0)
    for k in range(draws):
        rng = default_rng(SeedSequence((seed, k)))
        damaged = net.damage(fraction, rng, protected=protected)
        total += exact_success_prob(damaged, reference, cue_indices)
    return total / draws


def _rate_interval(count: int, n: int) -> tuple[float, float, float]:
    rate = count / n
    half = 1.96 * math.sqrt(rate * (1.0 - rate) / n)
    return rate, max(0.0, rate - half), min(1.0, rate + half)


def summarize(records: list[TrialRecord], strength_threshold: float = 0.7) -> list[SummaryRow]:
    """Per-sweep-point statistics with 95% normal-approximation intervals.

    `strong_tot_share` is the share of TOT records at or above the strength
    threshold; `eventual_resolution_rate` is the fraction of trials whose
    final episode resolved.
    """
    if not records:
        raise ParameterError("summarize needs at least one record")
    groups: dict[tuple[float, float, float], list[TrialRecord]] = {}
    for record in records:
        groups.setdefault((record.sweep_q, record.sweep_d, record.flip_rate), []).append(record)
    rows = []
    for (q, d, f), recs in groups.items():
        n = len(recs)
        resolved = sum(r.classification == Classification.RESOLVED.value for r in recs)
        tot = sum(r.classification == Classification.TOT.value for r in recs)
        noaccess = sum(r.classification == Classification.NO_ACCESS.value for r in recs)
        attempts = [r.att_sem + r.att_lex + r.att_phon for r in recs]
        res_rate, res_lo, res_hi = _rate_interval(resolved, n)
        tot_rate, tot_lo, tot_hi = _rate_interval(tot, n)
        na_rate, na_lo, na_hi = _rate_interval(noaccess, n)
        strong = sum(
            r.classification == Classification.TOT.value
            and is_strong(r.tot_strength, strength_threshold)
            for r in recs
        )
        last_by_trial: dict[int, TrialRecord] = {}
        for r in recs:
            prev = last_by_trial.get(r.trial)
            if prev is None or r.episode > prev.episode:
                last_by_trial[r.trial] = r
        eventual = sum(
            r.classification == Classification.RESOLVED.value
            for r in last_by_trial.values()
        )
        slot_names = sorted({name for r in recs for name in r.partial_info})
        slot_rates = {
            name: sum(r.partial_info.get(name, False) for r in recs) / n
            for name in slot_names
        }
        rows.append(
            SummaryRow(
                sweep_q=q,
                sweep_d=d,
                flip_rate=f,
                n_records=n,
                n_trials=len(last_by_trial),
                resolved_rate=res_rate,
                resolved_ci_low=res_lo,
                resolved_ci_high=res_hi,
                tot_rate=tot_rate,
                tot_ci_low=tot_lo,
                tot_ci_high=tot_hi,
                noaccess_rate=na_rate,
                noaccess_ci_low=na_lo,
                noaccess_ci_high=na_hi,
                mean_attempts=float(np.mean(attempts)),
                median_attempts=float(np.median(attempts)),
                mean_time_ms=float(np.mean([r.total_time_ms for r in recs])),
                strong_tot_share=(strong / tot) if tot else 0.0,
                eventual_resolution_rate=eventual / len(last_by_trial),
                slot_rates=slot_rates,
            )
        )
    return rows


def validate_record_rows(
    rows: list[dict], *, max_attempts: int, spike_ms: float, interval_ms: float
) -> list[str]:
    """Invariant check over emitted rows (in-memory or read back from CSV).

    Returns human-readable violation strings; an empty list means every row
    satisfies the classification partition, the cascade shape, and the
    chronometry bookkeeping.
    """
    violations = []
    valid = {c.value for c in Classification}

    def bad(i, msg):
        violations.append(f"row {i}: {msg}")

    for i, row in enumerate(rows):
        cls = row["classification"]
        atts = (row["att_sem"], row["att_lex"], row["att_phon"])
        if cls not in valid:
            bad(i, f"unknown classification {cls!r}")
            continue
        if not 0.0 <= row["tot_strength"] <= 1.0:
            bad(i, f"tot_strength {row['tot_strength']} outside [0, 1]")
        if not 0.0 <= row["sel_completeness"] <= 1.0:
            bad(i, f"sel_completeness {row['sel_completeness']} outside [0, 1]")
        if any(a < 0 or a > max_attempts for a in atts):
            bad(i, f"attempt counts {atts} outside [0, {max_attempts}]")
        if atts[1] > 0 and atts[0] == 0:
            bad(i, "lexical attempted before semantic")
        if atts[2] > 0 and atts[1] == 0:
            bad(i, "phonological attempted before lexical")
        if cls == Classification.NO_ACCESS.value:
            if atts != (0, 0, 0) or row["total_time_ms"] != 0.0 or row["tot_strength"] != 0.0:
                bad(i, "NoAccess row must have zero attempts, time and strength")
        if cls == Classification.RESOLVED.value:
            if any(a < 1 for a in atts):
                bad(i, "Resolved row must show attempts on all components")
            if row["tot_strength"] != 1.0:
                bad(i, "Resolved row must have tot_strength 1")
        if cls == Classification.TOT.value:
            if atts[0] == 0:
                bad(i, "TOT row must have attempted the semantic component")
            if atts[2] not in (0, max_attempts):
                bad(i, f"TOT phonological attempts {atts[2]} not 0 or max")
        expected = sum(chronometry(a, spike_ms, interval_ms) for a in atts)
        if f"{expected:.3f}" != f"{row['total_time_ms']:.3f}":
            bad(i, f"total_time_ms {row['total_time_ms']} != recomputed {expected}")
    return violations
