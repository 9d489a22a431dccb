"""Scenario execution: sweep grids, per-trial random streams, the
Monte Carlo trial runner, the exact oracle, and summary statistics."""

from __future__ import annotations

import math
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from fractions import Fraction
from operator import attrgetter

import numpy as np
from numpy.random import PCG64DXSM, Generator, SeedSequence, default_rng

from .errors import CapacityError, DimensionError, ParameterError
from .lexicon import COMPONENTS, Lexicon, LexiconSpec, corrupt_metamemory, word_nodes
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
# masked-unit, cue and damage counts are exact floors. 3: trial t of a sweep
# point runs on the point's PCG64DXSM stream jumped t times (see
# `_run_trial_range`), no longer on `default_rng(SeedSequence((seed,
# SEED_TAG_TRIAL, point, t)))`; every other stream is unchanged. 4: every
# k-of-n subset a trial draws, a mask (`ComponentNetwork.apply_mask`) or a
# fixed cue (`recall.recall_component`), is the units of the k smallest of
# n uniform keys in one `rng.random(n)` row (`patterns.key_subset`), no
# longer `rng.choice(n, k, replace=False)`; and `recall.recall_word` masks a
# component just before its attempt loop, so an unreached component draws
# no mask. The lexicon, metamemory and damage streams are unchanged.
STREAM_VERSION = 4

# The step of `PCG64DXSM.jumped`, (phi - 1) * 2^128 for the golden ratio
# phi, as numpy rounds it.
_JUMP = 0x9E3779B97F4A7C15F39CC0605CEDC835

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
    """One cell of the sweep grid, resolved: what its trials run and the
    coordinates its records carry.

    `params` are the recall parameters in effect, `flip_rate` the semantic
    input flip rate and `damage` the damage plan, with a swept d in every
    entry. `sweep_q` and `sweep_d` are the grid values of swept axes. An
    unswept `sweep_q` is the target's phonological cue fraction; an
    unswept `sweep_d` is the fraction of the one damage entry on the
    target's phonological component, or 0 when there is none. `index` keys
    the point's damage and trial streams.
    """

    index: int
    params: RecallParams
    flip_rate: float
    damage: tuple[DamagePlanEntry, ...]
    sweep_q: float
    sweep_d: float


@dataclass(frozen=True)
class TrialRecord:
    """One emitted row: one recall episode of one trial at one sweep point.

    Its fields, in order, are the records CSV's columns, with `partial_info`
    written as one flag column per declared slot (`output.record_columns`).
    """

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
    """Every point of the scenario, resolved once: the Cartesian product of
    the declared grid axes in declaration order, or the one base point when
    nothing is swept. The recall parameters are built once per q value."""
    grid = cfg.sweep or SweepGrid()
    if grid.q is None:
        q_axis = [(cfg.recall, cfg.recall.cue_fraction["phonological"])]
    else:
        q_axis = [
            (replace(cfg.recall, cue_fraction=dict.fromkeys(COMPONENTS, q)), q) for q in grid.q
        ]
    if grid.d is None:
        target = (cfg.target, "phonological")
        d = next((e.fraction for e in cfg.damage if (e.word, e.component) == target), 0.0)
        d_axis = [(cfg.damage, d)]
    else:
        d_axis = [(tuple(replace(entry, fraction=d) for entry in cfg.damage), d) for d in grid.d]
    f_axis = grid.flip_rate if grid.flip_rate is not None else (cfg.semantic_input_flip_rate,)
    points = []
    for params, q in q_axis:
        for damage, d in d_axis:
            for f in f_axis:
                points.append(SweepPoint(len(points), params, f, damage, float(q), float(d)))
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
    return Lexicon(tuple(nodes), cfg.lexicon.selection_threshold, cfg.lexicon.slot_map)


def damaged_lexicon(cfg: ScenarioConfig, lex: Lexicon, point: SweepPoint) -> Lexicon:
    """Apply the point's damage plan `point.damage` to the base lexicon.

    Damage is trait-like: drawn once per sweep point from the stream keyed
    `(seed, SEED_TAG_DAMAGE, point.index)`, entry by entry in (word,
    component) order, and shared by every trial at that point.
    """
    if not point.damage:
        return lex
    rng = default_rng(SeedSequence((cfg.seed, SEED_TAG_DAMAGE, point.index)))
    nodes = {node.id: node for node in lex.nodes}
    for entry in sorted(point.damage, key=lambda e: (e.word, e.component)):
        node = nodes[entry.word]
        protected = [i for name in entry.protected_slots for i in lex.slot_map.slots[name]]
        components = dict(node.components)
        components[entry.component] = components[entry.component].damage(
            entry.fraction, rng, protected=protected
        )
        nodes[entry.word] = replace(node, components=components)
    return replace(lex, nodes=tuple(nodes[node.id] for node in lex.nodes))


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


def _outcome_to_record(
    cfg: ScenarioConfig,
    point: SweepPoint,
    trial: int,
    episode: int,
    outcome: RecallOutcome,
) -> TrialRecord:
    return TrialRecord(
        trial=trial,
        sweep_q=point.sweep_q,
        sweep_d=point.sweep_d,
        flip_rate=point.flip_rate,
        episode=episode,
        classification=outcome.classification.value,
        sel_completeness=outcome.completeness,
        att_sem=outcome.components["semantic"].attempts,
        att_lex=outcome.components["lexical"].attempts,
        att_phon=outcome.components["phonological"].attempts,
        tot_strength=outcome.tot_strength,
        partial_info=outcome.partial_info,
        total_time_ms=outcome.total_time_ms,
        seed_child=f"{cfg.seed}-{point.index}-{trial}",
    )


def run_one_trial(
    cfg: ScenarioConfig, lex: Lexicon, point: SweepPoint, trial: int, rng: Generator
) -> list[TrialRecord]:
    """All episodes of one trial, on `rng`: the trial's own random stream,
    positioned at its start (see `_run_trial_range`).

    The semantic input is drawn once per trial; each episode re-masks and
    re-draws probes. Episode k+1 runs only if episode k did not resolve.
    """
    target = lex.node_by_id(cfg.target)
    semantic_input = flip_by_rate(target.components["semantic"].stored[0], point.flip_rate, rng)
    bonuses = materialize_bonuses(cfg, trial)
    records = []
    for episode in range(1, cfg.episodes_per_trial + 1):
        outcome = recall_word(lex, semantic_input, point.params, rng, bonuses=bonuses)
        records.append(_outcome_to_record(cfg, point, trial, episode, outcome))
        if outcome.classification is Classification.RESOLVED:
            break
    return records


def _run_trial_range(
    cfg: ScenarioConfig, lex: Lexicon, point: SweepPoint, lo: int, hi: int
) -> list[TrialRecord]:
    """Trials `lo` to `hi` of one point, trial t on the point's stream
    jumped t times: `PCG64DXSM(SeedSequence((seed, SEED_TAG_TRIAL,
    point.index))).jumped(t)`, state for state. One reused generator is set
    to the point's start state and advanced by t jumps, which is what
    `jumped(t)` does, without building a bit generator per trial."""
    bit_generator = PCG64DXSM(SeedSequence((cfg.seed, SEED_TAG_TRIAL, point.index)))
    start = bit_generator.state
    rng = Generator(bit_generator)
    records: list[TrialRecord] = []
    for trial in range(lo, hi):
        bit_generator.state = start
        bit_generator.advance(trial * _JUMP % 2**128)
        records.extend(run_one_trial(cfg, lex, point, trial, rng))
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

    Every point's damaged lexicon is built up front. With one worker the
    points run in order in the calling process. When the trials are split
    over workers, one process pool serves the whole run: each worker
    receives the lexicons once, through the pool initializer, and each task
    is one trial range `(cfg, point, lo, hi)`. Records come back in point
    order, then trial order.
    """
    if workers < 1:
        raise ParameterError("workers must be >= 1")
    base = build_scenario_lexicon(cfg)
    points = sweep_points(cfg)
    lexicons = {point.index: damaged_lexicon(cfg, base, point) for point in points}
    records: list[TrialRecord] = []
    if workers == 1 or cfg.n_trials < 2 * workers:
        for point in points:
            records.extend(_run_trial_range(cfg, lexicons[point.index], point, 0, cfg.n_trials))
        return records
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
    """Exact per-attempt success probability: the share of all assignments
    of the non-cue units (cue units clamped to the reference) whose one-pass
    output equals the reference.

    Masked units count 0 on input and output +1, so a reference that is -1
    on a masked unit never succeeds. A network holding one undamaged
    pattern p (`w_int` is outer(p, p)) takes the closed form at any size.
    Any other network is counted with split sums, recomputing the forward
    pass independently of the attempt engine it validates; more than
    `_MAX_FREE_INDICES` free unmasked units raise CapacityError.
    """
    n = net.n
    if len(reference) != n:
        raise DimensionError(f"reference length {len(reference)} != network size {n}")
    cue = {int(i) for i in cue_indices}
    if cue and (min(cue) < 0 or max(cue) >= n):
        raise DimensionError("cue index out of range")
    ref = reference.units
    if any(ref[i] < 0 for i in net.mask):
        return Fraction(0)
    live = [i for i in range(n) if i not in net.mask]
    live_cue = [i for i in live if i in cue]
    free = [i for i in live if i not in cue]
    if len(net.stored) == 1:
        p = net.stored[0].units
        if np.array_equal(net.w_int, np.outer(p, p)):
            k = int(p[live_cue] @ ref[live_cue])
            return _one_pattern_success(p[live], ref[live], k, len(free))
    if len(free) > _MAX_FREE_INDICES:
        raise CapacityError(
            f"{len(free)} enumerated units exceeds the enumeration cap of {_MAX_FREE_INDICES}"
        )
    return Fraction(_split_sum_count(net.w_int, ref, live, live_cue, free), 1 << len(free))


def _one_pattern_success(p: np.ndarray, ref: np.ndarray, k: int, m: int) -> Fraction:
    """P(one pass outputs `ref`) for stored pattern `p`, both over the
    unmasked units. The pass outputs p when s = p . probe > 0, -p when
    s < 0 and all +1 on a tie; s = k + 2B - m, with k the agreement of p
    with the cue, m the free unmasked units and B ~ Bin(m, 1/2)."""
    positive, negative, tie = (
        np.array_equal(ref, p), np.array_equal(ref, -p), bool(np.all(ref == 1))
    )
    hits = 0
    for b in range(m + 1):
        s = k + 2 * b - m
        if (positive if s > 0 else negative if s < 0 else tie):
            hits += math.comb(m, b)
    return Fraction(hits, 1 << m)


def _split_sum_count(w: np.ndarray, ref: np.ndarray, live, cue, free) -> int:
    """How many of the 2^len(free) assignments of the `free` units make
    every `live` output equal `ref`.

    Activation is linear in the probe, so each half of the free units gets
    one table of its activations over the live outputs, and each pair of
    rows, one from each table, is one probe. Multiplying unit i's
    activation by ref_i makes its success test one threshold: >= 0 where
    ref_i = +1 (sgn(0) = +1), >= 1 where -1. The left table, `need`, holds
    that threshold less the cue's fixed contribution and the left half's
    activation: what the right half must add, so a pair succeeds when
    right >= need on every unit. The lowest activation the free units can
    give a unit is minus the sum of its absolute free weights; a unit whose
    need that already meets passes every pair and gets no row, so the
    tables grow with the units the free units can still fail, not with the
    cued ones. No table entry exceeds a row's absolute weight sum plus one
    in magnitude, so the tables take the smallest integer type holding
    that.

    Pairs are counted as bitsets over the right rows, packed 64 to a
    `uint64` word. One unit at a time, the right rows reaching each level
    of its right sums form one bitset per level, nested and so built as a
    suffix OR from the top level down, with an empty set past the top.
    The levels step by 2 from the unit's lowest right sum to its highest
    (its right sums share one parity) where that range holds at most an
    eighth as many levels as the right half has rows, and are its distinct
    sums elsewhere: a wide range of levels costs a bitset each, most of
    them for sums no row has, while finding the distinct sums costs one
    sort of the unit's right row. Each left row takes the bitset of the
    lowest level reaching its need, the index clamped into the unit's
    range, and ANDs it into its running set; the count is the popcount of
    the running sets after the last unit. Only
    one unit's bitsets exist at a time, so besides the tables the count
    holds three word arrays of at most (right rows + 1) x words: about
    2 MiB each at the 24-unit cap (4,096 x 64 words), at any weights.
    """
    sign = ref[live]
    w_live = w[live] * sign[:, None]
    fixed_need = (sign < 0) - w_live[:, cue] @ ref[cue]
    failable = fixed_need > -np.abs(w_live[:, free]).sum(axis=1)
    w_live, fixed_need = w_live[failable], fixed_need[failable]
    h = len(free) // 2

    def table(units):
        # Column b holds the activation with units[j] at +1 where bit j of b
        # is set and at -1 elsewhere; each unit doubles the columns.
        weights = w_live[:, units]
        steps = 2 * weights
        out = np.empty((len(w_live), 1 << len(units)), dtype=np.int64)
        out[:, 0] = -weights.sum(axis=1)
        for j in range(len(units)):
            np.add(out[:, :1 << j], steps[:, j:j + 1], out=out[:, 1 << j:2 << j])
        return out

    bound = int(np.abs(w_live).sum(axis=1).max(initial=0)) + 1
    dtype = np.min_scalar_type(-bound - 1)
    need = (fixed_need[:, None] - table(free[:h])).astype(dtype)
    right = table(free[h:]).astype(dtype)
    n_right = right.shape[1]
    words = -(-n_right // 64)
    rows = np.arange(n_right)
    word_of = rows >> 6
    bit_of = np.uint64(1) << (rows & 63).astype(np.uint64)
    every = np.zeros(words, dtype=np.uint64)
    np.add.at(every, word_of, bit_of)
    ok = np.empty((need.shape[1], words), dtype=np.uint64)
    ok[:] = every
    picked = np.empty_like(ok)
    lows = right.min(axis=1).tolist()
    spans = (right.max(axis=1).astype(np.int64) - lows).tolist()
    for need_unit, right_unit, lo, span in zip(need, right, lows, spans):
        n_levels = span // 2 + 1
        if 8 * n_levels <= n_right:
            level = np.subtract(right_unit, lo, dtype=np.intp) >> 1
            at = np.subtract(need_unit, lo - 1, dtype=np.intp) >> 1
        else:
            levels, level = np.unique(right_unit, return_inverse=True)
            at = np.searchsorted(levels, need_unit)
            n_levels = len(levels)
        sets = np.zeros((n_levels + 1, words), dtype=np.uint64)
        np.add.at(sets.reshape(-1), level * words + word_of, bit_of)
        np.bitwise_or.accumulate(sets[::-1], axis=0, out=sets[::-1])
        np.take(sets, at, axis=0, out=picked, mode="clip")
        ok &= picked
    return int(np.bitwise_count(ok).sum())


_Z95 = 1.96


def _rate_interval(count: int, n: int) -> tuple[float, float, float]:
    """The rate `count / n` and its 95% Wilson score interval, which keeps a
    nonzero width at rates 0 and 1. The bounds are clamped to [0, 1] and
    to the rate, which float rounding could otherwise leave just outside."""
    rate = count / n
    z2n = _Z95 * _Z95 / n
    center = (rate + z2n / 2) / (1 + z2n)
    half = _Z95 / (1 + z2n) * math.sqrt(rate * (1 - rate) / n + z2n / (4 * n))
    return rate, max(0.0, min(rate, center - half)), min(1.0, max(rate, center + half))


def summarize(records: list[TrialRecord], strength_threshold: float = 0.7) -> list[SummaryRow]:
    """Per-sweep-point statistics with 95% Wilson score intervals.

    `strong_tot_share` is the share of TOT records at or above the strength
    threshold; `eventual_resolution_rate` is the fraction of trials whose
    final episode resolved. Every record of a run names the lexicon's
    declared slots (see `recall_word`), so every row has a rate for each.
    """
    if not records:
        raise ParameterError("summarize needs at least one record")
    slot_names = sorted(records[0].partial_info)
    groups: dict[tuple[float, float, float], list[TrialRecord]] = {}
    for record in records:
        groups.setdefault((record.sweep_q, record.sweep_d, record.flip_rate), []).append(record)
    rows = []
    for (q, d, f), recs in groups.items():
        n = len(recs)
        counts = Counter(r.classification for r in recs)
        tot = counts[Classification.TOT.value]
        strong = sum(
            r.classification == Classification.TOT.value
            and is_strong(r.tot_strength, strength_threshold)
            for r in recs
        )
        # Each trial's last-written record, in episode order, is its final one.
        last = {r.trial: r for r in sorted(recs, key=attrgetter("episode"))}
        eventual = sum(r.classification == Classification.RESOLVED.value for r in last.values())
        attempts = [r.att_sem + r.att_lex + r.att_phon for r in recs]
        rows.append(
            SummaryRow(
                q,
                d,
                f,
                n,
                len(last),
                *_rate_interval(counts[Classification.RESOLVED.value], n),
                *_rate_interval(tot, n),
                *_rate_interval(counts[Classification.NO_ACCESS.value], n),
                mean_attempts=float(np.mean(attempts)),
                median_attempts=float(np.median(attempts)),
                mean_time_ms=float(np.mean([r.total_time_ms for r in recs])),
                strong_tot_share=(strong / tot) if tot else 0.0,
                eventual_resolution_rate=eventual / len(last),
                slot_rates={
                    name: sum(r.partial_info[name] for r in recs) / n
                    for name in slot_names
                },
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
        counts_valid = all(0 <= a <= max_attempts for a in atts)
        if not counts_valid:
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
        if not counts_valid:
            continue  # no time can be recomputed from such counts
        expected = sum(chronometry(a, spike_ms, interval_ms) for a in atts)
        if f"{expected:.3f}" != f"{row['total_time_ms']:.3f}":
            bad(i, f"total_time_ms {row['total_time_ms']} != recomputed {expected}")
    return violations
