"""The retrieval stages: cued/free probe generation, one-pass attempt loops,
the metamemory comparator stop rule, the component cascade, outcome
classification, and attempt-based chronometry."""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from numbers import Integral

import numpy as np

from .errors import DimensionError, ParameterError
from .lexicon import COMPONENTS, NO_BONUSES, Lexicon
from .network import ComponentNetwork
from .patterns import BipolarPattern, exact_fraction, floor_count, key_subset, overlap, slot_match

# Most attempts one block holds, so the engine's memory stays bounded at any
# max_attempts. Part of the random-stream layout (experiment.STREAM_VERSION).
_ATTEMPT_CHUNK = 256
# Rows of each drawn chunk evaluated before the rest of it, so a loop that
# stops within its first attempts evaluates few rows. Decides evaluation
# only, not draws: no part of the stream layout.
_HEAD = 4
# Chunk size in units (rows * N) above which a chunk is evaluated head first.
# A second pass costs a loop that runs on past the head a fixed amount, while
# what the head saves a loop that stops within it grows with the units it
# skips; at 320 units the saving is a third of that cost (BENCH_17.json), so
# above it the head pays once 3 loops in 4 stop within it. Decides
# evaluation only.
_HEAD_BREAK_EVEN = 320


class Classification(str, Enum):
    RESOLVED = "Resolved"
    TOT = "TOT"
    NO_ACCESS = "NoAccess"


@dataclass(frozen=True)
class RecallParams:
    """Knobs of the retrieval loop.

    `cue_fraction` gives the per-component fraction of probe units clamped
    to the metamemory reference (0 = free recall). `link_gain` is the cue
    bonus a component receives when the previous component in the cascade
    resolved. Chronometry: each attempt costs `spike_ms`, successive
    attempts are separated by `interval_ms`. `strength_threshold` labels a
    TOT strong. With `fixed_cue_per_episode` the cue indices are drawn once
    per component per episode instead of per attempt.

    The derived `cue` (not a field, so `==`, `asdict` and `replace` see the
    declaration only) maps each component to its exact cue fraction: q for
    the first, min(1, q + link_gain) for each later one, which follows a
    resolved component (see `exact_fraction`: 0.5 + 0.2 is exactly 7/10).
    `cue_sizes` turns it into cue unit counts for given component lengths.
    """

    cue_fraction: dict[str, float]
    max_attempts: int = 64
    link_gain: float = 0.0
    spike_ms: float = 1.0
    interval_ms: float = 10.0
    strength_threshold: float = 0.7
    fixed_cue_per_episode: bool = False

    def __post_init__(self):
        if tuple(sorted(self.cue_fraction)) != tuple(sorted(COMPONENTS)):
            raise ParameterError(f"cue_fraction must cover exactly {COMPONENTS}")
        for comp, q in self.cue_fraction.items():
            if not 0.0 <= q <= 1.0:
                raise ParameterError(f"cue fraction for {comp} must be in [0, 1], got {q}")
        if not isinstance(self.max_attempts, Integral) or self.max_attempts < 1:
            raise ParameterError(f"max_attempts must be an integer >= 1, got {self.max_attempts}")
        if not 0.0 <= self.link_gain <= 1.0:
            raise ParameterError(f"link gain must be in [0, 1], got {self.link_gain}")
        if not 0 < self.spike_ms < math.inf:
            raise ParameterError(f"spike_ms must be finite and > 0, got {self.spike_ms}")
        if not 0 <= self.interval_ms < math.inf:
            raise ParameterError(f"interval_ms must be finite and >= 0, got {self.interval_ms}")
        if not 0.0 < self.strength_threshold < 1.0:
            raise ParameterError(
                f"strength threshold must be in (0, 1), got {self.strength_threshold}"
            )
        gain = exact_fraction(self.link_gain)
        cue = {comp: exact_fraction(self.cue_fraction[comp]) for comp in COMPONENTS}
        for comp in COMPONENTS[1:]:
            cue[comp] = min(Fraction(1), cue[comp] + gain)
        object.__setattr__(self, "cue", cue)
        object.__setattr__(self, "_cue_sizes", {})

    def cue_sizes(self, lengths: tuple[int, ...]) -> tuple[int, ...]:
        """Each component's cue unit count floor(cue * n) (see
        `floor_count`), in `COMPONENTS` order, for the component lengths
        `lengths` in that order. Derived once per lengths and kept, so the
        trials of a sweep point, which share their parameters and lexicon,
        derive them once."""
        if lengths not in self._cue_sizes:
            sizes = tuple(floor_count(self.cue[c], n) for c, n in zip(COMPONENTS, lengths))
            self._cue_sizes[lengths] = sizes
        return self._cue_sizes[lengths]


@dataclass(frozen=True)
class ComponentOutcome:
    """Trace of one component's attempt loop.

    `best_overlap_frac` is the maximum over attempts of
    overlap(output, reference) / N and equals 1 iff some attempt matched
    exactly; `best_output` is the read-only unit row of the output that
    achieved it (None if the component was never attempted). Outcomes
    compare by `resolved`, `attempts` and `best_overlap_frac`.
    """

    resolved: bool
    attempts: int
    best_overlap_frac: float
    best_output: np.ndarray | None = field(default=None, compare=False)


# Outcome of a component the cascade never reached.
SKIPPED = ComponentOutcome(False, 0, 0.0)


@dataclass(frozen=True)
class RecallOutcome:
    """Full trace of one recall episode: NoAccess when no word was selected."""

    completeness: float
    components: dict[str, ComponentOutcome]
    classification: Classification
    tot_strength: float
    partial_info: dict[str, bool]
    total_time_ms: float


def chronometry(attempts: int, spike_ms: float, interval_ms: float) -> float:
    """Retrieval time: attempts * spike_ms + (attempts - 1) * interval_ms.

    Zero attempts take zero time. Affine in the attempt count with slope
    spike_ms + interval_ms.
    """
    if attempts < 0:
        raise ParameterError("attempts must be >= 0")
    if spike_ms < 0 or interval_ms < 0:
        raise ParameterError("chronometry durations must be >= 0")
    if attempts == 0:
        return 0.0
    return attempts * spike_ms + (attempts - 1) * interval_ms


def generate_probe(ref_units: np.ndarray, cue_indices, uniforms: np.ndarray) -> np.ndarray:
    """A `(rows, n)` block of retrieval probes from a `(rows, n)` block of
    uniforms: unit j of a row is +1 where its uniform is below 1/2 and -1
    elsewhere, with the cue units clamped to the reference units
    `ref_units`.

    `cue_indices` is either one sequence of unit indices, clamped in every
    row, or a `(rows, k)` integer array giving each row its own cue. No cue
    given as `range(0)` returns the random units as drawn, without an index
    check. A pure function: the caller draws the uniforms, so the probes of
    any rows of a block are those rows of the whole block's probes.
    """
    probes = np.where(uniforms < 0.5, 1, -1)
    if type(cue_indices) is range and not cue_indices:
        return probes
    idx = np.asarray(cue_indices, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= len(ref_units)):
        raise DimensionError("cue index out of range")
    # One clamp for both shapes: a list of k indices broadcasts over the rows
    # as a `(rows, k)` block does.
    probes[np.arange(len(probes))[:, None], idx] = ref_units[idx]
    return probes


def compare(output: np.ndarray, reference: np.ndarray):
    """Comparator stage: exact unit-wise equality over the last axis, so
    one bool for one output row and one per row for a `(rows, n)` block."""
    if output.shape[-1] != reference.shape[-1]:
        raise DimensionError(f"length mismatch: {output.shape[-1]} vs {reference.shape[-1]}")
    return np.logical_and.reduce(output == reference, axis=-1)


def recall_component(
    net: ComponentNetwork,
    reference: BipolarPattern,
    cue_size: int,
    max_attempts: int,
    rng: np.random.Generator,
    *,
    fixed_cue: bool = False,
) -> ComponentOutcome:
    """Attempt loop for one component: probe, retrieve once, compare, repeat.

    Stops at the first exact match against `reference` or after
    `max_attempts`. k = `cue_size` cue indices, an integer in [0, N], are
    redrawn uniformly per attempt, or, with `fixed_cue`, drawn once before
    the first attempt and clamped in every attempt. Either way a cue is
    the units of the k smallest of N uniform keys: a fixed cue's keys are
    one `rng.random(N)` row, drawn also when k is 0 or N (`key_subset`).

    No attempt depends on an earlier one apart from the stop rule, so the
    loop draws its attempts in chunks of up to `_ATTEMPT_CHUNK`: per chunk,
    one `(rows, N)` key block for the cues (only when they are redrawn and
    0 < k < N), then one `(rows, N)` block of probe uniforms. The loop owns
    these draws; what it evaluates does not move the stream. A chunk of
    more than `_HEAD_BREAK_EVEN` units is evaluated head first, its first
    `_HEAD` rows and then the rest; a smaller one in one pass. A pass turns
    only its own rows into cues and probes (`generate_probe`), retrieves
    them, scores their overlap with the reference and compares the one row
    its argmax picks: outputs are +1/-1, so a row scores N exactly when it
    matches, and the first row of maximal overlap is the first match when
    there is one. So the stop attempt is the first matching row; otherwise
    `best_output` is the first row of maximal overlap.

    A full cue (k = N) makes every probe the reference, so every attempt
    outputs the one image of the reference (`ComponentNetwork.image`,
    which the network keeps): the loop stops at attempt 1 if that image
    is the reference and otherwise runs all `max_attempts` with it as best
    output. It is evaluated from that one retrieval, and each of its chunks
    still draws the `(rows, N)` uniforms of its probe block, so the stream
    moves as it does for any other cue. Time is the caller's: see
    `chronometry`.
    """
    n, ref, k = net.n, reference.units, cue_size
    if ref.shape[0] != n:
        raise DimensionError(f"reference length {ref.shape[0]} != network size {n}")
    if not (type(k) is int or isinstance(k, Integral)) or not 0 <= k <= n:
        raise ParameterError(f"cue_size must be an integer in [0, {n}], got {k}")
    if not (type(max_attempts) is int or isinstance(max_attempts, Integral)) or max_attempts < 1:
        raise ParameterError(f"max_attempts must be an integer >= 1, got {max_attempts}")
    if fixed_cue:
        cue = key_subset(n, k, rng)
    elif k == 0:
        cue = range(0)  # no cue
    else:
        cue = None  # redrawn per attempt
    if k == n:
        output, score = net.image(ref)
        attempts = 1 if score == n else max_attempts
        for done in range(0, attempts, _ATTEMPT_CHUNK):
            rng.random((min(_ATTEMPT_CHUNK, max_attempts - done), n))  # the probe blocks
        return ComponentOutcome(score == n, attempts, score / n, output)
    best_score, best_row = -n - 1, None
    for done in range(0, max_attempts, _ATTEMPT_CHUNK):
        rows = min(_ATTEMPT_CHUNK, max_attempts - done)
        keys = rng.random((rows, n)) if cue is None else None
        coins = rng.random((rows, n))
        head_first = rows > _HEAD and rows * n > _HEAD_BREAK_EVEN
        for lo, hi in ((0, _HEAD), (_HEAD, rows)) if head_first else ((0, rows),):
            # A redrawn cue is each row's k units of smallest key: k units
            # uniform without replacement.
            cues = cue if keys is None else np.argpartition(keys[lo:hi], k - 1)[:, :k]
            outputs = net.retrieve_once(generate_probe(ref, cues, coins[lo:hi]))
            scores = overlap(outputs, ref)
            top = int(scores.argmax())
            if compare(outputs[top], ref):
                return ComponentOutcome(True, done + lo + top + 1, 1.0, outputs[top])
            if scores[top] > best_score:
                best_score, best_row = int(scores[top]), outputs[top]
    return ComponentOutcome(False, max_attempts, best_score / n, best_row)


def classify_outcome(outcomes: dict[str, ComponentOutcome]) -> tuple[Classification, float]:
    """Classification and TOT strength of a selected word's cascade trace.

    Resolved when every component resolved; otherwise TOT with strength =
    best observed phonological overlap fraction (clamped at 0). NoAccess is
    decided before the cascade, where selection fails.
    """
    if all(outcomes[comp].resolved for comp in COMPONENTS):
        return Classification.RESOLVED, 1.0
    return Classification.TOT, max(0.0, outcomes["phonological"].best_overlap_frac)


def is_strong(tot_strength: float, strength_threshold: float) -> bool:
    return tot_strength >= strength_threshold


def recall_word(
    lex: Lexicon,
    semantic_input: BipolarPattern,
    params: RecallParams,
    rng: np.random.Generator,
    bonuses: Mapping[str, float] = NO_BONUSES,
) -> RecallOutcome:
    """One full recall episode: selection under the trial's priming
    `bonuses`, masking, component cascade.

    The selected node's exact completeness c (see `Lexicon.select_node`)
    masks floor((1 - c) * n) units of each component network the cascade
    reaches, for this episode; a complete selection masks none. Components
    run in the order semantic, lexical, phonological, and the cascade stops
    at the first component that fails to resolve (later components count
    as unattempted), so Resolved means all three resolved and a selected
    word whose phonological form did not resolve is a TOT. A component is
    masked (`ComponentNetwork.apply_mask`) just before its attempt loop,
    so an unreached component draws no mask. Each component runs
    with floor(cue * n) cue units, where cue is its exact `params.cue` and
    n its length (see `RecallParams.cue_sizes`). The episode's time is the
    sum over components, in cascade order, of `chronometry` of their
    attempts.

    `partial_info` names every slot of `lex.slot_map`: a slot matches when
    the phonological best output equals the reference on it, and is False
    when the phonological loop never ran, NoAccess included. Each outcome
    gets a dict of its own, which its record keeps.
    """
    partial = dict.fromkeys(lex.slot_map.names(), False)
    selection = lex.select_node(semantic_input, bonuses)
    if selection is None:
        return RecallOutcome(
            completeness=0.0,
            components=dict.fromkeys(COMPONENTS, SKIPPED),
            classification=Classification.NO_ACCESS,
            tot_strength=0.0,
            partial_info=partial,
            total_time_ms=0.0,
        )
    node, completeness = selection
    nets, refs, masked = node.components, node.metamemory_ref, completeness.masked

    outcomes = dict.fromkeys(COMPONENTS, SKIPPED)
    time_ms = 0.0
    for comp, cue_size in zip(COMPONENTS, params.cue_sizes(lex.lengths)):
        net = nets[comp].apply_mask(masked, rng) if masked else nets[comp]
        outcome = recall_component(
            net,
            refs[comp],
            cue_size,
            params.max_attempts,
            rng,
            fixed_cue=params.fixed_cue_per_episode,
        )
        outcomes[comp] = outcome
        time_ms += chronometry(outcome.attempts, params.spike_ms, params.interval_ms)
        if not outcome.resolved:
            break

    classification, tot_strength = classify_outcome(outcomes)
    phon = outcomes["phonological"]
    if phon.best_output is not None:
        partial = slot_match(phon.best_output, refs["phonological"].units, lex.slot_map)
    return RecallOutcome(
        completeness=completeness.value,
        components=outcomes,
        classification=classification,
        tot_strength=tot_strength,
        partial_info=partial,
        total_time_ms=time_ms,
    )
