"""The retrieval stages: cued/free probe generation, one-pass attempt loops,
the metamemory comparator stop rule, the component cascade, outcome
classification, and attempt-based chronometry."""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DimensionError, ParameterError
from .lexicon import COMPONENTS, NO_BONUSES, Lexicon, exact_completeness
from .network import ComponentNetwork
from .patterns import BipolarPattern, exact_fraction, floor_count, overlap, slot_match, unit_rows

# Most attempts one block holds, so the engine's memory stays bounded at any
# max_attempts. Part of the random-stream layout (experiment.STREAM_VERSION).
_ATTEMPT_CHUNK = 256


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
        if self.max_attempts < 1:
            raise ParameterError("max_attempts must be >= 1")
        if not 0.0 <= self.link_gain <= 1.0:
            raise ParameterError(f"link gain must be in [0, 1], got {self.link_gain}")
        if self.spike_ms <= 0:
            raise ParameterError(f"spike_ms must be > 0, got {self.spike_ms}")
        if self.interval_ms < 0:
            raise ParameterError(f"interval_ms must be >= 0, got {self.interval_ms}")
        if not 0.0 < self.strength_threshold < 1.0:
            raise ParameterError(
                f"strength threshold must be in (0, 1), got {self.strength_threshold}"
            )

    @classmethod
    def with_uniform_cue(cls, q: float, **kwargs) -> "RecallParams":
        return cls(cue_fraction={comp: q for comp in COMPONENTS}, **kwargs)


@dataclass(frozen=True)
class ComponentOutcome:
    """Trace of one component's attempt loop.

    `best_overlap_frac` is the maximum over attempts of
    overlap(output, reference) / N and equals 1 iff some attempt matched
    exactly; `best_output` is the output that achieved it (None if the
    component was never attempted).
    """

    resolved: bool
    attempts: int
    best_overlap_frac: float
    elapsed_ms: float
    best_output: BipolarPattern | None = None


def skipped_outcome() -> ComponentOutcome:
    """Outcome of a component the cascade never reached."""
    return ComponentOutcome(False, 0, 0.0, 0.0, None)


@dataclass(frozen=True)
class RecallOutcome:
    """Full trace of one recall episode for one word."""

    word_id: str | None
    selected: bool
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


def generate_probe(reference: BipolarPattern, cue_indices, rng: np.random.Generator, rows=None):
    """Retrieval probes: random +1/-1 units with the cue units clamped to
    the reference.

    With `rows=None` this draws one probe and returns a BipolarPattern.
    With `rows` set it draws a `(rows, n)` block of unit rows in one call
    and returns it as raw integers. `cue_indices` is either one collection
    of unit indices, clamped in every row, or a `(rows, k)` integer array
    giving each row its own cue. Always consumes `rows * n` uniforms,
    independent of the cue.
    """
    n = len(reference)
    idx = np.asarray(
        cue_indices if isinstance(cue_indices, np.ndarray) else list(cue_indices),
        dtype=np.int64,
    )
    probes = np.where(rng.random((1 if rows is None else rows, n)) < 0.5, 1, -1)
    if idx.size:
        if idx.min() < 0 or idx.max() >= n:
            raise DimensionError("cue index out of range")
        if idx.ndim == 2:
            probes[np.arange(len(idx))[:, None], idx] = reference.units[idx]
        else:
            probes[:, idx] = reference.units[idx]
    return BipolarPattern(probes[0]) if rows is None else probes


def compare(output, reference: BipolarPattern):
    """Comparator stage: exact unit-wise equality.

    `output` is one pattern (answered with a bool) or a `(rows, n)` block
    of outputs (answered with one bool per row).
    """
    rows, single = unit_rows(output)
    if rows.shape[1] != len(reference):
        raise DimensionError(f"length mismatch: {rows.shape[1]} vs {len(reference)}")
    hits = (rows == reference.units).all(axis=1)
    return bool(hits[0]) if single else hits


def _per_row_cues(rng: np.random.Generator, rows: int, n: int, k: int) -> np.ndarray:
    """Each row's k cue units, uniform without replacement: the k smallest
    of a `(rows, n)` block of uniform keys."""
    return np.argpartition(rng.random((rows, n)), k - 1, axis=1)[:, :k]


def recall_component(
    net: ComponentNetwork,
    reference: BipolarPattern,
    q: float | Fraction,
    max_attempts: int,
    rng: np.random.Generator,
    *,
    spike_ms: float = 1.0,
    interval_ms: float = 10.0,
    cue_indices=None,
) -> ComponentOutcome:
    """Attempt loop for one component: probe, retrieve once, compare, repeat.

    Stops at the first exact match against `reference` or after
    `max_attempts`. floor(q * N) cue indices (exact, see `floor_count`)
    are redrawn uniformly per attempt unless explicit `cue_indices` pin
    them for the whole loop.

    No attempt depends on an earlier one apart from the stop rule, so the
    attempts run in chunks of up to `_ATTEMPT_CHUNK`: per chunk, one key
    block for the cues (only when they are redrawn and 0 < k < N), one
    probe block, one pass and one compare. The stop attempt is the first
    matching row; otherwise `best_output` is the first row of maximal
    overlap.
    """
    if len(reference) != net.n:
        raise DimensionError(
            f"reference length {len(reference)} != network size {net.n}"
        )
    if not 0 <= q <= 1:
        raise ParameterError(f"cue fraction must be in [0, 1], got {q}")
    if max_attempts < 1:
        raise ParameterError("max_attempts must be >= 1")
    n = net.n
    k = floor_count(q, n)
    redraw = cue_indices is None and 0 < k < n
    if cue_indices is None:
        cue_indices = range(k)  # k is 0 or n: no cue or the whole pattern
    best_score, best_row = None, None
    done = 0
    while done < max_attempts:
        rows = min(_ATTEMPT_CHUNK, max_attempts - done)
        cues = _per_row_cues(rng, rows, n, k) if redraw else cue_indices
        probes = generate_probe(reference, cues, rng, rows)
        outputs = net.retrieve_once(probes)
        hits = compare(outputs, reference)
        if hits.any():
            first = int(hits.argmax())
            attempts = done + first + 1
            return ComponentOutcome(
                True,
                attempts,
                1.0,
                chronometry(attempts, spike_ms, interval_ms),
                BipolarPattern(outputs[first]),
            )
        scores = overlap(outputs, reference)
        top = int(scores.argmax())
        if best_score is None or scores[top] > best_score:
            best_score, best_row = int(scores[top]), outputs[top]
        done += rows
    return ComponentOutcome(
        False,
        max_attempts,
        best_score / n,
        chronometry(max_attempts, spike_ms, interval_ms),
        BipolarPattern(best_row),
    )


def classify_outcome(
    selected: bool, outcomes: dict[str, ComponentOutcome]
) -> tuple[Classification, float]:
    """Classification and TOT strength from the cascade trace.

    NoAccess when selection failed; Resolved when every component resolved;
    otherwise TOT with strength = best observed phonological overlap
    fraction (clamped at 0). Total over valid inputs.
    """
    if not selected:
        return Classification.NO_ACCESS, 0.0
    if all(outcomes[comp].resolved for comp in COMPONENTS):
        return Classification.RESOLVED, 1.0
    return Classification.TOT, max(0.0, outcomes["phonological"].best_overlap_frac)


def is_strong(tot_strength: float, strength_threshold: float) -> bool:
    return tot_strength >= strength_threshold


@lru_cache(maxsize=1024)
def effective_cue(q: float, gain: float) -> Fraction:
    """A component's cue fraction min(1, q + gain) in exact arithmetic
    (see `exact_fraction`), so 0.5 + 0.2 is exactly 7/10."""
    return min(Fraction(1), exact_fraction(q) + exact_fraction(gain))


def recall_word(
    lex: Lexicon,
    semantic_input: BipolarPattern,
    params: RecallParams,
    rng: np.random.Generator,
    bonuses: Mapping[str, float] = NO_BONUSES,
) -> RecallOutcome:
    """One full recall episode: selection under the trial's priming
    `bonuses`, masking, component cascade.

    Selection completeness c masks floor((1 - c) * n) units of each
    component network for this episode, with c taken exactly (see
    `exact_completeness`). Components run in the order semantic, lexical,
    phonological; each gets cue fraction min(1, q + link_gain * [previous
    resolved]), summed exactly (see `effective_cue`), and the cascade stops
    at the first component that fails to resolve (later components count as
    unattempted), so Resolved means all three resolved and a selected word
    whose phonological form did not resolve is a TOT.
    """
    selection = lex.select_node(semantic_input, bonuses)
    if selection is None:
        return RecallOutcome(
            word_id=None,
            selected=False,
            completeness=0.0,
            components={comp: skipped_outcome() for comp in COMPONENTS},
            classification=Classification.NO_ACCESS,
            tot_strength=0.0,
            partial_info={},
            total_time_ms=0.0,
        )
    node, completeness = selection
    mask_fraction = 1 - exact_completeness(
        semantic_input, node, bonuses.get(node.id, 0.0)
    )
    episode_nets = {}
    for comp in COMPONENTS:
        net = node.components[comp]
        episode_nets[comp] = net.apply_mask(mask_fraction, rng) if mask_fraction > 0 else net

    outcomes: dict[str, ComponentOutcome] = {}
    previous_resolved = False
    reached = True
    for i, comp in enumerate(COMPONENTS):
        if not reached:
            outcomes[comp] = skipped_outcome()
            continue
        gain = params.link_gain if (i > 0 and previous_resolved) else 0.0
        q_eff = effective_cue(params.cue_fraction[comp], gain)
        fixed_idx = None
        if params.fixed_cue_per_episode:
            k = floor_count(q_eff, episode_nets[comp].n)
            fixed_idx = rng.choice(episode_nets[comp].n, size=k, replace=False)
        outcome = recall_component(
            episode_nets[comp],
            node.metamemory_ref[comp],
            q_eff,
            params.max_attempts,
            rng,
            spike_ms=params.spike_ms,
            interval_ms=params.interval_ms,
            cue_indices=fixed_idx,
        )
        outcomes[comp] = outcome
        previous_resolved = outcome.resolved
        if not outcome.resolved:
            reached = False

    classification, tot_strength = classify_outcome(True, outcomes)
    phon = outcomes["phonological"]
    if phon.best_output is not None:
        partial = slot_match(
            phon.best_output, node.metamemory_ref["phonological"], node.slot_map
        )
    else:
        partial = {name: False for name in node.slot_map.names()}
    total_time = sum(outcomes[comp].elapsed_ms for comp in COMPONENTS)
    return RecallOutcome(
        word_id=node.id,
        selected=True,
        completeness=completeness,
        components=outcomes,
        classification=classification,
        tot_strength=tot_strength,
        partial_info=partial,
        total_time_ms=total_time,
    )
