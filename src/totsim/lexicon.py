"""Word nodes, the lexicon, threshold selection with priming, and
deterministic lexicon construction."""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from fractions import Fraction
from types import MappingProxyType

import numpy as np

from .errors import ConfigError, DimensionError, GenerationError, ParameterError
from .network import ComponentNetwork, train
from .patterns import BipolarPattern, SlotMap, exact_fraction, overlap

COMPONENTS = ("semantic", "lexical", "phonological")

_GENERATION_RETRY_BUDGET = 1000

# Priming bonuses of a trial without priming.
NO_BONUSES: Mapping[str, float] = MappingProxyType({})


@dataclass(frozen=True, eq=False)
class WordNode:
    """One word: three trained component networks plus metamemory references.

    `truth` holds the originally learned pattern per component; the
    comparator's `metamemory_ref` normally equals it but may be corrupted by
    a scenario. The slot map segments the phonological component.
    """

    id: str
    components: dict[str, ComponentNetwork]
    truth: dict[str, BipolarPattern]
    metamemory_ref: dict[str, BipolarPattern]
    slot_map: SlotMap

    def __post_init__(self):
        if not self.id:
            raise ParameterError("word id must be non-empty")
        for mapping, what in (
            (self.components, "components"),
            (self.truth, "truth"),
            (self.metamemory_ref, "metamemory_ref"),
        ):
            if tuple(sorted(mapping)) != tuple(sorted(COMPONENTS)):
                raise ParameterError(f"{what} must cover exactly {COMPONENTS}")
        for comp in COMPONENTS:
            n = self.components[comp].n
            if len(self.truth[comp]) != n or len(self.metamemory_ref[comp]) != n:
                raise DimensionError(
                    f"{comp} pattern length does not match its network size {n}"
                )
        if self.slot_map.length != self.components["phonological"].n:
            raise DimensionError("slot map length must match the phonological component")

    def component_length(self, component: str) -> int:
        return self.components[component].n


@dataclass(frozen=True, eq=False)
class Lexicon:
    """All word nodes plus the selection threshold.

    Selection reads the semantic truths as one read-only `(words, N)` int64
    matrix whose rows are in id order, so a tie on the score goes to the
    first row; `_row` maps each id to its row.
    """

    nodes: tuple[WordNode, ...]
    selection_threshold: float

    def __post_init__(self):
        if not 0.0 < self.selection_threshold <= 1.0:
            raise ParameterError(
                f"selection threshold must be in (0, 1], got {self.selection_threshold}"
            )
        ids = [node.id for node in self.nodes]
        if len(set(ids)) != len(ids):
            raise ConfigError("lexicon", "word ids must be unique")
        for comp in COMPONENTS:
            lengths = {node.component_length(comp) for node in self.nodes}
            if len(lengths) > 1:
                raise DimensionError(f"nodes disagree on {comp} length: {sorted(lengths)}")
        by_id = tuple(sorted(self.nodes, key=lambda node: node.id))
        semantic = np.array([node.truth["semantic"].units for node in by_id], dtype=np.int64)
        semantic.flags.writeable = False
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "_row", {node.id: i for i, node in enumerate(by_id)})
        object.__setattr__(self, "_semantic", semantic)

    def node_by_id(self, word_id: str) -> WordNode:
        row = self._row.get(word_id)
        if row is None:
            raise ConfigError("lexicon", f"unknown word id {word_id!r}")
        return self._by_id[row]

    def component_length(self, component: str) -> int:
        if not self.nodes:
            raise ConfigError("lexicon", "lexicon has no word nodes")
        return self.nodes[0].component_length(component)

    def select_node(
        self, semantic_input: BipolarPattern, bonuses: Mapping[str, float] = NO_BONUSES
    ):
        """Stage-one word node selection from semantic input.

        Each node scores max(0, overlap / N) plus its priming bonus from
        `bonuses` (absent ids get none), capped at 1. The highest score wins
        (ties to the lexicographically smallest id) and doubles as the
        selection completeness; below the threshold nothing is selected and
        None is returned.

        One matmul gives every overlap. Without a bonus a node's score is
        max(0, overlap) / N, so the best unprimed node is the first row of
        maximal overlap; when no overlap is positive its score 0 is below
        every threshold, so which row holds it does not matter. Only primed
        nodes are scored one by one.
        """
        if not self.nodes:
            raise ConfigError("lexicon", "lexicon has no word nodes")
        n = self._semantic.shape[1]
        if len(semantic_input) != n:
            raise DimensionError(
                f"semantic input length {len(semantic_input)} != lexicon length {n}"
            )
        overlaps = (self._semantic @ semantic_input.units).tolist()
        primed = {}
        for word_id, bonus in bonuses.items():
            row = self._row.get(word_id)
            if row is not None:
                primed[row] = min(1.0, max(0.0, overlaps[row] / n) + bonus)
                overlaps[row] = -n  # out of the unprimed ranking
        top = max(overlaps)
        best_row, best_score = overlaps.index(top), max(0, top) / n
        for row, score in primed.items():
            if score > best_score or (score == best_score and row < best_row):
                best_row, best_score = row, score
        if best_score < self.selection_threshold:
            return None
        return self._by_id[best_row], best_score


def exact_completeness(semantic_input: BipolarPattern, node: WordNode, bonus: float) -> Fraction:
    """A selected node's score in exact arithmetic: max(0, overlap / N)
    plus its priming bonus (see `exact_fraction`), capped at 1.

    `select_node` ranks every node in floats; only the winner's score is
    recomputed exactly, because masked-unit counts are floors of 1 - c and
    a float c such as 1 - 0.8 = 0.19999999999999996 would undercount them.
    """
    score = Fraction(
        max(0, overlap(semantic_input, node.truth["semantic"])), len(semantic_input)
    )
    return min(Fraction(1), score + exact_fraction(bonus))


@dataclass(frozen=True)
class WordSpec:
    """Explicit word declaration: one pattern per component."""

    id: str
    patterns: dict[str, BipolarPattern]


@dataclass(frozen=True)
class GeneratorSpec:
    """Random lexicon declaration: per-component lengths and a minimum
    pairwise Hamming distance between the words of each component."""

    count: int
    lengths: dict[str, int]
    min_pairwise_distance: int = 1


@dataclass(frozen=True)
class LexiconSpec:
    """Declarative lexicon description: explicit words or a generator."""

    selection_threshold: float = 0.3
    words: tuple[WordSpec, ...] | None = None
    generator: GeneratorSpec | None = None
    slots: dict[str, tuple[int, ...]] = field(default_factory=dict)

    def __post_init__(self):
        if (self.words is None) == (self.generator is None):
            raise ConfigError("lexicon", "declare exactly one of words/generator")


def _generated_patterns(
    gen: GeneratorSpec, component: str, rng: np.random.Generator
) -> list[BipolarPattern]:
    n = gen.lengths[component]
    minimum = gen.min_pairwise_distance
    if minimum > n:
        raise GenerationError(
            f"min pairwise distance {minimum} impossible at {component} length {n}"
        )
    # A candidate is placed when its overlap with every accepted word is at
    # most n - 2 * minimum, i.e. its Hamming distance is at least `minimum`.
    limit = n - 2 * minimum
    # Candidates are drawn as `random_pattern` draws them; only placed rows
    # become patterns.
    accepted = np.empty((gen.count, n), dtype=np.int64)
    for i in range(gen.count):
        for _ in range(_GENERATION_RETRY_BUDGET):
            candidate = rng.integers(0, 2, size=n) * 2 - 1
            if i == 0 or (accepted[:i] @ candidate).max() <= limit:
                accepted[i] = candidate
                break
        else:
            raise GenerationError(
                f"could not place {component} pattern for word {i} with min "
                f"pairwise distance {minimum} in {_GENERATION_RETRY_BUDGET} tries"
            )
    return [BipolarPattern(row) for row in accepted]


def word_nodes(spec: LexiconSpec, rng: np.random.Generator) -> tuple[WordNode, ...]:
    """The trained, undamaged word nodes of a lexicon, in declaration order.

    Deterministic given the stream state. Random generation that cannot
    satisfy the minimum-distance constraint within the retry budget raises
    GenerationError rather than relaxing the constraint.
    """
    if spec.words is not None:
        word_ids = [w.id for w in spec.words]
        per_component = {
            comp: [w.patterns[comp] for w in spec.words] for comp in COMPONENTS
        }
    else:
        gen = spec.generator
        word_ids = [f"w{i}" for i in range(gen.count)]
        per_component = {
            comp: _generated_patterns(gen, comp, rng) for comp in COMPONENTS
        }
    phon_length = len(per_component["phonological"][0])
    slot_map = SlotMap(phon_length, dict(spec.slots))
    nodes = []
    for i, word_id in enumerate(word_ids):
        truth = {comp: per_component[comp][i] for comp in COMPONENTS}
        nodes.append(
            WordNode(
                id=word_id,
                components={comp: train([truth[comp]]) for comp in COMPONENTS},
                truth=truth,
                metamemory_ref=dict(truth),
                slot_map=slot_map,
            )
        )
    return tuple(nodes)


def build_lexicon(spec: LexiconSpec, rng: np.random.Generator) -> Lexicon:
    """The lexicon of `word_nodes(spec, rng)`."""
    return Lexicon(word_nodes(spec, rng), spec.selection_threshold)


def corrupt_metamemory(
    node: WordNode, component: str, flips: int, rng: np.random.Generator
) -> WordNode:
    """Return a node whose comparator reference has `flips` units flipped.

    The stored network is untouched: this models a wrong metamemory standard
    (illusory target), not damaged object-level memory.
    """
    if component not in COMPONENTS:
        raise ParameterError(f"unknown component {component!r}")
    n = node.component_length(component)
    if not 0 <= flips <= n:
        raise ParameterError(f"flip count must be in [0, {n}], got {flips}")
    idx = rng.choice(n, size=flips, replace=False)
    refs = dict(node.metamemory_ref)
    refs[component] = refs[component].with_flipped(idx)
    return replace(node, metamemory_ref=refs)
