"""Word nodes, the lexicon, threshold selection with priming, and
deterministic lexicon construction."""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from fractions import Fraction
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DimensionError, GenerationError, ParameterError
from .network import ComponentNetwork, train_each
from .patterns import BipolarPattern, SlotMap, exact_fraction, overlap

COMPONENTS = ("semantic", "lexical", "phonological")

_GENERATION_RETRY_BUDGET = 1000

# Priming bonuses of a trial without priming.
NO_BONUSES: Mapping[str, float] = MappingProxyType({})


class Completeness(NamedTuple):
    """A selection's exact completeness c, with what an episode reads of
    it: c as a float for its record, and the exact fraction 1 - c of each
    component's units that its masks silence."""

    exact: Fraction
    value: float
    masked: Fraction

    @classmethod
    def of(cls, exact: Fraction) -> "Completeness":
        return cls(exact, float(exact), 1 - exact)


@dataclass(frozen=True, eq=False)
class WordNode:
    """One word: three trained component networks plus metamemory references.

    A component's learned pattern is the one pattern its network stores,
    `components[c].stored[0]`; the comparator's `metamemory_ref` normally
    equals it but may be corrupted by a scenario. The slot map over the
    phonological component belongs to the lexicon.
    """

    id: str
    components: dict[str, ComponentNetwork]
    metamemory_ref: dict[str, BipolarPattern]

    def __post_init__(self):
        if not self.id:
            raise ParameterError("word id must be non-empty")
        for mapping, what in (
            (self.components, "components"),
            (self.metamemory_ref, "metamemory_ref"),
        ):
            if tuple(sorted(mapping)) != tuple(sorted(COMPONENTS)):
                raise ParameterError(f"{what} must cover exactly {COMPONENTS}")
        for comp in COMPONENTS:
            n = self.components[comp].n
            if len(self.metamemory_ref[comp]) != n:
                raise DimensionError(
                    f"{comp} metamemory reference length does not match its network size {n}"
                )


@dataclass(frozen=True, eq=False)
class Lexicon:
    """All word nodes, the selection threshold and the slot map.

    The one `slot_map` segments every word's phonological component; a
    lexicon built without one has no slots. Selection reads the words'
    learned semantic patterns as one read-only `(words, N)` int64 matrix
    whose rows are in id order, so a tie on the score goes to the first
    row; `_row` maps each id to its row. The threshold is read once as an
    exact rational (see `exact_fraction`). The derived `lengths` holds the
    component lengths in `COMPONENTS` order, which every node shares.
    """

    nodes: tuple[WordNode, ...]
    selection_threshold: float
    slot_map: SlotMap | None = None

    def __post_init__(self):
        if not 0.0 < self.selection_threshold <= 1.0:
            raise ParameterError(
                f"selection threshold must be in (0, 1], got {self.selection_threshold}"
            )
        if not self.nodes:
            raise ConfigError("lexicon", "lexicon has no word nodes")
        ids = [node.id for node in self.nodes]
        if len(set(ids)) != len(ids):
            raise ConfigError("lexicon", "word ids must be unique")
        for comp in COMPONENTS:
            lengths = {node.components[comp].n for node in self.nodes}
            if len(lengths) > 1:
                raise DimensionError(f"nodes disagree on {comp} length: {sorted(lengths)}")
        lengths = tuple(self.nodes[0].components[comp].n for comp in COMPONENTS)
        object.__setattr__(self, "lengths", lengths)
        if self.slot_map is None:
            object.__setattr__(self, "slot_map", SlotMap(lengths[-1]))
        elif self.slot_map.length != lengths[-1]:
            raise DimensionError("slot map length must match the phonological component")
        by_id = tuple(sorted(self.nodes, key=lambda node: node.id))
        semantic = np.array(
            [node.components["semantic"].stored[0].units for node in by_id], dtype=np.int64
        )
        semantic.flags.writeable = False
        threshold = exact_fraction(self.selection_threshold)
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "_row", {node.id: i for i, node in enumerate(by_id)})
        object.__setattr__(self, "_semantic", semantic)
        object.__setattr__(self, "_threshold", threshold)
        # The `Completeness` top / N of every overlap top a selection can
        # have, built from the integers: float(Fraction(top, N)) is top / N,
        # both rounded once, and 1 - top / N is (N - top) / N.
        n = semantic.shape[1]
        table = tuple(
            Completeness(Fraction(top, n), top / n, Fraction(n - top, n)) for top in range(n + 1)
        )
        object.__setattr__(self, "_completeness", table)
        # An unprimed node clears the threshold t iff overlap / N >= t,
        # that is iff its integer overlap is at least ceil(t * N).
        object.__setattr__(self, "_min_overlap", math.ceil(threshold * n))

    def node_by_id(self, word_id: str) -> WordNode:
        row = self._row.get(word_id)
        if row is None:
            raise ConfigError("lexicon", f"unknown word id {word_id!r}")
        return self._by_id[row]

    def select_node(
        self, semantic_input: BipolarPattern, bonuses: Mapping[str, float] = NO_BONUSES
    ):
        """Stage-one word node selection from semantic input.

        Each node scores max(0, overlap / N) plus its priming bonus from
        `bonuses` (absent ids get none), capped at 1, in exact arithmetic
        (see `exact_score`). The highest score wins (ties to the
        lexicographically smallest id) and is returned with the node as
        its selection `Completeness`, whose `exact` is the score; below the
        threshold nothing is selected and None is returned.

        One block `overlap` gives every node's overlap. Without a bonus a
        node's score is max(0, overlap) / N, so the best unprimed node is
        the first row of maximal overlap, and it clears the threshold iff
        that overlap reaches the precomputed integer `_min_overlap`: one
        `argmax` of the block, whose first maximal row it is. Only primed
        nodes are scored one by one. An unprimed overlap's completeness is
        read from the lexicon's table of the N + 1 fractions top / N.
        """
        units, n = semantic_input.units, self._semantic.shape[1]
        if units.shape[0] != n:
            raise DimensionError(f"semantic input length {units.shape[0]} != lexicon length {n}")
        overlaps = overlap(self._semantic, units)
        primed = bonuses and {
            self._row[word_id]: bonus for word_id, bonus in bonuses.items() if word_id in self._row
        }
        if not primed:
            row = int(overlaps.argmax())
            top = int(overlaps[row])
            if top < self._min_overlap:
                return None
            return self._by_id[row], self._completeness[top]
        overlaps = overlaps.tolist()
        # Primed rows leave the unprimed ranking.
        unprimed = [-n if row in primed else ov for row, ov in enumerate(overlaps)]
        top = max(unprimed)
        best_row, best_score = unprimed.index(top), self._completeness[max(0, top)].exact
        for row, bonus in primed.items():
            score = exact_score(overlaps[row], n, bonus)
            if score > best_score or (score == best_score and row < best_row):
                best_row, best_score = row, score
        if best_score < self._threshold:
            return None
        return self._by_id[best_row], Completeness.of(best_score)


def exact_score(ov: int, n: int, bonus: float) -> Fraction:
    """A node's selection score in exact arithmetic: max(0, ov / n) for
    overlap `ov` over `n` units, plus its priming bonus (see
    `exact_fraction`), capped at 1. Masked-unit counts are floors of
    1 - score, and a float score such as 1 - 0.8 = 0.19999999999999996
    would undercount them."""
    return min(Fraction(1), Fraction(max(0, ov), n) + exact_fraction(bonus))


@dataclass(frozen=True)
class WordSpec:
    """Explicit word declaration: one pattern per component."""

    id: str
    semantic: BipolarPattern
    lexical: BipolarPattern
    phonological: BipolarPattern


@dataclass(frozen=True)
class GeneratorSpec:
    """Random lexicon declaration: per-component lengths and a minimum
    pairwise Hamming distance between the words of each component."""

    count: int
    lengths: dict[str, int]
    min_pairwise_distance: int = 1


@dataclass(frozen=True)
class LexiconSpec:
    """Declarative lexicon description: explicit words or a generator.

    The one check of the lexicon's shape, raising ConfigError with the
    field path. It derives `lengths` (one length per component) and
    `slot_map` (the slot map over the phonological component) once; these
    are not fields, so `==` and `asdict` see the declaration only.
    """

    selection_threshold: float = 0.3
    words: tuple[WordSpec, ...] | None = None
    generator: GeneratorSpec | None = None
    slots: dict[str, tuple[int, ...]] = field(default_factory=dict)

    def __post_init__(self):
        if (self.words is None) == (self.generator is None):
            raise ConfigError("lexicon", "declare exactly one of 'words' and 'generator'")
        if self.words is not None:
            if not self.words:
                raise ConfigError("lexicon.words", "needs at least one word")
            lengths = {comp: len(getattr(self.words[0], comp)) for comp in COMPONENTS}
            for i, word in enumerate(self.words):
                for comp, n0 in lengths.items():
                    n = len(getattr(word, comp))
                    if n != n0:
                        raise ConfigError(
                            f"lexicon.words[{i}].{comp}", f"length {n} != length {n0} of word 0"
                        )
            ids = self.word_ids()
            if len(set(ids)) != len(ids):
                raise ConfigError("lexicon.words", "word ids must be unique")
        else:
            lengths = dict(self.generator.lengths)
            minimum, shortest = self.generator.min_pairwise_distance, min(lengths.values())
            if minimum > shortest:
                raise ConfigError(
                    "lexicon.generator.min_pairwise_distance",
                    f"distance {minimum} exceeds the shortest component length {shortest}",
                )
        try:
            slot_map = SlotMap(lengths["phonological"], dict(self.slots))
        except (ParameterError, DimensionError) as exc:
            raise ConfigError("lexicon.slots", str(exc)) from exc
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "slot_map", slot_map)

    def word_ids(self) -> list[str]:
        """The word ids in declaration order: w0, w1, ... when generated."""
        if self.words is not None:
            return [word.id for word in self.words]
        return [f"w{i}" for i in range(self.generator.count)]

    def has_word(self, word_id: str) -> bool:
        if self.words is not None:
            return any(word.id == word_id for word in self.words)
        # Generated ids are w0 .. w{count-1}, decided by arithmetic so that
        # no id string is built per word.
        count = self.generator.count
        digits = word_id[1:]
        return (
            word_id[:1] == "w"
            and digits.isascii()
            and digits.isdigit()
            and (digits == "0" or digits[0] != "0")
            and len(digits) <= len(str(count))
            and int(digits) < count
        )


def _generated_units(gen: GeneratorSpec, component: str, rng: np.random.Generator) -> np.ndarray:
    """The `(count, n)` units of one component's generated words.

    Candidates are uniform +1/-1 rows, tried in turn. A candidate is placed
    when its overlap with every placed word is at most n - 2 * minimum,
    i.e. its Hamming distance to each is at least `minimum`; a word with no
    place after `_GENERATION_RETRY_BUDGET` tries raises GenerationError.

    Candidates are drawn in blocks: one `(rows, n)` draw returns the same
    rows, and leaves the same stream state, as `rows` draws of one
    candidate. A block drawn past the last tried candidate is drawn again up
    to it, so the stream ends where one draw per tried candidate leaves it.
    """
    n = gen.lengths[component]
    minimum = gen.min_pairwise_distance
    limit = n - 2 * minimum
    placed = np.empty((gen.count, n), dtype=np.int64)
    i = tries = 0  # words placed; failed tries of word i
    while i < gen.count:
        state = rng.bit_generator.state
        # Twice the words left, so that most blocks place them all.
        rows = 2 * (gen.count - i) + 16
        block = rng.integers(0, 2, size=(rows, n)) * 2 - 1
        # Overlaps are integers of magnitude at most n, exact in float64.
        # `ok[j]`: candidate j fits every word placed so far; the last
        # entry stands for the end of the block.
        units = block.astype(np.float64)
        ok = np.append((units @ placed[:i].T <= limit).all(axis=1), True)
        used = 0  # candidates of this block tried so far
        while i < gen.count:
            j = used + int(ok[used:].argmax())
            if tries + j - used >= _GENERATION_RETRY_BUDGET:
                rng.bit_generator.state = state
                rng.integers(0, 2, size=(used + _GENERATION_RETRY_BUDGET - tries, n))
                raise GenerationError(
                    f"could not place {component} pattern for word {i} with min "
                    f"pairwise distance {minimum} in {_GENERATION_RETRY_BUDGET} tries"
                )
            if j == rows:
                tries += rows - used
                used = rows
                break
            placed[i] = block[j]
            ok[j + 1:rows] &= units[j + 1:] @ units[j] <= limit
            i, tries, used = i + 1, 0, j + 1
        if used < rows:
            rng.bit_generator.state = state
            rng.integers(0, 2, size=(used, n))
    return placed


def word_nodes(spec: LexiconSpec, rng: np.random.Generator) -> tuple[WordNode, ...]:
    """The trained, undamaged word nodes of a lexicon, in declaration order.

    Deterministic given the stream state. Random generation that cannot
    satisfy the minimum-distance constraint within the retry budget raises
    GenerationError rather than relaxing the constraint. Each component's
    words are checked and trained as one stack (see `train_each`); each
    word's metamemory references start as the patterns its networks store.
    """
    if spec.words is not None:
        units = {comp: [getattr(w, comp).units for w in spec.words] for comp in COMPONENTS}
    else:
        units = {comp: _generated_units(spec.generator, comp, rng) for comp in COMPONENTS}
    networks = {comp: train_each(units[comp]) for comp in COMPONENTS}
    nodes = []
    for i, word_id in enumerate(spec.word_ids()):
        components = {comp: networks[comp][i] for comp in COMPONENTS}
        refs = {comp: net.stored[0] for comp, net in components.items()}
        nodes.append(WordNode(id=word_id, components=components, metamemory_ref=refs))
    return tuple(nodes)


def corrupt_metamemory(
    node: WordNode, component: str, flips: int, rng: np.random.Generator
) -> WordNode:
    """Return a node whose comparator reference has `flips` units flipped.

    The stored network is untouched: this models a wrong metamemory standard
    (illusory target), not damaged object-level memory.
    """
    if component not in COMPONENTS:
        raise ParameterError(f"unknown component {component!r}")
    n = node.components[component].n
    if not 0 <= flips <= n:
        raise ParameterError(f"flip count must be in [0, {n}], got {flips}")
    idx = rng.choice(n, size=flips, replace=False)
    refs = dict(node.metamemory_ref)
    refs[component] = refs[component].with_flipped(idx)
    return replace(node, metamemory_ref=refs)
