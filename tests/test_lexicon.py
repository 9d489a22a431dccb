from dataclasses import FrozenInstanceError
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from numpy.random import SeedSequence, default_rng

from totsim import experiment, lexicon as lexicon_module
from totsim.config import parse_config
from totsim.errors import ConfigError, DimensionError, GenerationError, ParameterError
from totsim.experiment import PrimingEntry, ScenarioConfig, materialize_bonuses
from totsim.lexicon import (
    COMPONENTS,
    Completeness,
    GeneratorSpec,
    Lexicon,
    LexiconSpec,
    WordSpec,
    corrupt_metamemory,
    word_nodes,
)
from totsim.network import ComponentNetwork, train, train_each
from totsim.patterns import BipolarPattern, SlotMap
from totsim.recall import recall_word

from helpers import (
    explicit_word,
    hamming,
    learned,
    reference_generated_patterns,
    reference_select,
    with_uniform_cue,
    word_spec,
)


def lexicon_of(spec, seed):
    nodes = word_nodes(spec, default_rng(SeedSequence(seed)))
    return Lexicon(nodes, spec.selection_threshold, spec.slot_map)


def explicit_lexicon(*specs, threshold=0.3, slots=None):
    spec = LexiconSpec(
        selection_threshold=threshold, words=tuple(specs), slots=slots or {}
    )
    return lexicon_of(spec, 0)


class TestBuildLexicon:
    def test_explicit_word_round_trip(self):
        lex = explicit_lexicon(word_spec("apple", "++-+--++-"))
        node = lex.node_by_id("apple")
        assert learned(node)["semantic"].to_text() == "++-+--++-"
        assert node.metamemory_ref == learned(node)
        for comp in COMPONENTS:
            truth = learned(node)[comp].units
            assert np.array_equal(node.components[comp].retrieve_once(truth), truth)

    def test_generator_respects_min_distance(self):
        spec = LexiconSpec(
            generator=GeneratorSpec(
                count=3,
                lengths={c: 15 for c in COMPONENTS},
                min_pairwise_distance=8,
            )
        )
        lex = lexicon_of(spec, 5)
        assert [n.id for n in lex.nodes] == ["w0", "w1", "w2"]
        for comp in COMPONENTS:
            pats = [learned(n)[comp] for n in lex.nodes]
            for i in range(3):
                for j in range(i + 1, 3):
                    assert hamming(pats[i], pats[j]) >= 8

    def test_generator_deterministic(self):
        spec = LexiconSpec(
            generator=GeneratorSpec(count=2, lengths={c: 9 for c in COMPONENTS})
        )
        a = lexicon_of(spec, 6)
        b = lexicon_of(spec, 6)
        for na, nb in zip(a.nodes, b.nodes):
            assert learned(na) == learned(nb)

    @given(st.integers(1, 40), st.integers(1, 12), st.integers(0, 4), st.integers(0, 2**32 - 1))
    def test_generation_matches_the_per_pair_loop(self, count, n, minimum, seed):
        assume(minimum <= n)
        gen = GeneratorSpec(count, {c: n for c in COMPONENTS}, minimum)
        rng, twin = default_rng(seed), default_rng(seed)
        try:
            want = reference_generated_patterns(gen, "lexical", twin)
        except GenerationError:
            with pytest.raises(GenerationError):
                lexicon_module._generated_units(gen, "lexical", rng)
        else:
            got = lexicon_module._generated_units(gen, "lexical", rng)
            assert got.tolist() == [p.units.tolist() for p in want]
        # The stream is left where one draw per tried candidate leaves it,
        # also when a word found no place.
        assert rng.random() == twin.random()

    @pytest.mark.parametrize("rows", [1, 2, 37])
    @pytest.mark.parametrize("n", [1, 15, 33, 64, 100])
    def test_one_block_draw_is_one_draw_per_row(self, n, rows):
        block_rng, row_rng = default_rng(SeedSequence(n)), default_rng(SeedSequence(n))
        row_rng.integers(0, 2, size=1)  # leave half a 64-bit word buffered
        block_rng.integers(0, 2, size=1)
        block = block_rng.integers(0, 2, size=(rows, n))
        singles = [row_rng.integers(0, 2, size=n) for _ in range(rows)]
        assert np.array_equal(block, np.array(singles))
        assert block_rng.bit_generator.state == row_rng.bit_generator.state

    def test_unsatisfiable_distance_reported(self):
        # At length 4, distance 4 means exact complement: no 3 words fit.
        spec = LexiconSpec(
            generator=GeneratorSpec(
                count=3, lengths={c: 4 for c in COMPONENTS}, min_pairwise_distance=4
            )
        )
        with pytest.raises(GenerationError):
            lexicon_of(spec, 7)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ConfigError):
            explicit_lexicon(word_spec("a", "+++"), word_spec("a", "---"))

    def test_words_and_generator_mutually_exclusive(self):
        with pytest.raises(ConfigError):
            LexiconSpec(
                words=(word_spec("a", "+++"),),
                generator=GeneratorSpec(count=1, lengths={c: 3 for c in COMPONENTS}),
            )

    def test_mixed_lengths_rejected_by_the_spec(self):
        with pytest.raises(ConfigError) as e:
            LexiconSpec(words=(word_spec("a", "+++"), word_spec("b", "++++")))
        assert e.value.path == "lexicon.words[1].semantic"

    def test_mixed_lengths_rejected(self):
        a = explicit_word("a", BipolarPattern.from_text("+++"))
        b = explicit_word("b", BipolarPattern.from_text("++++"))
        with pytest.raises(DimensionError):
            Lexicon((a, b), 0.3)

    def test_slot_map_of_the_wrong_length_rejected(self):
        a = explicit_word("a", BipolarPattern.from_text("+++"))
        with pytest.raises(DimensionError, match="slot map length"):
            Lexicon((a,), 0.3, SlotMap(4, {"first_letter": (0, 1)}))
        # Built without a slot map, a lexicon has no slots.
        assert Lexicon((a,), 0.3).slot_map == SlotMap(3)

    def test_impossible_distance_rejected_by_the_spec(self):
        lengths = {"semantic": 12, "lexical": 9, "phonological": 15}
        with pytest.raises(ConfigError) as e:
            LexiconSpec(generator=GeneratorSpec(2, lengths, min_pairwise_distance=10))
        assert e.value.path == "lexicon.generator.min_pairwise_distance"
        # A distance equal to the shortest length is possible (complements).
        LexiconSpec(generator=GeneratorSpec(2, lengths, min_pairwise_distance=9))

    def test_spec_derives_lengths_ids_and_slot_map(self):
        spec = LexiconSpec(
            generator=GeneratorSpec(3, {"semantic": 12, "lexical": 9, "phonological": 15}),
            slots={"first_letter": (2, 0, 1)},
        )
        assert spec.lengths == {"semantic": 12, "lexical": 9, "phonological": 15}
        assert spec.word_ids() == ["w0", "w1", "w2"]
        assert spec.slot_map.length == 15
        assert spec.slot_map.slots == {"first_letter": (0, 1, 2)}
        explicit = LexiconSpec(words=(word_spec("b", "+-+"), word_spec("a", "---")))
        assert explicit.word_ids() == ["b", "a"]
        assert explicit.has_word("a") and not explicit.has_word("w0")
        assert explicit.lengths == dict.fromkeys(COMPONENTS, 3)


def assert_trained_one_by_one(nodes, truths):
    """Each node holds what `train([truth])` builds, per component, for the
    truths given in node order."""
    assert len(nodes) == len(truths)
    for node, truth in zip(nodes, truths):
        assert learned(node) == truth and node.metamemory_ref == truth
        for comp in COMPONENTS:
            net = node.components[comp]
            (pattern,) = net.stored
            assert np.array_equal(net.w_int, train([pattern]).w_int)
            assert node.metamemory_ref[comp] is pattern
            assert net.damage_fraction == 0.0 and net.mask == frozenset()
            assert not net.w_int.flags.writeable and not pattern.units.flags.writeable


class TestStackedBuild:
    def test_generated_words_match_the_per_word_path(self):
        lengths = {"semantic": 14, "lexical": 13, "phonological": 15}
        spec = LexiconSpec(generator=GeneratorSpec(40, lengths, min_pairwise_distance=3))
        rng, twin = default_rng(SeedSequence(11)), default_rng(SeedSequence(11))
        nodes = word_nodes(spec, rng)
        per_comp = {c: reference_generated_patterns(spec.generator, c, twin) for c in COMPONENTS}
        assert rng.random() == twin.random()
        truths = [{c: per_comp[c][i] for c in COMPONENTS} for i in range(40)]
        assert_trained_one_by_one(nodes, truths)
        # Each component's networks are slabs of one weight stack.
        for comp in COMPONENTS:
            bases = {id(node.components[comp].w_int.base) for node in nodes}
            assert len(bases) == 1

    def test_explicit_words_match_the_per_word_path(self):
        texts = ["++-+--++-", "-+-+-++--", "+++------"]
        words = tuple(
            WordSpec(
                id=f"word{i}",
                semantic=BipolarPattern.from_text(t),
                lexical=BipolarPattern.from_text(t[::-1]),
                phonological=BipolarPattern.from_text(t[1:] + t[0]),
            )
            for i, t in enumerate(texts)
        )
        rng = default_rng(0)
        state = rng.bit_generator.state
        nodes = word_nodes(LexiconSpec(words=words), rng)
        assert rng.bit_generator.state == state  # explicit words draw nothing
        assert [node.id for node in nodes] == ["word0", "word1", "word2"]
        truths = [{c: getattr(word, c) for c in COMPONENTS} for word in words]
        assert_trained_one_by_one(nodes, truths)

    def test_stack_checks_raise_the_pattern_errors(self):
        with pytest.raises(ParameterError, match="^pattern units must be \\+1 or -1$"):
            train_each([[1, -1], [1, 0]])
        with pytest.raises(ParameterError, match="^a pattern needs at least one unit$"):
            train_each(np.ones((2, 0), dtype=np.int64))
        with pytest.raises(ParameterError, match="^a pattern needs at least one unit$"):
            train_each([1, -1])
        assert train_each(np.ones((0, 3), dtype=np.int64)) == []

    def test_the_300_word_lexicon_is_built_as_stacks(self, monkeypatch):
        """The lexicon of perfbench's `lexicon_sweep_w2` workload. Drawn one
        candidate at a time and trained one network at a time, it made 1,831
        `Generator.integers` calls and 900 runs each of
        `ComponentNetwork.__post_init__` and `BipolarPattern.__init__`."""
        lengths = dict.fromkeys(COMPONENTS, 15)
        cfg, _ = parse_config(
            {
                "seed": 1,
                "target": "w0",
                "lexicon": {
                    "generator": {"count": 300, "lengths": lengths, "min_pairwise_distance": 3}
                },
            }
        )
        want = experiment.build_scenario_lexicon(cfg)
        counts = dict.fromkeys(("integers", "network", "pattern"), 0)

        class CountingGenerator(np.random.Generator):
            def integers(self, *args, **kwargs):
                counts["integers"] += 1
                return super().integers(*args, **kwargs)

        def counted(name, real):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            experiment, "default_rng", lambda seed: CountingGenerator(np.random.PCG64(seed))
        )
        monkeypatch.setattr(
            ComponentNetwork, "__post_init__", counted("network", ComponentNetwork.__post_init__)
        )
        monkeypatch.setattr(BipolarPattern, "__init__", counted("pattern", BipolarPattern.__init__))
        lex = experiment.build_scenario_lexicon(cfg)
        assert [learned(node) for node in lex.nodes] == [learned(node) for node in want.nodes]
        assert counts == {"integers": 8, "network": 0, "pattern": 0}


class TestSelectNode:
    def test_exact_input_selects_with_full_completeness(self):
        lex = explicit_lexicon(word_spec("apple", "++-+--++-"))
        node, completeness = lex.select_node(BipolarPattern.from_text("++-+--++-"))
        assert node.id == "apple" and completeness.exact == Fraction(1)

    def test_primed_score_equal_to_the_threshold_selects(self):
        # Overlap 14 of 20 plus 0.1 is exactly 0.8, though the float sum
        # 14 / 20 + 0.1 is 0.7999999999999999.
        p = BipolarPattern([1] * 20)
        lex = Lexicon((explicit_word("w", p),), selection_threshold=0.8)
        x = p.with_flipped([0, 1, 2])
        assert lex.select_node(x) is None
        node, _ = lex.select_node(x, {"w": 0.1})
        assert node.id == "w"

    def test_primed_winner_reports_its_exact_score(self):
        # The completeness of a primed winner is the exact score it was
        # selected and masked with, 14 / 20 + 1 / 10 = 4 / 5, not the float
        # sum 0.7999999999999999, which lies below the threshold it cleared.
        p = BipolarPattern([1] * 20)
        lex = Lexicon((explicit_word("w", p),), selection_threshold=0.8)
        x = p.with_flipped([0, 1, 2])
        node, completeness = lex.select_node(x, {"w": 0.1})
        assert node.id == "w" and completeness.exact == Fraction(4, 5)
        params = with_uniform_cue(1.0)
        outcome = recall_word(lex, x, params, default_rng(0), {"w": 0.1})
        assert outcome.completeness == 0.8

    def test_unprimed_overlap_at_the_threshold_selects(self):
        # ceil(0.7 * 20) = 14: overlap 14 selects, overlap 12 does not.
        p = BipolarPattern([1] * 20)
        lex = Lexicon((explicit_word("w", p),), selection_threshold=0.7)
        node, completeness = lex.select_node(p.with_flipped([0, 1, 2]))
        assert node.id == "w" and completeness.exact == Fraction(7, 10)
        assert lex.select_node(p.with_flipped([0, 1, 2, 3])) is None

    def test_primed_and_unprimed_exact_tie_goes_to_the_smaller_id(self):
        # Over all +1 input, "b" scores 16 / 20 = 0.8 unprimed and "a" scores
        # 14 / 20 + 0.1 = 0.8 primed: a tie, so "a" wins. In floats "a"
        # scores 0.7999999999999999 and would lose.
        x = BipolarPattern([1] * 20)
        lex = Lexicon(
            (explicit_word("a", x.with_flipped([0, 1, 2])), explicit_word("b", x.with_flipped([0, 1]))),
            selection_threshold=0.5,
        )
        assert lex.select_node(x)[0].id == "b"
        assert lex.select_node(x, {"a": 0.1})[0].id == "a"

    def test_orthogonal_input_yields_no_selection(self):
        lex = explicit_lexicon(word_spec("apple", "++++----"))
        orthogonal = BipolarPattern.from_text("++--++--")
        assert lex.select_node(orthogonal) is None

    def test_negatively_correlated_input_yields_no_selection(self):
        lex = explicit_lexicon(word_spec("apple", "++-+--++-"))
        assert lex.select_node(BipolarPattern.from_text("++-+--++-").negate()) is None

    def test_priming_flips_selection(self):
        # Input overlaps a at 0.5 and b at 0.25; a 0.3 bonus on b wins 0.55 > 0.5.
        a = BipolarPattern([1] * 16)
        b = BipolarPattern([1] * 10 + [-1] * 6)
        x = a.with_flipped([8, 9, 10, 11])
        lex = Lexicon(
            (
                explicit_word("a", a),
                explicit_word("b", b),
            ),
            selection_threshold=0.3,
        )
        node, completeness = lex.select_node(x)
        assert node.id == "a" and completeness.exact == Fraction(1, 2)
        node, completeness = lex.select_node(x, bonuses={"b": 0.3})
        assert node.id == "b" and completeness.exact == Fraction(11, 20)

    def test_priming_expires_exactly(self):
        # A prime with decay_trials = 2 wins trials 0 and 1 and is gone at 2.
        a = BipolarPattern([1] * 16)
        b = BipolarPattern([1] * 10 + [-1] * 6)
        x = a.with_flipped([8, 9, 10, 11])
        lex = Lexicon((explicit_word("a", a), explicit_word("b", b)), 0.3)
        cfg = ScenarioConfig(
            seed=0,
            lexicon=LexiconSpec(words=(word_spec("a", "+"),)),
            target="a",
            recall=with_uniform_cue(0.0),
            priming=(PrimingEntry("b", 0.3, decay_trials=2),),
        )
        winners = [
            lex.select_node(x, bonuses=materialize_bonuses(cfg, trial))[0].id
            for trial in range(3)
        ]
        assert winners == ["b", "b", "a"]

    def test_priming_the_winner_keeps_the_winner(self):
        a = BipolarPattern([1] * 16)
        b = BipolarPattern([1] * 10 + [-1] * 6)
        x = a.with_flipped([8, 9, 10, 11])
        lex = Lexicon((explicit_word("a", a), explicit_word("b", b)), 0.3)
        assert lex.select_node(x, bonuses={"a": 0.4})[0].id == "a"

    def test_zero_bonus_changes_nothing(self):
        a = BipolarPattern([1] * 16)
        b = BipolarPattern([1] * 10 + [-1] * 6)
        x = a.with_flipped([8, 9, 10, 11])
        lex = Lexicon((explicit_word("a", a), explicit_word("b", b)), 0.3)
        assert lex.select_node(x, bonuses={"b": 0.0})[0].id == "a"

    def test_uniform_bonus_keeps_argmax(self):
        a = BipolarPattern([1] * 16)
        b = BipolarPattern([1] * 10 + [-1] * 6)
        x = a.with_flipped([8, 9, 10, 11])
        lex = Lexicon((explicit_word("a", a), explicit_word("b", b)), 0.1)
        baseline = lex.select_node(x, bonuses={})[0].id
        boosted = lex.select_node(x, bonuses={"a": 0.2, "b": 0.2})[0].id
        assert baseline == boosted

    def test_tie_breaks_lexicographically(self):
        p = BipolarPattern.from_text("++-+--++-")
        lex = Lexicon((explicit_word("zeta", p), explicit_word("alpha", p)), 0.3)
        assert lex.select_node(p)[0].id == "alpha"

    def test_selection_is_a_function_of_input_and_bonuses(self):
        a = BipolarPattern([1] * 16)
        b = BipolarPattern([1] * 10 + [-1] * 6)
        x = a.with_flipped([8, 9, 10, 11])
        lex = Lexicon((explicit_word("a", a), explicit_word("b", b)), 0.3)
        primed = [lex.select_node(x, bonuses={"b": 0.3})[0].id for _ in range(3)]
        assert primed == ["b", "b", "b"]
        assert lex.select_node(x)[0].id == "a"
        with pytest.raises(FrozenInstanceError):
            lex.selection_threshold = 0.9

    def test_empty_lexicon_rejected(self):
        with pytest.raises(ConfigError) as err:
            Lexicon((), 0.3)
        assert err.value.path == "lexicon"

    def test_length_mismatch_rejected(self):
        lex = explicit_lexicon(word_spec("a", "+++"))
        with pytest.raises(DimensionError):
            lex.select_node(BipolarPattern([1, 1]))


# Ids whose lexicographic order differs from their numeric order ("w10" < "w2").
IDS = ("w0", "w1", "w2", "w10", "w11", "w20", "alpha", "zeta")


@st.composite
def selections(draw):
    """A lexicon drawn from few distinct patterns (so overlaps tie across
    ids), a semantic input (sometimes the negation of a word, so no overlap
    is positive) and bonuses that may exceed the cap, name no word or, as
    the API allows but no config does, be negative."""
    n = draw(st.integers(1, 20))
    pattern = st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n).map(BipolarPattern)
    pool = draw(st.lists(pattern, min_size=1, max_size=3))
    ids = draw(st.lists(st.sampled_from(IDS), min_size=1, max_size=len(IDS), unique=True))
    nodes = tuple(explicit_word(i, draw(st.sampled_from(pool))) for i in ids)
    lex = Lexicon(nodes, draw(st.sampled_from((0.01, 0.3, 0.5, 0.7, 0.8, 1.0))))
    x = draw(st.one_of(pattern, st.sampled_from(pool).map(BipolarPattern.negate)))
    bonus = st.one_of(st.sampled_from((0.0, 0.1, 0.2, 0.25, 1.0, -0.5)), st.floats(-1.0, 1.0))
    bonuses = draw(st.dictionaries(st.sampled_from(IDS + ("ghost",)), bonus, max_size=4))
    return lex, x, bonuses


class TestSelectionMatchesPerNodeLoop:
    @given(selections())
    def test_select_node_matches_the_reference(self, case):
        lex, x, bonuses = case
        got = lex.select_node(x, bonuses)
        want = reference_select(lex, x, bonuses)
        if want is None:
            assert got is None
        else:
            assert got is not None
            assert got[0] is want[0] and got[1] == Completeness.of(want[1])

    @given(selections(), st.sampled_from((-1, 1)))
    def test_wrong_input_length_raises(self, case, delta):
        lex, x, bonuses = case
        length = len(x) + delta if len(x) + delta > 0 else len(x) + 1
        with pytest.raises(DimensionError):
            lex.select_node(BipolarPattern([1] * length), bonuses)

    def test_tie_across_numbered_ids_goes_to_the_smaller_string(self):
        p = BipolarPattern.from_text("++-+--++-")
        lex = Lexicon(tuple(explicit_word(i, p) for i in ("w2", "w10", "w3")), 0.3)
        assert lex.select_node(p)[0].id == "w10"
        assert lex.select_node(p, {"w2": 0.5})[0].id == "w10"  # both capped at 1

    def test_no_positive_overlap_selects_only_a_primed_word(self):
        p = BipolarPattern.from_text("++++")
        lex = Lexicon(tuple(explicit_word(i, p) for i in ("w2", "w10", "w3")), 0.2)
        assert lex.select_node(p.negate()) is None
        node, score = lex.select_node(p.negate(), {"w10": 0.1, "w3": 0.25, "ghost": 0.9})
        assert node.id == "w3" and score.exact == Fraction(1, 4)

    def test_negative_bonus_on_the_best_word_hands_selection_on(self):
        a = BipolarPattern([1] * 16)
        b = BipolarPattern([1] * 10 + [-1] * 6)
        x = a.with_flipped([8, 9, 10, 11])  # overlaps: a 0.5, b 0.25
        lex = Lexicon((explicit_word("a", a), explicit_word("b", b)), 0.1)
        node, score = lex.select_node(x, {"a": -0.4})
        assert node.id == "b" and score.exact == Fraction(1, 4)

    def test_selection_makes_no_per_node_overlap_call(self, monkeypatch):
        lengths = {c: 15 for c in COMPONENTS}
        spec = LexiconSpec(generator=GeneratorSpec(300, lengths, min_pairwise_distance=3))
        lex = lexicon_of(spec, 9)
        calls = []
        real = lexicon_module.overlap
        monkeypatch.setattr(lexicon_module, "overlap", lambda *a: calls.append(1) or real(*a))
        x = learned(lex.node_by_id("w7"))["semantic"]
        assert lex.select_node(x)[0].id == "w7"
        assert lex.select_node(x, {"w8": 1.0, "w9": 0.1})[0].id == "w7"
        assert calls == [1, 1]  # one block call per selection, none per node


class TestCorruptMetamemory:
    def test_flips_reference_only(self):
        lex = explicit_lexicon(word_spec("a", "++-+--++-"))
        node = corrupt_metamemory(
            lex.node_by_id("a"), "phonological", 1, default_rng(SeedSequence(8))
        )
        assert hamming(node.metamemory_ref["phonological"], learned(node)["phonological"]) == 1
        assert node.metamemory_ref["semantic"] == learned(node)["semantic"]
        truth = learned(node)["phonological"].units
        assert np.array_equal(node.components["phonological"].retrieve_once(truth), truth)

    def test_invalid_flip_count(self):
        lex = explicit_lexicon(word_spec("a", "+++"))
        with pytest.raises(ParameterError):
            corrupt_metamemory(lex.node_by_id("a"), "semantic", 4, default_rng(0))


