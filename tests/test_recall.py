from dataclasses import asdict, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.random import SeedSequence, default_rng

from totsim import recall
from totsim.errors import DimensionError, ParameterError
from totsim.lexicon import COMPONENTS, Lexicon, corrupt_metamemory
from totsim.network import train
from totsim.patterns import BipolarPattern, SlotMap, random_pattern
from totsim.recall import (
    Classification,
    ComponentOutcome,
    RecallParams,
    chronometry,
    classify_outcome,
    compare,
    generate_probe,
    is_strong,
    recall_component,
    recall_word,
)

from helpers import assert_uniform_subsets, explicit_word, with_uniform_cue

P9 = BipolarPattern.from_text("++-+--++-")


def spy_cues(monkeypatch):
    """Record the cue units of every probe block built, as a set."""
    cues = []
    original = recall.generate_probe

    def generate_probe(ref_units, cue_indices, uniforms):
        cues.append(frozenset(np.asarray(cue_indices).tolist()))
        return original(ref_units, cue_indices, uniforms)

    monkeypatch.setattr(recall, "generate_probe", generate_probe)
    return cues


def single_word_lexicon(pattern=P9, threshold=0.3):
    return Lexicon((explicit_word("target", pattern),), threshold)


class TestChronometry:
    def test_single_attempt(self):
        assert chronometry(1, 1.0, 10.0) == 1.0

    def test_three_attempts(self):
        assert chronometry(3, 1.0, 10.0) == 23.0

    def test_zero_attempts(self):
        assert chronometry(0, 1.0, 10.0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ParameterError):
            chronometry(-1, 1.0, 10.0)
        with pytest.raises(ParameterError):
            chronometry(1, -1.0, 10.0)

    @given(st.integers(1, 10))
    def test_affine_in_attempts(self, attempts):
        spike, interval = 1.0, 10.0
        assert (
            chronometry(attempts + 1, spike, interval)
            - chronometry(attempts, spike, interval)
            == spike + interval
        )


class TestGenerateProbe:
    def test_full_cue_reproduces_reference(self):
        probe = generate_probe(P9.units, range(9), default_rng(0).random((1, 9)))[0]
        assert np.array_equal(probe, P9.units)

    def test_no_cue_is_unconstrained(self):
        # Free recall: over many draws every position must vary.
        rng = default_rng(SeedSequence(1))
        seen_disagreement = np.zeros(9, dtype=bool)
        for _ in range(200):
            probe = generate_probe(P9.units, [], rng.random((1, 9)))[0]
            seen_disagreement |= probe != P9.units
        assert seen_disagreement.all()

    def test_cue_clamped_others_near_half(self):
        rng = default_rng(SeedSequence(2))
        cue = (0, 1, 2)
        agree = np.zeros(9)
        draws = 2000
        for _ in range(draws):
            probe = generate_probe(P9.units, cue, rng.random((1, 9)))[0]
            agree += probe == P9.units
        rates = agree / draws
        assert np.all(rates[list(cue)] == 1.0)
        assert np.all(np.abs(rates[3:] - 0.5) < 0.05)

    def test_out_of_range_cue_rejected(self):
        with pytest.raises(DimensionError):
            generate_probe(P9.units, [9], default_rng(0).random((1, 9)))


class TestCompare:
    def test_equal(self):
        assert compare(P9.units, P9.units)

    def test_one_flip(self):
        assert not compare(P9.with_flipped([0]).units, P9.units)

    def test_negation(self):
        assert not compare(P9.negate().units, P9.units)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            compare(P9.units, BipolarPattern([1, 1]).units)


class TestRecallComponent:
    def test_majority_cue_resolves_first_attempt(self):
        net = train([P9])
        for seed in range(20):
            out = recall_component(net, P9, 5, 64, default_rng(SeedSequence(seed)))
            assert out.resolved and out.attempts == 1 and out.best_overlap_frac == 1.0

    def test_free_recall_attempts_are_geometric(self):
        net = train([P9])
        rng = default_rng(SeedSequence(3))
        attempts = [recall_component(net, P9, 0, 64, rng).attempts for _ in range(2000)]
        assert 1.85 <= np.mean(attempts) <= 2.15

    def test_corrupt_reference_never_resolves(self):
        # Outputs are always +/-p, so a reference one flip away is unreachable.
        net = train([P9])
        ref = P9.with_flipped([0])
        out = recall_component(net, ref, 0, 200, default_rng(SeedSequence(4)))
        assert not out.resolved
        assert out.attempts == 200
        assert out.best_overlap_frac == 7 / 9
        assert np.array_equal(out.best_output, P9.units)

    def test_stop_correctness(self):
        net = train([P9])
        out = recall_component(net, P9, 0, 64, default_rng(SeedSequence(5)))
        assert out.resolved
        assert np.array_equal(out.best_output, P9.units)
        # The same stream cut one attempt short draws the same earlier
        # probes, none of which matched: the loop stopped at the first match.
        assert out.attempts > 1
        short = recall_component(net, P9, 0, out.attempts - 1, default_rng(SeedSequence(5)))
        assert not short.resolved
        # A stopped loop costs the time of its attempts, not of the budget.
        assert chronometry(out.attempts, 1.0, 10.0) < chronometry(64, 1.0, 10.0)

    def test_fixed_cue_is_clamped_in_every_row(self, monkeypatch):
        # An unreachable reference runs all 16 attempts, in chunks of 4.
        monkeypatch.setattr(recall, "_ATTEMPT_CHUNK", 4)
        blocks = []
        original = recall.generate_probe

        def generate_probe(ref_units, cue_indices, uniforms):
            probes = original(ref_units, cue_indices, uniforms)
            blocks.append((np.asarray(cue_indices), probes))
            return probes

        monkeypatch.setattr(recall, "generate_probe", generate_probe)
        ref = P9.with_flipped([0])
        out = recall_component(train([P9]), ref, 3, 16, default_rng(0), fixed_cue=True)
        assert out.attempts == 16 and len(blocks) == 4
        cue = blocks[0][0]
        assert cue.shape == (3,) and len(set(cue.tolist())) == 3
        for cues, probes in blocks:
            assert np.array_equal(cues, cue)
            assert (probes[:, cue] == ref.units[cue]).all()

    @pytest.mark.parametrize("k", [0, 3, 9])
    def test_a_fixed_cue_is_the_units_of_the_k_smallest_keys(self, monkeypatch, k):
        """A fixed cue is one row of N uniform keys, drawn before the probe
        block also when k is 0 or N, and its units are those of the k
        smallest keys; a uint32 buffered before the loop stays buffered."""
        cues = spy_cues(monkeypatch)
        rng, twin = default_rng(30), default_rng(30)
        for g in (rng, twin):
            g.integers(0, 2**32, dtype=np.uint32)
        out = recall_component(train([P9]), P9.with_flipped([0]), k, 4, rng, fixed_cue=True)
        assert out.attempts == 4  # no output is the flipped reference
        want = np.argpartition(twin.random(9), k - 1)[:k]
        twin.random((4, 9))
        assert rng.bit_generator.state == twin.bit_generator.state
        # A full cue's loop is evaluated from the network's image, no probe.
        assert cues == ([] if k == 9 else [frozenset(want.tolist())])

    @pytest.mark.parametrize("n, k", [(5, 2), (6, 3)])
    def test_fixed_cues_are_uniform_over_the_subsets(self, monkeypatch, n, k):
        cues = spy_cues(monkeypatch)
        p, rng = random_pattern(n, default_rng(31)), default_rng(32)
        net = train([p])
        for _ in range(20_000):
            recall_component(net, p, k, 1, rng, fixed_cue=True)
        assert_uniform_subsets(cues, n, k)

    def test_parameter_validation(self):
        net = train([P9])
        for cue_size in (-1, 10, 4.0, 4.5):  # outside [0, 9], or not an integer
            with pytest.raises(ParameterError):
                recall_component(net, P9, cue_size, 64, default_rng(0))
        for max_attempts in (0, 2.5):
            with pytest.raises(ParameterError):
                recall_component(net, P9, 4, max_attempts, default_rng(0))
        with pytest.raises(DimensionError):
            recall_component(net, BipolarPattern([1, 1]), 1, 4, default_rng(0))

    def test_integer_subclasses_are_integers(self):
        net = train([P9])
        out = recall_component(net, P9, np.int64(5), np.int64(3), default_rng(0))
        assert out.resolved and out.attempts == 1
        assert recall_component(net, P9, True, True, default_rng(0)).attempts == 1
        with pytest.raises(ParameterError, match="cue_size must be an integer in"):
            recall_component(net, P9, np.float64(5), 3, default_rng(0))
        with pytest.raises(ParameterError, match="max_attempts must be an integer"):
            recall_component(net, P9, 5, 3.0, default_rng(0))


class TestClassifyOutcome:
    def resolved(self):
        return ComponentOutcome(True, 1, 1.0, P9.units)

    def unresolved(self, best=0.5):
        return ComponentOutcome(False, 64, best, P9.units)

    def test_all_resolved(self):
        outcomes = {c: self.resolved() for c in COMPONENTS}
        assert classify_outcome(outcomes) == (Classification.RESOLVED, 1.0)

    def test_tot_strength_from_phonological_overlap(self):
        outcomes = {
            "semantic": self.resolved(),
            "lexical": self.resolved(),
            "phonological": self.unresolved(best=7 / 9),
        }
        classification, strength = classify_outcome(outcomes)
        assert classification is Classification.TOT
        assert strength == 7 / 9
        assert is_strong(strength, 0.7)
        assert not is_strong(strength, 0.8)

    def test_negative_overlap_clamped(self):
        outcomes = {
            "semantic": self.resolved(),
            "lexical": self.resolved(),
            "phonological": self.unresolved(best=-0.3),
        }
        assert classify_outcome(outcomes) == (Classification.TOT, 0.0)


class TestRecallWord:
    def perfect_params(self, **kw):
        return with_uniform_cue(1.0, **kw)

    def test_perfect_conditions_resolve_in_one_attempt_each(self):
        lex = single_word_lexicon()
        out = recall_word(lex, P9, self.perfect_params(), default_rng(SeedSequence(6)))
        assert out.classification is Classification.RESOLVED
        assert out.completeness == 1.0
        assert all(out.components[c].attempts == 1 for c in COMPONENTS)
        assert out.total_time_ms == 3 * chronometry(1, 1.0, 10.0)
        assert out.tot_strength == 1.0

    def test_selection_failure_attempts_nothing(self):
        lex = single_word_lexicon()
        out = recall_word(
            lex, P9.negate(), self.perfect_params(), default_rng(SeedSequence(7))
        )
        assert out.classification is Classification.NO_ACCESS
        assert all(out.components[c].attempts == 0 for c in COMPONENTS)
        assert out.total_time_ms == 0.0

    def test_no_access_reports_every_declared_slot(self):
        slots = SlotMap(9, {"first_letter": (0, 1, 2)})
        lex = Lexicon((explicit_word("target", P9),), 0.3, slots)
        out = recall_word(lex, P9.negate(), self.perfect_params(), default_rng(SeedSequence(7)))
        assert out.classification is Classification.NO_ACCESS
        assert out.partial_info == {"first_letter": False}

    def test_cascade_aborts_after_failed_component(self):
        # Unreachable semantic reference: lexical/phonological never run.
        node = explicit_word("target", P9)
        node = corrupt_metamemory(node, "semantic", 1, default_rng(SeedSequence(8)))
        lex = Lexicon((node,), 0.3)
        params = with_uniform_cue(0.0, max_attempts=8)
        out = recall_word(lex, P9, params, default_rng(SeedSequence(9)))
        assert out.classification is Classification.TOT
        assert out.components["semantic"].attempts == 8
        assert out.components["lexical"].attempts == 0
        assert out.components["phonological"].attempts == 0
        assert out.tot_strength == 0.0

    def test_link_gain_propagates_cue(self):
        # q_phon + gain crosses the guarantee threshold floor(q*9) = 5.
        lex = single_word_lexicon()
        params = RecallParams(
            cue_fraction={"semantic": 1.0, "lexical": 1.0, "phonological": 0.2},
            link_gain=0.4,
            max_attempts=16,
        )
        for seed in range(30):
            out = recall_word(lex, P9, params, default_rng(SeedSequence(seed)))
            assert out.classification is Classification.RESOLVED
            assert out.components["phonological"].attempts == 1

    def test_without_link_gain_no_guarantee(self):
        lex = single_word_lexicon()
        params = RecallParams(
            cue_fraction={"semantic": 1.0, "lexical": 1.0, "phonological": 0.2},
            link_gain=0.0,
            max_attempts=16,
        )
        attempts = [
            recall_word(lex, P9, params, default_rng(SeedSequence(seed)))
            .components["phonological"]
            .attempts
            for seed in range(50)
        ]
        assert max(attempts) > 1

    def test_illusory_reference_yields_tot(self):
        node = explicit_word("target", P9)
        node = corrupt_metamemory(node, "phonological", 1, default_rng(SeedSequence(10)))
        lex = Lexicon((node,), 0.3)
        params = RecallParams(
            cue_fraction={"semantic": 1.0, "lexical": 1.0, "phonological": 0.0},
            max_attempts=64,
        )
        out = recall_word(lex, P9, params, default_rng(SeedSequence(11)))
        assert out.classification is Classification.TOT
        assert out.tot_strength == 7 / 9

    def test_fixed_cue_per_episode_is_deterministic(self):
        lex = single_word_lexicon()
        params = with_uniform_cue(
            3 / 9, max_attempts=16, fixed_cue_per_episode=True
        )
        a = recall_word(lex, P9, params, default_rng(SeedSequence(12)))
        b = recall_word(lex, P9, params, default_rng(SeedSequence(12)))
        assert a == b
        for comp in COMPONENTS:  # `==` leaves the best output rows out
            assert np.array_equal(a.components[comp].best_output, b.components[comp].best_output)

    @pytest.mark.parametrize("corrupt", [None, "semantic", "phonological"])
    def test_fixed_cue_counts_once_per_component(self, monkeypatch, corrupt):
        calls = []
        original = recall.floor_count

        def floor_count(fraction, total):
            calls.append((fraction, total))
            return original(fraction, total)

        monkeypatch.setattr(recall, "floor_count", floor_count)
        node = explicit_word("target", P9)
        if corrupt:
            node = corrupt_metamemory(node, corrupt, 1, default_rng(SeedSequence(15)))
        params = with_uniform_cue(
            3 / 9, max_attempts=16, fixed_cue_per_episode=True
        )
        lex = Lexicon((node,), 0.3)
        for seed in (16, 17):
            out = recall_word(lex, P9, params, default_rng(SeedSequence(seed)))
            reached = sum(out.components[c].attempts > 0 for c in COMPONENTS)
            assert reached == (1 if corrupt == "semantic" else 3)
        # The parameters derive each component's count once, for every
        # episode on the lexicon, whichever components an episode reaches.
        assert calls == [(params.cue[c], 9) for c in COMPONENTS]

    def test_partial_info_reported_from_best_output(self):
        slots = SlotMap(9, {"first_letter": (0, 1, 2)})
        lex = Lexicon((explicit_word("target", P9),), 0.3, slots)
        out = recall_word(
            lex, P9, with_uniform_cue(1.0), default_rng(SeedSequence(13))
        )
        assert out.partial_info == {"first_letter": True}

    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.2, 0.5]), st.sampled_from([0.0, 0.3]))
    def test_classification_partition_invariants(self, seed, q, flip_share):
        rng = default_rng(SeedSequence(seed))
        pattern = random_pattern(9, rng)
        node = explicit_word("target", pattern)
        lex = Lexicon((node,), 0.4)
        semantic_input = pattern.with_flipped(
            rng.choice(9, size=int(flip_share * 9), replace=False)
        )
        params = with_uniform_cue(q, max_attempts=8)
        out = recall_word(lex, semantic_input, params, rng)
        kinds = [
            out.classification is Classification.RESOLVED,
            out.classification is Classification.TOT,
            out.classification is Classification.NO_ACCESS,
        ]
        assert sum(kinds) == 1
        resolved_all = all(out.components[c].resolved for c in COMPONENTS)
        assert (out.classification is Classification.RESOLVED) == resolved_all
        assert (out.classification is Classification.TOT) == (
            out.classification is not Classification.NO_ACCESS
            and not out.components["phonological"].resolved
        )
        assert (out.classification is Classification.NO_ACCESS) == (out.completeness == 0.0)
        assert out.total_time_ms == sum(
            chronometry(out.components[c].attempts, 1.0, 10.0) for c in COMPONENTS
        )


class TestOutcomeEquality:
    def test_same_seed_outcomes_compare_equal(self):
        lex = single_word_lexicon()
        params = with_uniform_cue(3 / 9, max_attempts=16)
        a = recall_word(lex, P9, params, default_rng(SeedSequence(14)))
        b = recall_word(lex, P9, params, default_rng(SeedSequence(14)))
        assert a.components["phonological"].best_output is not None
        assert (a == b) is True
        phon = a.components["phonological"]
        later = replace(phon, attempts=phon.attempts + 1)
        assert a != replace(a, components={**a.components, "phonological": later})


class TestRecallParams:
    def test_validation(self):
        with pytest.raises(ParameterError):
            with_uniform_cue(1.2)
        with pytest.raises(ParameterError):
            with_uniform_cue(0.5, max_attempts=0)
        with pytest.raises(ParameterError):
            with_uniform_cue(0.5, spike_ms=0.0)
        with pytest.raises(ParameterError):
            with_uniform_cue(0.5, strength_threshold=1.0)
        with pytest.raises(ParameterError):
            RecallParams(cue_fraction={"semantic": 0.5})

    def test_cue_is_derived_once_outside_the_fields(self):
        params = RecallParams(
            cue_fraction={"semantic": 0.5, "lexical": 0.5, "phonological": 0.9},
            link_gain=0.2,
        )
        # The first component gets its q; later ones min(1, q + gain), exactly.
        assert params.cue == {
            "semantic": Fraction(1, 2),
            "lexical": Fraction(7, 10),
            "phonological": Fraction(1),
        }
        assert "cue" not in asdict(params)
        assert replace(params, link_gain=0.0).cue["lexical"] == Fraction(1, 2)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("spike_ms", float("nan")),
            ("spike_ms", float("inf")),
            ("interval_ms", float("nan")),
            ("interval_ms", float("inf")),
            ("max_attempts", 2.5),
        ],
    )
    def test_values_json_cannot_carry_rejected(self, field, value):
        with pytest.raises(ParameterError):
            with_uniform_cue(0.5, **{field: value})
