"""Counts the model defines as floors of a fraction (cue units, masked units,
damaged weight pairs) are exact: a fraction is read as the ratio it was
written as, never as a float product that lands just below an integer."""

from fractions import Fraction

import numpy as np
import pytest
from numpy.random import SeedSequence, default_rng

from totsim import parse_config, recall, run_trials, scenarios
from totsim.lexicon import Lexicon
from totsim.network import ComponentNetwork, train
from totsim.patterns import floor_count, random_pattern
from totsim.recall import Classification, RecallParams, recall_word

from helpers import explicit_word, with_uniform_cue


def cue_sizes(monkeypatch):
    """Record the cue size of every probe block the engine draws."""
    sizes = []
    original = recall.generate_probe

    def generate_probe(reference, cue_indices, rng, *args):
        sizes.append(np.asarray(cue_indices).shape[-1])
        return original(reference, cue_indices, rng, *args)

    monkeypatch.setattr(recall, "generate_probe", generate_probe)
    return sizes


def test_cue_count_is_exact_for_every_two_decimal_fraction():
    wrong = [
        (i / 100, n)
        for n in range(1, 201)
        for i in range(101)
        if floor_count(i / 100, n) != i * n // 100
    ]
    assert wrong == []  # e.g. q = 0.7 at N = 90 is 63 units, not 62


def test_linked_cue_fraction_is_summed_exactly(monkeypatch):
    sizes = cue_sizes(monkeypatch)
    p = random_pattern(90, default_rng(SeedSequence(2)))
    lex = Lexicon((explicit_word("w", p),), 0.3)
    params = RecallParams(
        cue_fraction={"semantic": 0.7, "lexical": 0.5, "phonological": 1.0},
        link_gain=0.2,
        fixed_cue_per_episode=True,
    )
    outcome = recall_word(lex, p, params, default_rng(SeedSequence(3)))
    assert outcome.components["semantic"].resolved
    assert sizes[0] == 63  # floor(0.7 * 90), not 62
    assert sizes[1] == 63  # floor((0.5 + 0.2) * 90), not 62


def masked_counts(monkeypatch):
    counts = []
    original = ComponentNetwork.apply_mask

    def apply_mask(net, fraction, rng):
        masked = original(net, fraction, rng)
        counts.append(len(masked.mask) - len(net.mask))
        return masked

    monkeypatch.setattr(ComponentNetwork, "apply_mask", apply_mask)
    return counts


@pytest.mark.parametrize(
    "flips, bonus, expected",
    [
        ((3,), 0.0, 2),  # c = 8/10 masks 2 units, not 1
        ((3, 7), 0.2, 2),  # c = 6/10 + 0.2 = 8/10
    ],
)
def test_mask_count_uses_exact_completeness(monkeypatch, flips, bonus, expected):
    counts = masked_counts(monkeypatch)
    p = random_pattern(10, default_rng(SeedSequence(4)))
    lex = Lexicon((explicit_word("w", p),), 0.3)
    params = with_uniform_cue(1.0)
    outcome = recall_word(
        lex, p.with_flipped(flips), params, default_rng(SeedSequence(5)), bonuses={"w": bonus}
    )
    assert outcome.classification is not Classification.NO_ACCESS
    assert counts == [expected] * 3


def test_damage_count_is_exact():
    # P = 24 * 25 / 2 = 300 pairs; 0.41 * 300 is 122.99999999999999 in floats.
    net = train([random_pattern(24, default_rng(SeedSequence(6)))])
    damaged = net.damage(0.41, default_rng(SeedSequence(7)))
    assert np.count_nonzero(damaged.w_int[np.triu_indices(24)] == 0) == 123


def test_trials_neither_compare_nor_hash_a_fraction(monkeypatch):
    # Exact fractions are resolved when the config and the lexicon are set
    # up; the trial loop hands the attempt engine integer counts only.
    cfg, _ = parse_config(scenarios.load("free_recall", n_trials=200))
    run_trials(cfg)  # reads the set-up's floats into exact_fraction's cache
    calls = dict.fromkeys(("__hash__", "_richcmp"), 0)
    for name in calls:
        original = getattr(Fraction, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(Fraction, name, counted)
    run_trials(cfg)
    assert calls == {"__hash__": 0, "_richcmp": 0}
