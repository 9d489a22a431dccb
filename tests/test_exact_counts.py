"""Counts the model defines as floors of a fraction (cue units, masked units,
damaged weight pairs) are exact: a fraction is read as the ratio it was
written as, never as a float product that lands just below an integer."""

from fractions import Fraction

import numpy as np
import pytest
from numpy.random import SeedSequence, default_rng

from totsim import parse_config, recall, run_trials, scenarios
from totsim.lexicon import COMPONENTS, Lexicon
from totsim.network import ComponentNetwork, train
from totsim.patterns import BipolarPattern, floor_count, random_pattern
from totsim.recall import Classification, RecallParams, recall_word

from helpers import explicit_word, with_uniform_cue


def cue_sizes(monkeypatch):
    """Record, per attempt loop, the cue size of every pass's probe block."""
    sizes = []
    loop, probe = recall.recall_component, recall.generate_probe

    def recall_component(*args, **kwargs):
        sizes.append(set())
        return loop(*args, **kwargs)

    def generate_probe(reference, cue_indices, uniforms):
        sizes[-1].add(np.asarray(cue_indices).shape[-1])
        return probe(reference, cue_indices, uniforms)

    monkeypatch.setattr(recall, "recall_component", recall_component)
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
    assert sizes[0] == {63}  # floor(0.7 * 90), not 62
    assert sizes[1] == {63}  # floor((0.5 + 0.2) * 90), not 62


def masks_drawn(monkeypatch, node):
    """Record, per mask drawn, the component of `node` whose network it
    masks and how many units it adds."""
    drawn = []
    original = ComponentNetwork.apply_mask
    component = {id(net): comp for comp, net in node.components.items()}

    def apply_mask(net, fraction, rng):
        masked = original(net, fraction, rng)
        drawn.append((component[id(net)], len(masked.mask) - len(net.mask)))
        return masked

    monkeypatch.setattr(ComponentNetwork, "apply_mask", apply_mask)
    return drawn


@pytest.mark.parametrize(
    "units, flips, bonus, expected, reached",
    [
        (None, (3,), 0.0, 2, 1),  # c = 8/10 masks 2 units, not 1
        (None, (3, 7), 0.2, 2, 1),  # c = 6/10 + 0.2 = 8/10
        ([1] * 10, (3,), 0.0, 2, 3),  # masked units output +1, as this word is
    ],
)
def test_mask_count_uses_exact_completeness(monkeypatch, units, flips, bonus, expected, reached):
    """Every mask drawn silences floor((1 - c) * n) units, and only the
    components the cascade reaches are masked: one that stops at the
    semantic component draws one mask."""
    p = BipolarPattern(units) if units else random_pattern(10, default_rng(SeedSequence(4)))
    node = explicit_word("w", p)
    drawn = masks_drawn(monkeypatch, node)
    lex = Lexicon((node,), 0.3)
    params = with_uniform_cue(1.0)
    outcome = recall_word(
        lex, p.with_flipped(flips), params, default_rng(SeedSequence(5)), bonuses={"w": bonus}
    )
    assert outcome.classification is not Classification.NO_ACCESS
    hit = [comp for comp in COMPONENTS if outcome.components[comp].attempts]
    assert hit == list(COMPONENTS[:reached])
    assert drawn == [(comp, expected) for comp in hit]


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
