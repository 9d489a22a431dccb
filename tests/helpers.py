"""Shared builders for the test suite."""

import itertools
import math
from fractions import Fraction

import numpy as np
from numpy.random import PCG64DXSM, Generator, SeedSequence, default_rng

from totsim.errors import GenerationError
from totsim.experiment import exact_success_prob
from totsim.lexicon import COMPONENTS, WordNode, WordSpec
from totsim.network import train
from totsim.patterns import BipolarPattern, exact_fraction, random_pattern
from totsim.recall import RecallParams


def word_spec(word_id, text):
    p = BipolarPattern.from_text(text)
    return WordSpec(id=word_id, semantic=p, lexical=p, phonological=p)


def hamming(a, b):
    """Number of units where two patterns differ; overlap = N - 2 * hamming."""
    return int(np.count_nonzero(a.units != b.units))


def explicit_word(word_id, pattern):
    """A single trained node, same pattern on all three components."""
    return WordNode(
        id=word_id,
        components={c: train([pattern]) for c in COMPONENTS},
        metamemory_ref={c: pattern for c in COMPONENTS},
    )


def assert_uniform_subsets(draws, n, k):
    """Each k-subset of n units drawn holds a share of `draws` within 5
    binomial standard errors of 1 / C(n, k), and no other set is drawn."""
    counts = dict.fromkeys(map(frozenset, itertools.combinations(range(n), k)), 0)
    for units in draws:
        counts[frozenset(units)] += 1
    assert len(counts) == math.comb(n, k) and sum(counts.values()) == len(draws)
    p = 1 / math.comb(n, k)
    se = math.sqrt(p * (1 - p) / len(draws))
    assert all(abs(c / len(draws) - p) <= 5 * se for c in counts.values()), counts


def learned(node):
    """A node's learned pattern per component: the one its network stores."""
    return {c: node.components[c].stored[0] for c in COMPONENTS}


def reference_select(lex, semantic_input, bonuses):
    """Stage-one selection as a plain per-node loop, the rule that
    `Lexicon.select_node` vectorizes: each node scores
    min(1, max(0, overlap / N) + bonus) in exact arithmetic, the bonus read
    by `exact_fraction`; the highest score wins, ties go to the
    lexicographically smallest id, and a best score below the threshold
    (also read by `exact_fraction`) selects nothing. The winner is reported
    with its exact score."""
    n = len(semantic_input)
    x = semantic_input.units.tolist()
    best = None
    for node in lex.nodes:
        ov = sum(a * b for a, b in zip(x, node.components["semantic"].stored[0].units.tolist()))
        bonus = bonuses.get(node.id, 0.0)
        score = min(Fraction(1), Fraction(max(0, ov), n) + exact_fraction(bonus))
        if best is None or score > best[1] or (score == best[1] and node.id < best[0].id):
            best = node, score
    if best[1] < exact_fraction(lex.selection_threshold):
        return None
    return best


def reference_success_prob(net, reference, cue):
    """Exact per-attempt success probability by brute force, the law that
    `experiment.exact_success_prob` computes: drive `retrieve_once` over
    every assignment of the non-cue units (cue units clamped to the
    reference) and count the outputs equal to the reference."""
    cue = set(cue)
    free = [i for i in range(net.n) if i not in cue]
    probes = np.tile(reference.units, (2 ** len(free), 1))
    probes[:, free] = list(itertools.product((1, -1), repeat=len(free)))
    hits = np.all(net.retrieve_once(probes) == reference.units, axis=1).sum()
    return Fraction(int(hits), 2 ** len(free))


def mean_success_prob_under_damage(net, reference, cue_indices, fraction, draws, seed):
    """Exact mean per-attempt success probability over `draws` independent
    damage draws, draw k on the stream keyed `(seed, k)`."""
    total = Fraction(0)
    for k in range(draws):
        rng = default_rng(SeedSequence((seed, k)))
        damaged = net.damage(fraction, rng)
        total += exact_success_prob(damaged, reference, cue_indices)
    return total / draws


def trial_rng(seed, point, trial):
    """The generator trial `trial` of sweep point `point` runs on, by the
    stream version 3 rule as the README states it: the point's PCG64DXSM
    stream, keyed `(seed, 3, point)`, jumped `trial` times."""
    return Generator(PCG64DXSM(SeedSequence((seed, 3, point))).jumped(trial))


def with_uniform_cue(q, **kwargs):
    """Recall parameters with cue fraction `q` on every component."""
    return RecallParams(cue_fraction=dict.fromkeys(COMPONENTS, q), **kwargs)


def reference_generated_patterns(gen, component, rng, budget=1000):
    """Random word patterns as a plain per-pair loop, the rule that
    `lexicon._generated_units` vectorizes: draw candidates in turn and
    keep one when its Hamming distance to every kept pattern is at least
    `min_pairwise_distance`; give up after `budget` draws for one word."""
    n = gen.lengths[component]
    kept = []
    for i in range(gen.count):
        for _ in range(budget):
            candidate = random_pattern(n, rng)
            if all(hamming(candidate, prev) >= gen.min_pairwise_distance for prev in kept):
                kept.append(candidate)
                break
        else:
            raise GenerationError(f"could not place word {i}")
    return kept
