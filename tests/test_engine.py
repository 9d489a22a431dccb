"""The batched attempt engine against the one-attempt-at-a-time rules it
replaces: block passes equal row-by-row passes, the stop attempt is the
first matching row, the best output is the first row of maximal overlap,
memory stays bounded by the chunk size, and a trial wraps no unit array in
a BipolarPattern beyond its semantic input."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.random import SeedSequence, default_rng

from totsim import experiment, recall, scenarios
from totsim.config import parse_config
from totsim.network import ComponentNetwork, train
from totsim.patterns import BipolarPattern, overlap, random_pattern
from totsim.recall import recall_component

P9 = BipolarPattern.from_text("++-+--++-")


def random_network(n, stored, damage, mask, rng):
    net = train([random_pattern(n, rng) for _ in range(stored)])
    if damage:
        net = net.damage(damage, rng)
    return net.apply_mask(mask, rng) if mask else net


def loop_retrieve(net, units):
    """One pass for one probe in plain Python integers."""
    w = net.w_int.tolist()
    x = [0 if j in net.mask else u for j, u in enumerate(units)]
    out = []
    for i in range(net.n):
        h = sum(w[i][j] * x[j] for j in range(net.n))
        out.append(1 if i in net.mask or h >= 0 else -1)
    return out


networks = st.builds(
    lambda n, stored, damage, mask, seed: random_network(
        n, stored, damage, mask, default_rng(SeedSequence(seed))
    ),
    st.integers(2, 12),
    st.integers(1, 3),
    st.sampled_from([0.0, 0.3, 0.8]),
    st.sampled_from([0.0, 0.25, 0.5]),
    st.integers(0, 10**6),
)


@given(networks, st.integers(1, 40), st.integers(0, 10**6))
def test_block_pass_equals_row_by_row_pass(net, rows, seed):
    block = np.where(default_rng(seed).random((rows, net.n)) < 0.5, 1, -1)
    out = net.retrieve_once(block)
    assert out.shape == (rows, net.n)
    for probe, row in zip(block, out):
        assert net.retrieve_once(probe).tolist() == row.tolist()
        assert row.tolist() == loop_retrieve(net, probe.tolist())


def test_even_length_ties_give_plus_one_in_a_block():
    net = train([BipolarPattern([1, -1, 1, -1])])
    block = np.array([[1, 1, 1, 1], [-1, -1, -1, -1], [1, -1, 1, -1]])
    assert net.retrieve_once(block).tolist() == [[1, 1, 1, 1], [1, 1, 1, 1], [1, -1, 1, -1]]


class Spy:
    """Records every output block the engine's pass produces."""

    def __init__(self, monkeypatch):
        self.blocks = []
        original = ComponentNetwork.retrieve_once

        def retrieve_once(net, probe):
            out = original(net, probe)
            self.blocks.append(out.copy())
            return out

        monkeypatch.setattr(ComponentNetwork, "retrieve_once", retrieve_once)

    def rows(self):
        return np.concatenate(self.blocks)


@given(
    networks,
    st.integers(0, 10),
    st.integers(1, 40) | st.integers(recall._ATTEMPT_CHUNK, 3 * recall._ATTEMPT_CHUNK),
    st.integers(0, 10**6),
)
def test_stop_attempt_and_best_output_follow_the_rows(net, cue_tenths, max_attempts, seed):
    with pytest.MonkeyPatch.context() as mp:
        spy = Spy(mp)
        rng = default_rng(SeedSequence(seed))
        reference = BipolarPattern(np.where(rng.random(net.n) < 0.5, 1, -1))
        if seed % 2:  # often reachable: a stored pattern with masked units up
            ref = net.stored[0].units.copy()
            ref[sorted(net.mask)] = 1
            reference = BipolarPattern(ref)
        out = recall_component(net, reference, cue_tenths * net.n // 10, max_attempts, rng)
    rows = spy.rows()
    assert len(rows) >= out.attempts
    ref = reference.units
    matches = [i for i, row in enumerate(rows) if np.array_equal(row, ref)]
    if matches:
        assert out.resolved and out.attempts == matches[0] + 1
        assert np.array_equal(out.best_output, ref) and out.best_overlap_frac == 1.0
    else:
        assert not out.resolved and out.attempts == max_attempts == len(rows)
        scores = [overlap(row, ref) for row in rows]
        first_best = scores.index(max(scores))
        assert np.array_equal(out.best_output, rows[first_best])
        assert out.best_overlap_frac == max(scores) / net.n


def test_match_in_second_chunk(monkeypatch):
    chunk = recall._ATTEMPT_CHUNK
    spy = Spy(monkeypatch)
    target = chunk + 5
    seen = []
    real_compare = recall.compare

    def compare(output, reference):
        hits = real_compare(output, reference)
        start = sum(seen)
        seen.append(len(hits))
        return np.arange(start, start + len(hits)) == target

    monkeypatch.setattr(recall, "compare", compare)
    unreachable = P9.with_flipped([0])
    out = recall_component(train([P9]), unreachable, 0, 3 * chunk, default_rng(1))
    assert seen == [chunk, chunk]
    assert out.resolved and out.attempts == target + 1
    assert np.array_equal(out.best_output, spy.rows()[target])


def test_long_unreachable_loop_stays_in_bounded_memory():
    net = train([P9])
    tracemalloc.start()
    try:
        out = recall_component(net, P9.with_flipped([0]), 0, 10**6, default_rng(2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not out.resolved and out.attempts == 10**6
    assert out.best_overlap_frac == 7 / 9 and np.array_equal(out.best_output, P9.units)
    assert peak < 10**6 * net.n  # a whole int8 block would need this much


@pytest.mark.parametrize("name", ["free_recall", "illusory_tot"])
def test_a_trial_builds_at_most_one_pattern(name, monkeypatch):
    """The trial loop runs on unit arrays; its one BipolarPattern is the
    semantic input that `flip_by_rate` draws."""
    cfg, _ = parse_config(scenarios.load(name, n_trials=6))
    built, per_trial = [], []
    init, run_one_trial = BipolarPattern.__init__, experiment.run_one_trial

    def counting_init(self, units):
        built.append(1)
        init(self, units)

    def counting_trial(*args):
        before = len(built)
        records = run_one_trial(*args)
        per_trial.append(len(built) - before)
        return records

    monkeypatch.setattr(BipolarPattern, "__init__", counting_init)
    monkeypatch.setattr(experiment, "run_one_trial", counting_trial)
    experiment.run_trials(cfg)
    assert len(per_trial) == 6 * len(experiment.sweep_points(cfg))
    assert max(per_trial) <= 1
