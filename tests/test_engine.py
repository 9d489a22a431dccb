"""The batched attempt engine against the one-attempt-at-a-time rules it
replaces: block passes equal row-by-row passes, the stop attempt is the
first matching row, the best output is the first row of maximal overlap,
a chunk is drawn whole however early it is evaluated to a hit and is
evaluated head first only above the break-even, a pass builds the probes
of its own rows only, a full cue's loop is the row-by-row loop evaluated
from one retrieval that each network keeps, a range cue's probe block is
the one its index list gives, memory stays bounded by the chunk size, and
a trial wraps no unit array in a BipolarPattern beyond its semantic
input."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.random import SeedSequence, default_rng

from totsim import experiment, recall, scenarios
from totsim.config import parse_config
from totsim.network import ComponentNetwork, train
from totsim.patterns import BipolarPattern, overlap, random_pattern
from totsim.recall import ComponentOutcome, recall_component

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
    """Records every output block the engine's pass produces, and the
    network that produced it."""

    def __init__(self, monkeypatch):
        self.blocks, self.nets = [], []
        original = ComponentNetwork.retrieve_once

        def retrieve_once(net, probe):
            out = original(net, probe)
            self.blocks.append(out.copy())
            self.nets.append(net)
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
        cue_size = cue_tenths * net.n // 10
        out = recall_component(net, reference, cue_size, max_attempts, rng)
    if cue_size == net.n:
        # Every probe is the reference, so each attempt outputs its one image.
        rows = np.array([loop_retrieve(net, reference.units.tolist())] * max_attempts)
    else:
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
    """A hit faked on row chunk + 5 of an unreachable loop: the patched
    overlap scores that row above any real score, so the pass's argmax picks
    it, and the patched comparator accepts a pass's pick only then. Each
    chunk is drawn whole, and each pass builds the probes of its own rows."""
    chunk, head = recall._ATTEMPT_CHUNK, recall._HEAD
    spy = Spy(monkeypatch)
    target = chunk + 5
    faked, built = [], []
    real_overlap, real_probe = recall.overlap, recall.generate_probe

    def overlap(outputs, reference):
        scores = real_overlap(outputs, reference)
        start = sum(map(len, spy.blocks)) - len(outputs)
        faked.append(start <= target < start + len(outputs))
        if faked[-1]:
            scores[target - start] = len(reference) + 1
        return scores

    def generate_probe(ref_units, cue_indices, uniforms):
        built.append(len(uniforms))
        return real_probe(ref_units, cue_indices, uniforms)

    monkeypatch.setattr(recall, "overlap", overlap)
    monkeypatch.setattr(recall, "compare", lambda output, reference: faked[-1])
    monkeypatch.setattr(recall, "generate_probe", generate_probe)
    unreachable = P9.with_flipped([0])
    rng, twin = default_rng(1), default_rng(1)
    out = recall_component(train([P9]), unreachable, 0, 3 * chunk, rng)
    twin.random((2 * chunk, len(P9)))
    assert rng.bit_generator.state == twin.bit_generator.state
    assert built == [head, chunk - head, head, chunk - head]
    assert [len(block) for block in spy.blocks] == built
    assert out.resolved and out.attempts == target + 1
    assert np.array_equal(out.best_output, spy.rows()[target])


@pytest.mark.parametrize("n, rows", [(9, 32), (15, 16), (15, 8), (9, None), (15, None)])
def test_a_loop_at_or_below_the_break_even_is_one_pass(n, rows, monkeypatch):
    """A chunk of at most `_HEAD_BREAK_EVEN` units is evaluated in one pass,
    also when nothing in it matches (None: the largest such chunk)."""
    rows = rows or recall._HEAD_BREAK_EVEN // n
    assert rows > recall._HEAD and rows * n <= recall._HEAD_BREAK_EVEN
    spy = Spy(monkeypatch)
    pattern = random_pattern(n, default_rng(n))
    out = recall_component(train([pattern]), pattern.with_flipped([0]), 0, rows, default_rng(4))
    assert not out.resolved and out.attempts == rows
    assert [len(block) for block in spy.blocks] == [rows]


def test_illusory_tot_evaluates_each_loop_in_one_pass(monkeypatch):
    """Every illusory_tot loop is one 32 x 9 chunk: the fully cued semantic
    and lexical loops match at once, the phonological loop under the
    corrupted reference never does. Each phonological loop takes one pass;
    each fully cued network retrieves its reference once for the whole
    run."""
    cfg, _ = parse_config(scenarios.load("illusory_tot", n_trials=5))
    spy = Spy(monkeypatch)
    records = experiment.run_trials(cfg)
    assert {(r.att_sem, r.att_lex, r.att_phon) for r in records} == {(1, 1, 32)}
    shapes = [block.shape for block in spy.blocks]
    assert shapes.count((32, 9)) == len(records)
    single = [net for net, shape in zip(spy.nets, shapes) if shape == (9,)]
    assert len(single) == 2 and single[0] is not single[1]
    assert len(shapes) == len(records) + 2


@pytest.mark.parametrize("cue_size", [9, 5])
def test_a_hit_in_the_head_evaluates_only_the_head(cue_size, monkeypatch):
    """A 64 x 9 chunk is above the break-even: a loop that matches at its
    first attempt evaluates the 4 head rows and no more. A full cue
    evaluates one row, the reference itself."""
    assert 64 * len(P9) > recall._HEAD_BREAK_EVEN
    spy = Spy(monkeypatch)
    out = recall_component(train([P9]), P9, cue_size, 64, default_rng(5))
    assert out.resolved and out.attempts == 1
    head = (len(P9),) if cue_size == len(P9) else (recall._HEAD, len(P9))
    assert [block.shape for block in spy.blocks] == [head]


@pytest.mark.parametrize("rows", [1, 4, 32, 256])
@pytest.mark.parametrize("n", [9, 15])
def test_a_range_cue_gives_the_block_an_index_list_gives(rows, n):
    """`range(0)` (no unit) takes the probe's fast path and `range(n)`
    (every unit) the general clamp; each returns the block the same cue as
    an index list returns from the same uniforms."""
    reference = random_pattern(n, default_rng(rows)).units
    uniforms = default_rng(rows).random((rows, n))
    for cue in (range(n), range(0)):
        fast = recall.generate_probe(reference, cue, uniforms)
        listed = recall.generate_probe(reference, list(cue), uniforms)
        assert fast.dtype == listed.dtype and np.array_equal(fast, listed)


@st.composite
def chunk_cues(draw):
    """A chunk's uniforms, a row slice of it and a cue of each kind: none
    as `range(0)`, one index list for every row, or one per row."""
    n = draw(st.integers(1, 12))
    rows = draw(st.integers(1, 40))
    rng = default_rng(draw(st.integers(0, 10**6)))
    kind = draw(st.sampled_from(["none", "list", "rows"]))
    k = draw(st.integers(1, n))
    if kind == "none":
        cue = range(0)
    elif kind == "list":
        cue = rng.choice(n, size=k, replace=False).tolist()
    else:
        cue = np.argsort(rng.random((rows, n)), axis=1)[:, :k]
    lo = draw(st.integers(0, rows - 1))
    hi = draw(st.integers(lo + 1, rows))
    return random_pattern(n, rng).units, cue, rng, rows, lo, hi


@given(chunk_cues())
def test_a_row_slice_of_the_uniforms_gives_that_slice_of_the_probes(case):
    """`generate_probe` is a pure function of reference, cue and uniforms:
    the probes of rows lo:hi of a chunk are those rows of the whole chunk's
    probes, and building them moves no stream."""
    reference, cue, rng, rows, lo, hi = case
    uniforms = rng.random((rows, len(reference)))
    state = rng.bit_generator.state
    whole = recall.generate_probe(reference, cue, uniforms)
    part_cue = cue[lo:hi] if isinstance(cue, np.ndarray) else cue
    part = recall.generate_probe(reference, part_cue, uniforms[lo:hi])
    assert part.dtype == whole.dtype and np.array_equal(part, whole[lo:hi])
    assert rng.bit_generator.state == state
    assert set(np.unique(whole).tolist()) <= {-1, 1}


def test_a_free_recall_head_hit_builds_only_the_head_probes(monkeypatch):
    """A 64 x 9 free-recall chunk is drawn whole, but a loop that matches
    within its head hands `generate_probe` the head's 4 rows only."""
    built = []
    real_probe = recall.generate_probe

    def generate_probe(ref_units, cue_indices, uniforms):
        built.append(uniforms.shape)
        return real_probe(ref_units, cue_indices, uniforms)

    monkeypatch.setattr(recall, "generate_probe", generate_probe)
    out = recall_component(train([P9]), P9, 0, 64, default_rng(1))
    assert out.resolved and out.attempts == 2
    assert built == [(recall._HEAD, len(P9))]


def full_cue_loop(net, reference, max_attempts, rng, fixed_cue):
    """The attempt loop at k = N, row by row in plain Python over the rows
    the stream layout draws: the fixed cue's N keys first, then each
    chunk's probe uniforms, with every unit clamped to the reference."""
    n, ref = net.n, reference.units.tolist()
    if fixed_cue:
        keys = rng.random(n).tolist()
        cue = set(sorted(range(n), key=keys.__getitem__)[:n])  # the N smallest keys
    else:
        cue = set(range(n))
    best = None
    for done in range(0, max_attempts, recall._ATTEMPT_CHUNK):
        coins = rng.random((min(recall._ATTEMPT_CHUNK, max_attempts - done), n)).tolist()
        for row, units in enumerate(coins):
            probe = [
                r if j in cue else 1 if u < 0.5 else -1 for j, (r, u) in enumerate(zip(ref, units))
            ]
            out = loop_retrieve(net, probe)
            if out == ref:
                return ComponentOutcome(True, done + row + 1, 1.0, np.array(out))
            score = sum(a * b for a, b in zip(out, ref))
            if best is None or score > best[0]:
                best = score, out
    return ComponentOutcome(False, max_attempts, best[0] / n, np.array(best[1]))


@given(
    networks,
    st.booleans(),
    st.sampled_from([1, 255, 256, 257, 600]),
    st.booleans(),
    st.integers(0, 10**6),
)
def test_a_full_cue_loop_equals_the_row_by_row_loop(net, fixed_cue, max_attempts, stored, seed):
    """A full cue's loop, evaluated from the network's one image of the
    reference, gives the row-by-row loop's outcome and leaves the stream
    where it leaves it, with a uint32 buffered, on the call that retrieves
    the image and on the next, which retrieves nothing."""
    reference = random_pattern(net.n, default_rng(seed))
    if stored:  # often reachable: a stored pattern with masked units up
        ref = net.stored[0].units.copy()
        ref[sorted(net.mask)] = 1
        reference = BipolarPattern(ref)
    with pytest.MonkeyPatch.context() as mp:
        spy = Spy(mp)
        for call in range(2):
            rng, twin = default_rng(seed + call), default_rng(seed + call)
            for g in (rng, twin):
                g.integers(0, 2**32, dtype=np.uint32)
            got = recall_component(net, reference, net.n, max_attempts, rng, fixed_cue=fixed_cue)
            want = full_cue_loop(net, reference, max_attempts, twin, fixed_cue)
            assert got == want and np.array_equal(got.best_output, want.best_output)
            assert rng.bit_generator.state == twin.bit_generator.state
            assert [block.shape for block in spy.blocks] == [(net.n,)]


@pytest.mark.parametrize("order", [(0, 1, 0, 1), (1, 0, 1, 0), (0, 0, 1, 1), (1, 1, 0, 0)])
def test_each_reference_gets_its_own_full_cue_outcome(order):
    """The stored pattern matches at once under a full cue; illusory_tot's
    1-unit-corrupted reference never does, and its best output is the
    stored pattern. One network answers each, in any call order."""
    net, corrupted = train([P9]), P9.with_flipped([0])
    cases = [(P9, ComponentOutcome(True, 1, 1.0)), (corrupted, ComponentOutcome(False, 32, 7 / 9))]
    rng = default_rng(6)
    for i in order:
        reference, want = cases[i]
        got = recall_component(net, reference, 9, 32, rng)
        assert got == want and np.array_equal(got.best_output, P9.units)


@pytest.mark.parametrize("derive", ["apply_mask", "damage"])
def test_a_derived_network_computes_its_own_full_cue_outcome(derive):
    """A network masked or damaged from one that has answered a full cue
    answers from its own weights and mask: with every unit masked or every
    weight zeroed, each output unit is +1, which P9 is not."""
    net, rng = train([P9]), default_rng(8)
    assert recall_component(net, P9, 9, 32, rng) == ComponentOutcome(True, 1, 1.0)
    derived = getattr(net, derive)(1.0, rng)
    got = recall_component(derived, P9, 9, 32, rng)
    assert got == ComponentOutcome(False, 32, sum(P9.units.tolist()) / 9)
    assert got.best_output.tolist() == [1] * 9
    assert recall_component(net, P9, 9, 32, rng) == ComponentOutcome(True, 1, 1.0)


@pytest.mark.parametrize("cue_size, fixed_cue", [(9, False), (5, False), (5, True)])
def test_a_hit_in_the_head_leaves_the_stream_after_the_whole_chunk(cue_size, fixed_cue):
    """Five of nine cue units clamped to the one stored pattern make every
    pass output it, so the first row matches; the loop has still drawn its
    whole first chunk, as the stream layout says."""
    rows, n = 64, len(P9)
    rng, twin = default_rng(3), default_rng(3)
    out = recall_component(train([P9]), P9, cue_size, rows, rng, fixed_cue=fixed_cue)
    assert out.resolved and out.attempts == 1
    if fixed_cue:
        twin.random(n)  # the fixed cue's keys
    elif cue_size < n:
        twin.random((rows, n))  # the key block of per-row cues
    twin.random((rows, n))  # the probe block
    assert rng.random() == twin.random()


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
