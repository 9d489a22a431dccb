import math
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.random import SeedSequence, default_rng

from totsim import experiment, scenarios
from totsim.config import parse_config
from totsim.errors import CapacityError, DimensionError, ParameterError
from totsim.experiment import (
    SweepGrid,
    build_scenario_lexicon,
    damaged_lexicon,
    exact_success_prob,
    materialize_bonuses,
    run_trials,
    summarize,
    sweep_points,
    validate_record_rows,
)
from totsim.lexicon import COMPONENTS
from totsim.network import ComponentNetwork, train
from totsim.output import read_record_rows, write_records_csv
from totsim.patterns import BipolarPattern, random_pattern
from totsim.recall import RecallParams, recall_component

from helpers import mean_success_prob_under_damage, reference_success_prob, trial_rng

P9 = BipolarPattern.from_text("++-+--++-")


def single_word_cfg(**overrides):
    raw = {
        "seed": 11,
        "lexicon": {
            "words": [
                {
                    "id": "target",
                    "semantic": P9.to_text(),
                    "lexical": P9.to_text(),
                    "phonological": P9.to_text(),
                }
            ]
        },
        "target": "target",
        "recall": {"cue_fraction": 1.0, "max_attempts": 8},
        "n_trials": 5,
    }
    raw.update(overrides)
    cfg, _ = parse_config(raw)
    return cfg


def slotted_cfg(slots=None, **overrides):
    """`single_word_cfg` whose lexicon declares `slots` (a first-letter slot
    by default)."""
    lexicon = {
        "words": [{"id": "target", **dict.fromkeys(COMPONENTS, P9.to_text())}],
        "slots": slots or {"first_letter": [0, 1, 2]},
    }
    return single_word_cfg(lexicon=lexicon, **overrides)


class TestSweepPoints:
    def test_no_sweep_single_point(self):
        cfg = single_word_cfg()
        points = sweep_points(cfg)
        assert len(points) == 1
        point = points[0]
        assert point.index == 0
        assert point.params is cfg.recall
        assert point.flip_rate == cfg.semantic_input_flip_rate
        assert point.damage == cfg.damage

    def test_cartesian_product_in_declaration_order(self):
        cfg = single_word_cfg(
            sweep={"q": [0.0, 0.5], "flip_rate": [0.0, 0.1, 0.2]}
        )
        points = sweep_points(cfg)
        assert len(points) == 6
        grid = [(q, f) for q in (0.0, 0.5) for f in (0.0, 0.1, 0.2)]
        assert [(p.sweep_q, p.flip_rate) for p in points] == grid
        assert [p.params.cue_fraction for p in points] == [
            dict.fromkeys(COMPONENTS, q) for q, _ in grid
        ]
        assert [p.index for p in points] == list(range(6))

    def test_unswept_point_resolves_base_values(self):
        cfg = single_word_cfg(
            lexicon={
                "words": [{"id": "target", **{c: P9.to_text() for c in COMPONENTS}}],
                "slots": {"first_letter": [0, 1, 2]},
            },
            recall={
                "cue_fraction": {"semantic": 1.0, "lexical": 0.5, "phonological": 0.25},
                "max_attempts": 4,
            },
            semantic_input_flip_rate=0.1,
            damage=[
                {"word": "target", "component": "lexical", "fraction": 0.2},
                {
                    "word": "target",
                    "component": "phonological",
                    "fraction": 0.4,
                    "protected_slots": ["first_letter"],
                },
            ],
        )
        (point,) = sweep_points(cfg)
        assert (point.sweep_q, point.sweep_d, point.flip_rate) == (0.25, 0.4, 0.1)
        assert point.damage == cfg.damage
        (undamaged,) = sweep_points(replace(cfg, damage=cfg.damage[:1]))
        assert undamaged.sweep_d == 0.0

        swept = sweep_points(replace(cfg, sweep=SweepGrid(d=(0.0, 0.7))))
        assert [p.sweep_d for p in swept] == [0.0, 0.7]
        for p, d in zip(swept, (0.0, 0.7)):
            assert [e.fraction for e in p.damage] == [d, d]
            assert [e.protected_slots for e in p.damage] == [(), ("first_letter",)]
            assert [(e.word, e.component) for e in p.damage] == [
                (e.word, e.component) for e in cfg.damage
            ]
            assert (p.sweep_q, p.flip_rate) == (0.25, 0.1)

    def test_recall_params_built_once_per_point(self, monkeypatch):
        cfg, _ = parse_config(scenarios.load("cue_sweep", n_trials=6))
        built = []
        post_init = RecallParams.__post_init__

        def counting_post_init(self):
            built.append(1)
            post_init(self)

        monkeypatch.setattr(RecallParams, "__post_init__", counting_post_init)
        records = run_trials(cfg)
        assert len(records) == 6 * 6
        assert 0 < len(built) <= len(sweep_points(cfg))


class TestRunTrials:
    def test_perfect_conditions_single_resolved_record(self):
        cfg = single_word_cfg(n_trials=1)
        records = run_trials(cfg)
        assert len(records) == 1
        r = records[0]
        assert r.classification == "Resolved"
        assert (r.att_sem, r.att_lex, r.att_phon) == (1, 1, 1)
        assert r.episode == 1 and r.trial == 0
        assert r.seed_child == "11-0-0"
        assert r.total_time_ms == 3.0

    def test_deterministic_given_seed(self):
        cfg = single_word_cfg(n_trials=40, recall={"cue_fraction": 0.0, "max_attempts": 16})
        assert run_trials(cfg) == run_trials(cfg)

    def test_workers_do_not_change_records(self):
        cfg = single_word_cfg(n_trials=40, recall={"cue_fraction": 0.0, "max_attempts": 16})
        assert run_trials(cfg, workers=1) == run_trials(cfg, workers=4)

    def test_unresolvable_scenario_runs_every_episode(self):
        cfg = single_word_cfg(
            n_trials=4,
            episodes_per_trial=3,
            recall={
                "cue_fraction": {"semantic": 1.0, "lexical": 1.0, "phonological": 0.0},
                "max_attempts": 4,
            },
            metamemory_corruption=[
                {"word": "target", "component": "phonological", "flips": 1}
            ],
        )
        records = run_trials(cfg)
        assert len(records) == 12
        by_trial = {}
        for r in records:
            by_trial.setdefault(r.trial, []).append(r.episode)
        assert all(episodes == [1, 2, 3] for episodes in by_trial.values())
        assert all(r.classification == "TOT" for r in records)

    def test_resolved_trial_stops_episodes(self):
        cfg = single_word_cfg(n_trials=3, episodes_per_trial=5)
        records = run_trials(cfg)
        assert len(records) == 3
        assert all(r.episode == 1 for r in records)

    def test_unswept_coordinates_report_effective_values(self):
        cfg = single_word_cfg(
            recall={
                "cue_fraction": {"semantic": 1.0, "lexical": 1.0, "phonological": 0.25},
                "max_attempts": 4,
            },
            damage=[{"word": "target", "component": "phonological", "fraction": 0.4}],
            n_trials=2,
        )
        records = run_trials(cfg)
        assert all(r.sweep_q == 0.25 and r.sweep_d == 0.4 for r in records)

    def test_sweep_coordinates_come_from_grid(self):
        cfg = single_word_cfg(
            damage=[{"word": "target", "component": "phonological", "fraction": 0.0}],
            sweep={"d": [0.0, 0.5]},
            n_trials=2,
        )
        records = run_trials(cfg)
        assert sorted({r.sweep_d for r in records}) == [0.0, 0.5]

    def test_priming_bonuses_materialized_per_trial(self):
        cfg = single_word_cfg(
            priming=[{"word": "target", "bonus": 0.5, "decay_trials": 3}]
        )
        assert materialize_bonuses(cfg, 0) == {"target": 0.5}
        assert materialize_bonuses(cfg, 2) == {"target": 0.5}
        assert materialize_bonuses(cfg, 3) == {}

    def test_workers_must_be_positive(self):
        with pytest.raises(ParameterError):
            run_trials(single_word_cfg(), workers=0)


class TestTrialStreams:
    """`_run_trial_range` sets one reused generator to each trial's start;
    it must equal the point's stream jumped `trial` times (stream version 3,
    `helpers.trial_rng`)."""

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
    @pytest.mark.parametrize("index", [0, 7])
    @pytest.mark.parametrize("lo", [5, 1022, 2**32 - 2])
    def test_each_trial_starts_where_its_jumped_generator_does(
        self, seed, index, lo, monkeypatch
    ):
        ended = []

        def trial_draws(cfg, lex, point, trial, rng):
            want = trial_rng(seed, index, trial)
            assert rng.bit_generator.state == want.bit_generator.state
            draws = [
                (g.random(), int(g.integers(0, 1000)), g.choice(9, 3, replace=False).tolist())
                for g in (rng, want)
            ]
            assert draws[0] == draws[1]
            if not rng.bit_generator.state["has_uint32"]:
                for g in (rng, want):  # one more uint32 leaves half a word buffered
                    g.integers(0, 2**32, dtype=np.uint32)
            assert rng.bit_generator.state == want.bit_generator.state
            ended.append(rng.bit_generator.state["has_uint32"])
            return [trial]

        monkeypatch.setattr(experiment, "run_one_trial", trial_draws)
        cfg, point = SimpleNamespace(seed=seed), SimpleNamespace(index=index)
        trials = experiment._run_trial_range(cfg, None, point, lo, lo + 4)
        assert trials == list(range(lo, lo + 4))
        # Every trial after the first followed one that left a uint32
        # buffered, which the next start state must not keep.
        assert ended == [1, 1, 1, 1]

    def test_trials_of_one_point_start_apart_and_draw_uncorrelated(self, monkeypatch):
        starts, firsts = [], []

        def first_draw(cfg, lex, point, trial, rng):
            starts.append(rng.bit_generator.state["state"]["state"])
            firsts.append(rng.random())
            return []

        monkeypatch.setattr(experiment, "run_one_trial", first_draw)
        cfg, point = SimpleNamespace(seed=11), SimpleNamespace(index=0)
        experiment._run_trial_range(cfg, None, point, 0, 10_000)
        assert len(set(starts)) == 10_000
        u = np.array(firsts)
        assert abs(np.corrcoef(u[:-1], u[1:])[0, 1]) < 4 / math.sqrt(10_000)


def damaged_sweep_cfg():
    """20 generated words and three damage points, each with its own damaged
    lexicon; 7 trials split unevenly over 2 or 3 workers."""
    raw = {
        "seed": 5,
        "lexicon": {
            "generator": {
                "count": 20,
                "lengths": {"semantic": 12, "lexical": 10, "phonological": 11},
                "min_pairwise_distance": 2,
            }
        },
        "target": "w3",
        "semantic_input_flip_rate": 0.2,
        "recall": {"cue_fraction": 0.5, "max_attempts": 6},
        "damage": [
            {"word": "w3", "component": "phonological", "fraction": 0.1},
            {"word": "w12", "component": "semantic", "fraction": 0.4},
        ],
        "episodes_per_trial": 2,
        "n_trials": 7,
        "sweep": {"d": [0.0, 0.3, 0.6]},
    }
    cfg, _ = parse_config(raw)
    return cfg


class TestProcessPool:
    def test_records_equal_at_one_two_and_three_workers(self):
        cfg = damaged_sweep_cfg()
        serial = run_trials(cfg, workers=1)
        assert {r.sweep_d for r in serial} == {0.0, 0.3, 0.6}
        assert run_trials(cfg, workers=2) == serial
        assert run_trials(cfg, workers=3) == serial

    def test_one_pool_serves_every_sweep_point(self, monkeypatch):
        pools = []

        def counting_pool(*args, **kwargs):
            pools.append(kwargs)
            return ProcessPoolExecutor(*args, **kwargs)

        monkeypatch.setattr(experiment, "ProcessPoolExecutor", counting_pool)
        cfg = damaged_sweep_cfg()
        run_trials(cfg, workers=2)
        assert len(pools) == 1
        assert sorted(pools[0]["initargs"][0]) == [0, 1, 2]

    def test_few_trials_run_serially(self, monkeypatch):
        monkeypatch.setattr(experiment, "ProcessPoolExecutor", None)  # any call fails
        cfg = replace(damaged_sweep_cfg(), n_trials=3)
        assert run_trials(cfg, workers=2) == run_trials(cfg, workers=1)


@st.composite
def oracle_cases(draw):
    """A network of n <= 16 units holding one to four patterns, damaged at a
    fraction that may be 0 and masked or not; a cue of any size, drawn as
    often near the full cue, which leaves 0 to 5 units free (an empty left
    half at 1, a right half narrower than one 64-bit word below 6); and a
    reference that is the stored pattern, its negation, a corruption of it,
    the pattern with its masked units set to +1, all +1 or random."""
    n = draw(st.integers(1, 16))
    pattern = st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n).map(BipolarPattern)
    stored = draw(st.lists(pattern, min_size=1, max_size=4))
    rng = default_rng(draw(st.integers(0, 2**32 - 1)))
    net = train(stored).damage(draw(st.sampled_from((0.0, 0.1, 0.3, 0.6, 1.0))), rng)
    net = net.apply_mask(draw(st.sampled_from((0.0, 0.2, 0.5, 1.0))), rng)
    p = stored[0]
    flips = draw(st.sets(st.integers(0, n - 1), max_size=3))
    reference = draw(
        st.sampled_from(
            (
                p,
                p.negate(),
                p.with_flipped(flips),
                BipolarPattern([1 if i in net.mask else u for i, u in enumerate(p.units)]),
                BipolarPattern([1] * n),
            )
        )
        | pattern
    )
    k = draw(st.integers(0, n) | st.integers(max(0, n - 5), n))
    cue = draw(st.permutations(range(n)))[:k]
    return net, reference, cue


@st.composite
def many_cued_cases(draw):
    """A damaged network of 30 to 64 units holding one to four patterns,
    masked or not, and a cue that leaves 0 to 12 units free, so that most
    live units are cued; a reference that is the first stored pattern with
    its masked units set to +1, a corruption of that, or random."""
    n = draw(st.integers(30, 64))
    rng = default_rng(draw(st.integers(0, 2**32 - 1)))
    stored = [random_pattern(n, rng) for _ in range(draw(st.integers(1, 4)))]
    net = train(stored).damage(draw(st.sampled_from((0.1, 0.3, 0.6, 0.9))), rng)
    net = net.apply_mask(draw(st.sampled_from((0.0, 0.1, 0.3))), rng)
    up = BipolarPattern([1 if i in net.mask else u for i, u in enumerate(stored[0].units)])
    flips = draw(st.sets(st.integers(0, n - 1), max_size=3))
    reference = draw(st.sampled_from((up, up.with_flipped(flips), random_pattern(n, rng))))
    cue = draw(st.permutations(range(n)))[draw(st.integers(0, 12)):]
    return net, reference, cue


def edge_case(name):
    """One damaged 12-unit network holding three patterns, at a named edge
    of the split count."""
    rng = default_rng(SeedSequence(49))
    p, q, r = (random_pattern(12, rng) for _ in range(3))
    net = train([p, q, r]).damage(0.3, rng)
    masked = net.apply_mask(0.25, rng)
    live = [i for i in range(12) if i not in masked.mask]
    up = BipolarPattern([1 if i in masked.mask else u for i, u in enumerate(q.units)])
    all_masked = net.apply_mask(1.0, rng)
    return {
        "no_free_units": (net, q, range(12)),
        "one_free_unit": (net, q, range(1, 12)),
        "two_free_units": (net, q, range(2, 12)),
        "five_free_units": (net, q, range(5, 12)),
        "every_live_unit_cued": (masked, up, live),
        "one_live_unit_free": (masked, up, live[1:]),
        "every_unit_masked_all_up": (all_masked, BipolarPattern([1] * 12), ()),
        "every_unit_masked_one_down": (all_masked, q, ()),
    }[name]


def permuted(net, reference, cue, perm):
    """The same network, reference and cue with unit perm[j] renamed j."""
    where = np.argsort(perm)
    moved = ComponentNetwork(
        net.w_int[np.ix_(perm, perm)],
        tuple(BipolarPattern(p.units[perm]) for p in net.stored),
        net.damage_fraction,
        frozenset(int(where[i]) for i in net.mask),
    )
    return moved, BipolarPattern(reference.units[perm]), [int(where[i]) for i in cue]


@st.composite
def permutation_cases(draw):
    """A damaged network of 18 to 20 units holding one to three patterns,
    masked or not; a cue of at most 3 units, so that 14 to 20 units are
    enumerated; a reference that is the first stored pattern with its
    masked units set to +1, a corruption of that, or random; and a
    permutation of the units."""
    n = draw(st.integers(18, 20))
    rng = default_rng(draw(st.integers(0, 2**32 - 1)))
    stored = [random_pattern(n, rng) for _ in range(draw(st.integers(1, 3)))]
    net = train(stored).damage(draw(st.sampled_from((0.1, 0.3, 0.6))), rng)
    net = net.apply_mask(draw(st.sampled_from((0.0, 0.1))), rng)
    up = BipolarPattern([1 if i in net.mask else u for i, u in enumerate(stored[0].units)])
    flips = draw(st.sets(st.integers(0, n - 1), max_size=2))
    reference = draw(st.sampled_from((up, up.with_flipped(flips), random_pattern(n, rng))))
    cue = draw(st.permutations(range(n)))[: draw(st.integers(0, 3))]
    return net, reference, cue, draw(st.permutations(range(n)))


def pinned_case(name):
    """Seeded damaged networks past the brute force's reach, each with its
    reference and cue."""
    if name == "two_patterns_20":
        rng = default_rng(SeedSequence(44))
        p, q = random_pattern(20, rng), random_pattern(20, rng)
        return train([p, q]).damage(0.3, rng), p, ()
    if name == "three_patterns_cue2_20":
        rng = default_rng(SeedSequence(40))
        p, q, r = (random_pattern(22, rng) for _ in range(3))
        return train([p, q, r]).damage(0.3, rng), p, (4, 17)
    if name == "one_pattern_24":
        rng = default_rng(SeedSequence(38))
        p = random_pattern(24, rng)
        return train([p]).damage(0.3, rng), p, ()
    if name == "two_patterns_24":
        rng = default_rng(SeedSequence(41))
        p, q = random_pattern(24, rng), random_pattern(24, rng)
        return train([p, q]).damage(0.2, rng), q, ()
    if name == "four_patterns_cue2_24":
        rng = default_rng(SeedSequence(45))
        ps = [random_pattern(26, rng) for _ in range(4)]
        return train(ps).damage(0.1, rng), ps[1], (3, 11)
    if name == "three_patterns_cue276_300":
        rng = default_rng(SeedSequence(66))
        ps = [random_pattern(300, rng) for _ in range(3)]
        return train(ps).damage(0.9, rng), ps[0], range(276)
    assert name == "masked_24"
    rng = default_rng(SeedSequence(42))
    p = random_pattern(28, rng)
    damaged = train([p, random_pattern(28, rng)]).damage(0.3, rng)
    # The 4 units that `apply_mask(4 / 28, rng)` drew here at stream version 3.
    mask = frozenset({0, 7, 10, 27})
    net = ComponentNetwork(damaged.w_int, damaged.stored, damaged.damage_fraction, mask)
    up = BipolarPattern([1 if i in net.mask else u for i, u in enumerate(p.units)])
    return net, up, ()


class TestExactSuccessProb:
    def test_free_recall_is_exactly_half(self):
        net = train([P9])
        assert exact_success_prob(net, P9, []) == Fraction(1, 2)

    def test_cue_three_of_nine(self):
        net = train([P9])
        assert exact_success_prob(net, P9, range(3)) == Fraction(57, 64)

    def test_full_cue_is_certain(self):
        net = train([P9])
        assert exact_success_prob(net, P9, range(9)) == Fraction(1)

    def test_capacity_enforced(self):
        # A damaged network is enumerated: 25 free unmasked units exceed the cap.
        rng = default_rng(SeedSequence(35))
        p = random_pattern(25, rng)
        with pytest.raises(CapacityError, match="25 enumerated units"):
            exact_success_prob(train([p]).damage(0.1, rng), p, [])

    def test_undamaged_network_answers_at_any_size(self):
        p = random_pattern(200, default_rng(SeedSequence(36)))
        net = train([p])
        want = Fraction(sum(math.comb(200, b) for b in range(101, 201)), 2**200)
        assert exact_success_prob(net, p, []) == want
        assert exact_success_prob(net.damage(0.0, default_rng(0)), p, []) == want

    def test_masked_undamaged_network_answers_at_any_size(self):
        # 50 of 200 units masked, no cue: the 150 live units are all free.
        rng = default_rng(SeedSequence(67))
        p = random_pattern(200, rng)
        net = train([p]).apply_mask(0.25, rng)
        up = BipolarPattern([1 if i in net.mask else u for i, u in enumerate(p.units)])
        want = Fraction(sum(math.comb(150, b) for b in range(76, 151)), 2**150)
        assert exact_success_prob(net, up, []) == want

    def test_cap_counts_only_enumerated_units(self):
        # 28 units, 4 of them masked: 24 are enumerated.
        rng = default_rng(SeedSequence(37))
        p = random_pattern(28, rng)
        damaged = train([p]).damage(0.2, rng)
        net = damaged.apply_mask(Fraction(4, 28), rng)
        masked_up = BipolarPattern([1 if i in net.mask else u for i, u in enumerate(p.units)])
        assert 0 < exact_success_prob(net, masked_up, []) <= 1
        with pytest.raises(CapacityError):
            exact_success_prob(damaged, p, range(3))

    def test_enumeration_memory_is_bounded(self):
        rng = default_rng(SeedSequence(38))
        p = random_pattern(24, rng)
        net = train([p]).damage(0.3, rng)
        tracemalloc.start()
        try:
            exact_success_prob(net, p, [])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_enumeration_memory_is_bounded_with_many_cued_units(self):
        # 640 live units, 616 cued: 24 enumerated. A table row for every
        # live unit would take ~43 MiB; a unit that no free assignment can
        # fail needs none.
        rng = default_rng(SeedSequence(50))
        p = random_pattern(640, rng)
        net = train([p]).damage(0.3, rng)
        tracemalloc.start()
        try:
            answer = exact_success_prob(net, p, range(640 - 24))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        assert answer == Fraction(1)

    def test_enumeration_memory_is_bounded_with_heavy_weights(self):
        # 64 live units, 40 cued: 24 enumerated. With p stored 30 times each
        # unit's right sums span about 370 levels; stored 300 times, about
        # 2,900, so holding every unit's bitsets at once would need ~99 MiB.
        rng = default_rng(SeedSequence(43))
        p, q = random_pattern(64, rng), random_pattern(64, rng)
        for copies in (30, 300):
            net = train([p] * copies + [q]).damage(0.2, rng)
            tracemalloc.start()
            try:
                answers = [exact_success_prob(net, ref, range(40)) for ref in (p, q)]
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 32 * 2**20
            assert answers == [Fraction(1), Fraction(0)]

    def test_a_wide_level_range_takes_the_distinct_sums(self):
        # With p stored 300 times a unit's right sums span about 2,900
        # levels, of which about 50 occur, against 4,096 right rows. A
        # bitset per level in the range peaks at ~8.6 MiB; one per distinct
        # sum at ~5.5 MiB.
        rng = default_rng(SeedSequence(43))
        p, q = random_pattern(64, rng), random_pattern(64, rng)
        net = train([p] * 300 + [q]).damage(0.2, rng)
        tracemalloc.start()
        try:
            answer = exact_success_prob(net, q, range(40))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7 * 2**20
        assert answer == Fraction(0)

    def test_enumeration_memory_is_bounded_at_any_weight_magnitude(self):
        # Weights near 20,000 in magnitude spread a unit's right sums over
        # ~240,000 values, of which at most 4,096 occur: one bitset per value
        # in that range would need ~120 MiB per unit.
        rng = default_rng(SeedSequence(47))
        p = random_pattern(24, rng)
        noise = rng.integers(-2000, 2001, size=(24, 24))
        net = ComponentNetwork(20000 * np.outer(p.units, p.units) + noise + noise.T, (p,))
        tracemalloc.start()
        try:
            answer = exact_success_prob(net, p, [])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        assert answer == Fraction(3518265, 8388608)

    def test_cue_bounds_checked(self):
        net = train([P9])
        with pytest.raises(DimensionError):
            exact_success_prob(net, P9, [9])

    def test_matches_engine_enumeration_with_damage_and_mask(self):
        rng = default_rng(SeedSequence(33))
        p = random_pattern(7, rng)
        net = train([p]).damage(0.3, rng).apply_mask(2 / 7, rng)
        cue = (0, 4)
        assert exact_success_prob(net, p, cue) == reference_success_prob(net, p, cue)

    def test_heavy_weights_keep_their_sums(self):
        # With p stored 30 times, the activations of either half of the
        # free units pass the int8 range.
        rng = default_rng(SeedSequence(39))
        p, q = random_pattern(12, rng), random_pattern(12, rng)
        net = train([p] * 30 + [q]).damage(0.2, rng)
        assert np.abs(net.w_int).sum(axis=1).max() > 2 * 127
        for ref in (p, q):
            assert exact_success_prob(net, ref, (3,)) == reference_success_prob(net, ref, (3,))

    @settings(max_examples=300, deadline=None)
    @given(oracle_cases())
    def test_matches_the_brute_force_reference(self, case):
        net, reference, cue = case
        assert exact_success_prob(net, reference, cue) == reference_success_prob(
            net, reference, cue
        )

    @settings(max_examples=100, deadline=None)
    @given(many_cued_cases())
    def test_many_cued_units_match_the_brute_force_reference(self, case):
        net, reference, cue = case
        assert exact_success_prob(net, reference, cue) == reference_success_prob(
            net, reference, cue
        )

    @pytest.mark.parametrize(
        "name",
        [
            "no_free_units",
            "one_free_unit",
            "two_free_units",
            "five_free_units",
            "every_live_unit_cued",
            "one_live_unit_free",
            "every_unit_masked_all_up",
            "every_unit_masked_one_down",
        ],
    )
    def test_split_edges_match_the_brute_force_reference(self, name):
        net, reference, cue = edge_case(name)
        assert exact_success_prob(net, reference, cue) == reference_success_prob(
            net, reference, cue
        )

    @pytest.mark.parametrize(
        "name, enumerated, want",
        [
            ("two_patterns_20", 20, Fraction(4625, 131072)),
            ("three_patterns_cue2_20", 20, Fraction(19595, 1048576)),
            ("one_pattern_24", 24, Fraction(1829501, 16777216)),
            ("two_patterns_24", 24, Fraction(199045, 4194304)),
            ("four_patterns_cue2_24", 24, Fraction(165745, 8388608)),
            ("masked_24", 24, Fraction(293795, 8388608)),
            ("three_patterns_cue276_300", 24, Fraction(403, 512)),
        ],
    )
    def test_pinned_enumerations(self, name, enumerated, want):
        net, reference, cue = pinned_case(name)
        assert net.n - len(net.mask) - len(cue) == enumerated
        assert exact_success_prob(net, reference, cue) == want

    @settings(max_examples=30, deadline=None)
    @given(permutation_cases())
    def test_renaming_the_units_keeps_the_answer(self, case):
        net, reference, cue, perm = case
        assert exact_success_prob(*permuted(net, reference, cue, perm)) == exact_success_prob(
            net, reference, cue
        )

    def test_monte_carlo_converges_to_oracle(self):
        net = train([P9])
        exact = float(exact_success_prob(net, P9, []))
        rng = default_rng(SeedSequence(34))
        trials = 5000
        hits = sum(
            recall_component(net, P9, 0, 1, rng).resolved for _ in range(trials)
        )
        se = (exact * (1 - exact) / trials) ** 0.5
        assert abs(hits / trials - exact) < 3 * se


class TestMeanSuccessUnderDamage:
    def test_no_damage_recovers_intact_probability(self):
        net = train([P9])
        assert mean_success_prob_under_damage(net, P9, [], 0.0, 10, seed=1) == Fraction(1, 2)

    def test_heavy_damage_hurts(self):
        net = train([P9])
        heavy = mean_success_prob_under_damage(net, P9, [], 0.75, 50, seed=2)
        assert heavy < Fraction(1, 2)


class TestRateInterval:
    def test_certain_rate_keeps_a_width(self):
        rate, low, high = experiment._rate_interval(10_000, 10_000)
        assert rate == 1.0 and low < 1.0 and high == 1.0

    def test_zero_rate_keeps_a_width(self):
        rate, low, high = experiment._rate_interval(0, 10_000)
        assert rate == 0.0 and low == 0.0 and high > 0.0

    def test_wilson_value(self):
        # 5 of 10: centre 0.5, half-width 1.96 / (1 + 0.38416) * sqrt(0.025 + 0.009604).
        _, low, high = experiment._rate_interval(5, 10)
        assert low == pytest.approx(0.2365895936) and high == pytest.approx(0.7634104064)

    @given(st.integers(1, 10**6), st.data())
    def test_interval_contains_the_rate_within_unit_range(self, n, data):
        count = data.draw(st.sampled_from((0, 1, n - 1, n)) | st.integers(0, n))
        rate, low, high = experiment._rate_interval(count, n)
        assert rate == count / n
        assert 0.0 <= low <= rate <= high <= 1.0

    def test_summary_rows_carry_wilson_bounds(self):
        cfg = single_word_cfg(n_trials=10)
        row = summarize(run_trials(cfg), cfg.recall.strength_threshold)[0]
        assert row.resolved_rate == 1.0 and row.resolved_ci_low < 1.0
        assert row.tot_rate == 0.0 and row.tot_ci_high > 0.0


class TestSummarize:
    def test_all_resolved(self):
        cfg = single_word_cfg(n_trials=10)
        rows = summarize(run_trials(cfg), cfg.recall.strength_threshold)
        assert len(rows) == 1
        row = rows[0]
        assert row.resolved_rate == 1.0 and row.tot_rate == 0.0 and row.noaccess_rate == 0.0
        assert row.n_records == row.n_trials == 10
        assert row.mean_attempts == 3.0 and row.median_attempts == 3.0
        assert row.eventual_resolution_rate == 1.0

    def test_rates_partition_to_one(self):
        cfg = single_word_cfg(
            n_trials=300,
            semantic_input_flip_rate=0.4,
            recall={"cue_fraction": 0.0, "max_attempts": 4},
            lexicon={
                "selection_threshold": 0.5,
                "words": [
                    {
                        "id": "target",
                        "semantic": P9.to_text(),
                        "lexical": P9.to_text(),
                        "phonological": P9.to_text(),
                    }
                ],
            },
        )
        rows = summarize(run_trials(cfg), cfg.recall.strength_threshold)
        row = rows[0]
        assert 0.0 < row.noaccess_rate < 1.0  # mixed outcomes present
        assert abs(row.resolved_rate + row.tot_rate + row.noaccess_rate - 1.0) < 1e-9
        for rate, lo, hi in (
            (row.resolved_rate, row.resolved_ci_low, row.resolved_ci_high),
            (row.tot_rate, row.tot_ci_low, row.tot_ci_high),
            (row.noaccess_rate, row.noaccess_ci_low, row.noaccess_ci_high),
        ):
            assert 0.0 <= lo <= rate <= hi <= 1.0

    def test_the_strength_threshold_has_no_default(self):
        records = run_trials(single_word_cfg(n_trials=2))
        with pytest.raises(TypeError):
            summarize(records)

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            summarize([], 0.7)

    def test_slot_rates_reported(self):
        cfg = single_word_cfg(
            lexicon={
                "words": [
                    {
                        "id": "target",
                        "semantic": P9.to_text(),
                        "lexical": P9.to_text(),
                        "phonological": P9.to_text(),
                    }
                ],
                "slots": {"first_letter": [0, 1, 2]},
            },
            n_trials=5,
        )
        rows = summarize(run_trials(cfg), cfg.recall.strength_threshold)
        assert rows[0].slot_rates == {"first_letter": 1.0}


class TestValidator:
    def make_rows(self, tmp_path):
        cfg = single_word_cfg(
            n_trials=200,
            semantic_input_flip_rate=0.35,
            recall={"cue_fraction": 0.2, "max_attempts": 6},
            lexicon={
                "selection_threshold": 0.4,
                "words": [
                    {
                        "id": "target",
                        "semantic": P9.to_text(),
                        "lexical": P9.to_text(),
                        "phonological": P9.to_text(),
                    }
                ],
            },
        )
        records = run_trials(cfg)
        path = tmp_path / "records.csv"
        write_records_csv(records, path)
        return read_record_rows(path)

    def test_emitted_records_pass(self, tmp_path):
        rows = self.make_rows(tmp_path)
        assert {r["classification"] for r in rows} >= {"Resolved", "NoAccess"}
        assert validate_record_rows(rows, max_attempts=6, spike_ms=1.0, interval_ms=10.0) == []

    def test_corrupted_rows_flagged(self, tmp_path):
        rows = self.make_rows(tmp_path)
        rows[0]["classification"] = "Bogus"
        rows[1]["total_time_ms"] += 1.0
        rows[2]["tot_strength"] = 2.0
        problems = validate_record_rows(rows, max_attempts=6, spike_ms=1.0, interval_ms=10.0)
        flagged = {p.split(":")[0] for p in problems}
        assert flagged == {"row 0", "row 1", "row 2"}

    def test_negative_attempt_count_reported(self, tmp_path):
        rows = self.make_rows(tmp_path)
        rows[0]["att_sem"] = -1
        problems = validate_record_rows(rows, max_attempts=6, spike_ms=1.0, interval_ms=10.0)
        assert any(p.startswith("row 0: attempt counts") for p in problems)


class TestScenarioLexicon:
    def test_corruption_applied_via_keyed_stream(self):
        cfg = single_word_cfg(
            metamemory_corruption=[
                {"word": "target", "component": "phonological", "flips": 2}
            ]
        )
        lex_a = build_scenario_lexicon(cfg)
        lex_b = build_scenario_lexicon(cfg)
        node_a, node_b = lex_a.node_by_id("target"), lex_b.node_by_id("target")
        assert node_a.metamemory_ref == node_b.metamemory_ref
        assert node_a.metamemory_ref["phonological"] != node_a.components["phonological"].stored[0]

    def test_damage_keyed_per_sweep_point(self):
        # The flip_rate axis leaves the damage plan as it is, so the two
        # points differ only in the index that keys their damage stream.
        cfg = single_word_cfg(
            damage=[{"word": "target", "component": "phonological", "fraction": 0.5}],
            sweep={"flip_rate": [0.0, 0.1]},
        )
        base = build_scenario_lexicon(cfg)
        first, second = sweep_points(cfg)
        assert first.damage == second.damage
        a = damaged_lexicon(cfg, base, first)
        b = damaged_lexicon(cfg, base, first)
        c = damaged_lexicon(cfg, base, second)
        wa = a.node_by_id("target").components["phonological"].w_int
        wb = b.node_by_id("target").components["phonological"].w_int
        wc = c.node_by_id("target").components["phonological"].w_int
        assert np.array_equal(wa, wb)
        assert not np.array_equal(wa, wc)

    def test_protected_slots_survive_damage(self):
        cfg = single_word_cfg(
            lexicon={
                "words": [
                    {
                        "id": "target",
                        "semantic": P9.to_text(),
                        "lexical": P9.to_text(),
                        "phonological": P9.to_text(),
                    }
                ],
                "slots": {"first_letter": [0, 1, 2]},
            },
            damage=[
                {
                    "word": "target",
                    "component": "phonological",
                    "fraction": 1.0,
                    "protected_slots": ["first_letter"],
                }
            ],
        )
        lex = damaged_lexicon(cfg, build_scenario_lexicon(cfg), sweep_points(cfg)[0])
        w = lex.node_by_id("target").components["phonological"].w_int
        assert w[:3, :3].all()  # slot block intact
        assert not w[3:, 3:].any()  # everything else zeroed


class TestRecordRow:
    def test_seed_child_format(self):
        records = run_trials(single_word_cfg(n_trials=2))
        assert [r.seed_child for r in records] == ["11-0-0", "11-0-1"]

    def test_row_shape_matches_header(self, tmp_path):
        path = tmp_path / "records.csv"
        write_records_csv(run_trials(single_word_cfg(n_trials=1)), path)
        header, *lines = path.read_text().splitlines()
        assert lines and all(len(line.split(",")) == len(header.split(",")) for line in lines)


class TestPerComponentLengths:
    def test_components_may_differ_in_length(self):
        raw = {
            "seed": 21,
            "lexicon": {
                "words": [
                    {
                        "id": "t",
                        "semantic": "+-+-+-+",      # 7 units
                        "lexical": P9.to_text(),     # 9 units
                        "phonological": "+-+--++-+-+",  # 11 units
                    }
                ]
            },
            "target": "t",
            "recall": {"cue_fraction": 1.0, "max_attempts": 4},
            "n_trials": 3,
        }
        cfg, _ = parse_config(raw)
        records = run_trials(cfg)
        assert all(r.classification == "Resolved" for r in records)


class TestSweepCompleteness:
    def test_records_cover_the_whole_grid(self):
        cfg = single_word_cfg(
            damage=[{"word": "target", "component": "phonological", "fraction": 0.0}],
            sweep={"q": [0.0, 0.5, 1.0], "d": [0.0, 0.25]},
            n_trials=3,
        )
        records = run_trials(cfg)
        assert len(records) == 3 * 3 * 2
        coords = {(r.sweep_q, r.sweep_d) for r in records}
        assert coords == {(q, d) for q in (0.0, 0.5, 1.0) for d in (0.0, 0.25)}


# The records CSV's field columns before and after the slot columns.
FIELDS_BEFORE_SLOTS = (
    "trial,sweep_q,sweep_d,flip_rate,episode,classification,"
    "sel_completeness,att_sem,att_lex,att_phon,tot_strength"
)
FIELDS_AFTER_SLOTS = "total_time_ms,seed_child"


class TestCsvRoundTrip:
    def test_every_emitted_field_round_trips(self, tmp_path):
        cfg = single_word_cfg(
            n_trials=50,
            semantic_input_flip_rate=0.3,
            recall={"cue_fraction": 0.2, "max_attempts": 6},
            lexicon={
                "selection_threshold": 0.4,
                "words": [
                    {
                        "id": "target",
                        "semantic": P9.to_text(),
                        "lexical": P9.to_text(),
                        "phonological": P9.to_text(),
                    }
                ],
                "slots": {"first_letter": [0, 1, 2]},
            },
        )
        records = run_trials(cfg)
        path = tmp_path / "records.csv"
        write_records_csv(records, path)
        rows = read_record_rows(path)
        assert len(rows) == len(records)
        for record, row in zip(records, rows):
            assert row["trial"] == record.trial
            assert row["sweep_q"] == record.sweep_q
            assert row["sweep_d"] == record.sweep_d
            assert row["flip_rate"] == record.flip_rate
            assert row["episode"] == record.episode
            assert row["classification"] == record.classification
            assert row["sel_completeness"] == record.sel_completeness
            assert row["att_sem"] == record.att_sem
            assert row["att_lex"] == record.att_lex
            assert row["att_phon"] == record.att_phon
            assert row["tot_strength"] == record.tot_strength
            assert row["slot_first_letter"] == record.partial_info["first_letter"]
            assert row["total_time_ms"] == round(record.total_time_ms, 3)
            assert row["seed_child"] == record.seed_child

    @pytest.mark.parametrize(
        "column, cell",
        [
            ("slot_first_letter", "2"),
            ("slot_first_letter", "-1"),
            ("slot_first_letter", " 1"),
            ("slot_first_letter", "01"),
            ("sweep_q", "0.50"),
            ("trial", "+1"),
        ],
    )
    def test_a_cell_not_in_its_written_form_is_rejected(self, tmp_path, column, cell):
        path = tmp_path / "records.csv"
        write_records_csv(run_trials(slotted_cfg(n_trials=3)), path)
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")
        cells[lines[0].split(",").index(column)] = cell
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParameterError) as e:
            read_record_rows(path)
        assert str(e.value) == f"row 1: {column} cell {cell!r} is not in its written form"

    @pytest.mark.parametrize(
        "header",
        [
            f"{FIELDS_BEFORE_SLOTS},slot_last_letter,slot_first_letter,{FIELDS_AFTER_SLOTS}",
            f"{FIELDS_BEFORE_SLOTS},slot_first_letter,slot_first_letter,{FIELDS_AFTER_SLOTS}",
            FIELDS_BEFORE_SLOTS.replace("trial,", "trial,slot_first_letter,")
            + f",slot_last_letter,{FIELDS_AFTER_SLOTS}",
            FIELDS_BEFORE_SLOTS.replace("episode,", "")
            + f",slot_first_letter,slot_last_letter,{FIELDS_AFTER_SLOTS}",
        ],
        ids=["slots_out_of_order", "slot_repeated", "slot_misplaced", "field_missing"],
    )
    def test_a_malformed_header_is_rejected(self, tmp_path, header):
        path = tmp_path / "records.csv"
        slots = {"first_letter": [0, 1, 2], "last_letter": [6, 7, 8]}
        write_records_csv(run_trials(slotted_cfg(slots, n_trials=3)), path)
        written, *lines = path.read_text().splitlines()
        assert written == (
            f"{FIELDS_BEFORE_SLOTS},slot_first_letter,slot_last_letter,{FIELDS_AFTER_SLOTS}"
        )
        path.write_text("\n".join([header, *lines]) + "\n")
        with pytest.raises(ParameterError, match="unexpected records header"):
            read_record_rows(path)

    def test_flip_rate_points_are_told_apart(self, tmp_path):
        cfg = single_word_cfg(n_trials=3, sweep={"flip_rate": [0.1, 0.2]})
        path = tmp_path / "records.csv"
        write_records_csv(run_trials(cfg), path)
        points = {}
        for row in read_record_rows(path):
            points.setdefault((row["sweep_q"], row["sweep_d"], row["flip_rate"]), []).append(row)
        assert sorted(f for _, _, f in points) == [0.1, 0.2]
        assert len({(q, d) for q, d, _ in points}) == 1
        assert all(len(rows) == 3 for rows in points.values())
