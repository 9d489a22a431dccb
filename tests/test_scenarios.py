"""The scenario library reproduces the qualitative retrieval effects."""

import totsim.scenarios as sc
from totsim.config import parse_config
from totsim.experiment import build_scenario_lexicon, materialize_bonuses, run_trials, summarize
from totsim.patterns import flip_by_rate

from helpers import trial_rng


def run(raw):
    cfg, _ = parse_config(raw)
    return cfg, run_trials(cfg)


class TestScenarioLibrary:
    def test_every_scenario_parses(self):
        for name in sc.names():
            cfg, _ = parse_config(sc.load(name))
            assert cfg.n_trials >= 1, name

    def test_free_recall_attempt_cost(self):
        cfg, records = run(sc.load("free_recall", n_trials=800))
        rows = summarize(records)
        assert rows[0].resolved_rate == 1.0
        # three components, about two one-pass attempts each
        assert 5.0 < rows[0].mean_attempts < 7.5

    def test_cue_intensity_speeds_up_retrieval(self):
        cfg, records = run(sc.load("cue_sweep", n_trials=300))
        rows = sorted(summarize(records), key=lambda r: r.sweep_q)
        assert rows[0].mean_attempts > rows[-1].mean_attempts + 1.0
        assert all(r.resolved_rate > 0.99 for r in rows)

    def test_damage_raises_tot_rate(self):
        cfg, records = run(sc.load("damage_sweep", n_trials=400))
        rows = sorted(summarize(records), key=lambda r: r.sweep_d)
        tot_rates = [r.tot_rate for r in rows]
        assert tot_rates[0] < 0.05
        assert tot_rates[-1] > 0.9
        assert all(b >= a - 0.05 for a, b in zip(tot_rates, tot_rates[1:]))

    def test_priming_flips_selection_while_it_lasts(self):
        raw = sc.load(
            "priming_interloper",
            n_trials=100,
            priming=[{"word": "neighbor", "bonus": 0.7, "decay_trials": 50}],
        )
        cfg, _ = parse_config(raw)
        lex = build_scenario_lexicon(cfg)
        truth = lex.node_by_id("target").truth["semantic"]

        def selected(trial):
            semantic_input = flip_by_rate(
                truth, cfg.semantic_input_flip_rate, trial_rng(cfg.seed, 0, trial)
            )
            got = lex.select_node(semantic_input, bonuses=materialize_bonuses(cfg, trial))
            return got[0].id if got else None

        early = [selected(t) for t in range(40)]
        late = [selected(t) for t in range(60, 100)]
        assert early.count("neighbor") / len(early) > 0.7
        assert late.count("target") / len(late) > 0.7

    def test_illusory_reference_never_resolves(self):
        cfg, records = run(sc.load("illusory_tot", n_trials=300))
        assert all(r.classification == "TOT" for r in records)
        assert {r.tot_strength for r in records} == {7 / 9}

    def test_partial_information_outlives_resolution(self):
        cfg, records = run(sc.load("partial_information", n_trials=2000))
        rows = summarize(records)
        row = rows[0]
        assert 0.0 < row.resolved_rate < 1.0
        assert row.slot_rates["first_letter"] > row.resolved_rate

    def test_delayed_resolution_happens(self):
        cfg, records = run(sc.load("delayed_resolution", n_trials=1500))
        later = [r for r in records if r.episode > 1 and r.classification == "Resolved"]
        assert later
