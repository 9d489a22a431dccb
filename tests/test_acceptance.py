"""Acceptance suite: the project's exit criteria, each pinned to a fixed
tolerance.

Each test prints one PASS/FAIL verdict line (run with `pytest -s` to see
them all; captured output is shown on failure either way).
"""

from fractions import Fraction

import numpy as np
from numpy.random import SeedSequence, default_rng

import totsim.scenarios as sc
from totsim.cli import main
from totsim.config import parse_config
from totsim.experiment import (
    TrialRecord,
    exact_success_prob,
    run_trials,
    summarize,
    validate_record_rows,
)
from totsim.network import train
from totsim.output import read_record_rows, write_records_csv
from totsim.patterns import BipolarPattern, random_pattern
from totsim.recall import Classification, RecallParams, chronometry, recall_component, recall_word
from totsim.lexicon import Lexicon, corrupt_metamemory

from helpers import explicit_word, mean_success_prob_under_damage

P9 = BipolarPattern.from_text("++-+--++-")


def _verdict(num: int, description: str, ok: bool):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {num} failed: {description}"


def test_criterion_01_fixed_points():
    rng = default_rng(SeedSequence(101))
    failures = 0
    for _ in range(100):
        n = int(rng.integers(2, 32)) * 2 + 1  # odd, 5..63
        p = random_pattern(n, rng)
        net = train([p])
        neg = p.negate().units
        if not (
            np.array_equal(net.retrieve_once(p.units), p.units)
            and np.array_equal(net.retrieve_once(neg), neg)
        ):
            failures += 1
    _verdict(1, "100 single-pattern networks keep p and negate(p) as fixed points", failures == 0)


def test_criterion_02_free_recall_law_vs_oracle():
    ok = True
    for n in (7, 9, 11):
        p = random_pattern(n, default_rng(SeedSequence(200 + n)))
        net = train([p])
        ok &= exact_success_prob(net, p, []) == Fraction(1, 2)
        rng = default_rng(SeedSequence(300 + n))
        freq = np.mean(
            [recall_component(net, p, 0, 1, rng).resolved for _ in range(10000)]
        )
        ok &= abs(freq - 0.5) <= 0.02
    _verdict(2, "free recall success is exactly 1/2 (oracle) and 0.5 +/- 0.02 (Monte Carlo)", ok)


def test_criterion_03_cued_recall_exact_value():
    net = train([P9])
    exact = exact_success_prob(net, P9, range(3))
    rng = default_rng(SeedSequence(42))
    freq = np.mean(
        [recall_component(net, P9, 3, 1, rng).resolved for _ in range(10000)]
    )
    ok = exact == Fraction(57, 64) and abs(freq - 0.890625) <= 0.02
    _verdict(3, "cue 3 of 9 gives exactly 57/64, Monte Carlo within 0.02", ok)


def test_criterion_04_guarantee_law():
    net = train([P9])
    rng = default_rng(SeedSequence(404))
    outcomes = [recall_component(net, P9, 5, 64, rng) for _ in range(1000)]
    ok = all(o.resolved and o.attempts == 1 for o in outcomes)
    ok &= exact_success_prob(net, P9, range(5)) == Fraction(1)
    _verdict(4, "cue 5 of 9 resolves on the first attempt, 1000/1000, oracle probability 1", ok)


def test_criterion_05_cue_monotonicity():
    net = train([P9])
    probs = [exact_success_prob(net, P9, range(k)) for k in range(10)]
    ok = all(b >= a for a, b in zip(probs, probs[1:])) and probs[-1] == Fraction(1)
    _verdict(5, "exact success probability is non-decreasing over cue sizes 0..9", ok)


def test_criterion_06_damage_monotonicity():
    net = train([P9])
    slack = Fraction(1, 10**12)
    means = [
        mean_success_prob_under_damage(net, P9, [], d, 200, seed=606)
        for d in (0.0, 0.25, 0.5, 0.75)
    ]
    ok = all(b <= a + slack for a, b in zip(means, means[1:]))
    _verdict(6, "mean oracle success over 200 damage draws is non-increasing in d", ok)


def test_criterion_07_geometric_attempts():
    net = train([P9])
    rng = default_rng(SeedSequence(707))
    attempts = np.array(
        [recall_component(net, P9, 0, 64, rng).attempts for _ in range(10000)]
    )
    mean = attempts.mean()
    ks = np.arange(1, 65)
    empirical = np.array([(attempts <= k).mean() for k in ks])
    geometric = 1.0 - 0.5**ks
    dev = np.abs(empirical - geometric).max()
    ok = 1.9 <= mean <= 2.1 and dev < 0.02
    _verdict(7, f"attempts are geometric(1/2): mean {mean:.3f}, max CDF deviation {dev:.4f}", ok)


def test_criterion_08_chronometry(tmp_path):
    ok = chronometry(3, 1.0, 10.0) == 23.0
    record = TrialRecord(
        trial=0,
        sweep_q=0.0,
        sweep_d=0.0,
        flip_rate=0.0,
        episode=1,
        classification="TOT",
        sel_completeness=1.0,
        att_sem=3,
        att_lex=0,
        att_phon=0,
        tot_strength=0.0,
        partial_info={},
        total_time_ms=chronometry(3, 1.0, 10.0),
        seed_child="0-0-0",
    )
    write_records_csv([record], tmp_path / "records.csv")
    header, line = (tmp_path / "records.csv").read_text().splitlines()
    row = dict(zip(header.split(","), line.split(",")))
    ok &= row["total_time_ms"] == "23.000"
    for k in range(1, 10):
        ok &= (
            chronometry(k + 1, 1.0, 10.0) - chronometry(k, 1.0, 10.0) == 11.0
        )
    _verdict(8, "3 attempts at spike 1 ms / interval 10 ms cost exactly 23.000 ms, affine in attempts", ok)


def test_criterion_09_illusory_tot():
    net = train([P9])
    ref = P9.with_flipped([0])
    outcome = recall_component(net, ref, 0, 10000, default_rng(SeedSequence(909)))
    ok = not outcome.resolved and outcome.attempts == 10000
    ok &= outcome.best_overlap_frac == 7 / 9

    node = corrupt_metamemory(
        explicit_word("target", P9), "phonological", 1, default_rng(SeedSequence(910))
    )
    lex = Lexicon((node,), 0.3)
    params = RecallParams(
        cue_fraction={"semantic": 1.0, "lexical": 1.0, "phonological": 0.0},
        max_attempts=64,
    )
    word_outcome = recall_word(lex, P9, params, default_rng(SeedSequence(911)))
    ok &= word_outcome.classification is Classification.TOT
    ok &= word_outcome.tot_strength == 7 / 9
    _verdict(9, "corrupt reference: 0 resolutions in 10000 attempts, TOT with strength exactly 7/9", ok)


def test_criterion_10_partial_information():
    cfg, _ = parse_config(sc.load("partial_information", seed=1010, n_trials=10000))
    records = run_trials(cfg)
    row = summarize(records, cfg.recall.strength_threshold)[0]
    slot_rate = row.slot_rates["first_letter"]
    ok = len(records) == 10000
    ok &= slot_rate >= row.resolved_rate
    _verdict(
        10,
        f"protected first-letter slot matches at {slot_rate:.3f} >= resolution rate {row.resolved_rate:.3f}",
        ok,
    )


def _mixed_scenario(n_trials=400):
    return {
        "seed": 1111,
        "lexicon": {
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
        "target": "target",
        "semantic_input_flip_rate": 0.35,
        "recall": {"cue_fraction": 0.2, "max_attempts": 6},
        "n_trials": n_trials,
    }


def test_criterion_11_worker_independence(tmp_path):
    import json

    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(_mixed_scenario()))
    out_1, out_8 = tmp_path / "w1", tmp_path / "w8"
    code_1 = main(["simulate", "--config", str(cfg_path), "--out", str(out_1), "--workers", "1"])
    code_8 = main(["simulate", "--config", str(cfg_path), "--out", str(out_8), "--workers", "8"])
    same = (out_1 / "records.csv").read_bytes() == (out_8 / "records.csv").read_bytes()
    ok = code_1 == 0 and code_8 == 0 and same
    ok &= (out_1 / "summary.csv").read_bytes() == (out_8 / "summary.csv").read_bytes()
    _verdict(11, "records CSV is byte-identical at --workers 1 and --workers 8", ok)


def test_criterion_12_classification_partition(tmp_path):
    cfg, _ = parse_config(_mixed_scenario(n_trials=2000))
    records = run_trials(cfg)
    path = tmp_path / "records.csv"
    write_records_csv(records, path)
    rows = read_record_rows(path)
    classes = {r["classification"] for r in rows}
    problems = validate_record_rows(
        rows,
        max_attempts=cfg.recall.max_attempts,
        spike_ms=cfg.recall.spike_ms,
        interval_ms=cfg.recall.interval_ms,
    )
    ok = classes <= {"Resolved", "TOT", "NoAccess"} and len(classes) == 3
    ok &= problems == []
    _verdict(
        12,
        f"emitted records cover {sorted(classes)} and satisfy every outcome invariant",
        ok,
    )
