"""Tests of the benchmark itself: tracer arithmetic, seeded inputs, the
metric declarations and a tiny-size run of every workload through its gates.

    python -m pytest perfbench/tests -q
"""

import json
import multiprocessing
import re
import shutil
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

import harness
import workloads
from tracer import Tracer
from totsim import experiment, patterns
from totsim.network import train

SPEC = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def synthetic(spans):
    """A tracer holding `(name, start, end, parent index)` spans."""
    tracer = Tracer()
    for name, start, end, parent in spans:
        idx = tracer._open(name)
        tracer._close(idx)
        tracer.start[idx], tracer.end[idx], tracer.parent[idx] = start, end, parent
    return tracer


def test_self_time_is_duration_minus_child_coverage():
    tracer = synthetic([
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("leaf", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
        ("leaf", 6.0, 8.0, 3),
    ])
    times = tracer.layer_times()
    assert times["root"] == {"calls": 1, "s": 10.0, "self_s": 3.0}
    assert times["a"] == {"calls": 1, "s": 3.0, "self_s": 2.0}
    assert times["b"] == {"calls": 1, "s": 4.0, "self_s": 2.0}
    assert times["leaf"] == {"calls": 2, "s": 3.0, "self_s": 3.0}
    assert sum(t["self_s"] for t in times.values()) == times["root"]["s"]
    assert tracer.nesting_errors() == []


def test_nesting_errors_flag_a_child_outside_its_parent():
    tracer = synthetic([("root", 0.0, 10.0, -1), ("late", 9.0, 11.0, 0)])
    assert tracer.nesting_errors() == ["a child span lies outside its parent"]


def test_nesting_errors_flag_overlapping_siblings():
    tracer = synthetic([
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 5.0, 0),
        ("b", 6.0, 9.0, 0),
        ("c", 4.0, 7.0, 0),
    ])
    assert tracer.nesting_errors() == ["sibling spans overlap"]


def test_installed_wrappers_count_and_restore():
    class Owner:
        @staticmethod
        def work(x):
            return x * 2

    original = Owner.work
    tracer = Tracer()
    with tracer.installed([(Owner, "work", "owner.work", {"twice": lambda r: r})]):
        with tracer.span("root"):
            assert Owner.work(3) == 6
            assert Owner.work(4) == 8
    assert Owner.work is original
    assert tracer.layer_times()["owner.work"]["calls"] == 2
    assert tracer.counts == {"owner.work.twice": 14}


def _allocate(mib):
    return float(np.ones(mib << 17).sum())


def test_worker_rss_leaves_out_inherited_pages():
    rss = harness.WorkerRss()
    inherited = np.ones(64 << 17)  # 64 MiB every worker starts with
    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(1, mp_context=fork) as pool:
        pool.submit(_allocate, 0).result()
    assert rss.largest_kb() < 32 << 10
    with ProcessPoolExecutor(1, mp_context=fork) as pool:
        pool.submit(_allocate, 64).result()
    assert rss.largest_kb() >= 60 << 10
    del inherited


def fingerprint(name, seed, tmp_path):
    """The seeded inputs of a workload, plus what one tiny pass drew."""
    wl = workloads.WORKLOADS[name]
    work = tmp_path / f"{name}-{seed}-{len(list(tmp_path.iterdir()))}"
    work.mkdir()
    inputs = wl.prepare(seed, work, tiny=True)
    state = wl.setup(inputs)
    out = work / "out"
    out.mkdir()
    assert wl.run_pass(inputs, state, out, 1) == 0
    if isinstance(wl, workloads.OracleWorkload):
        nets = [(q.label, q.net.w_int.tobytes(), q.reference.to_text(), q.cue) for q in state]
        return nets, (out / "oracle.txt").read_text()
    cfg, lex = state
    words = [(n.id, [n.metamemory_ref[c].to_text() for c in n.metamemory_ref]) for n in lex.nodes]
    draws = [line.split(",")[4:10] for line in (out / "records.csv").read_text().splitlines()]
    return words, draws


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_a_function_of_the_seed(name, tmp_path):
    first = fingerprint(name, 1, tmp_path)
    assert fingerprint(name, 1, tmp_path) == first
    assert fingerprint(name, 2, tmp_path) != first


def test_metric_and_workload_declarations():
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer") for m in SPEC[group]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    assert all(UNIT.fullmatch(m["unit"]) for m in metrics)
    assert all(m["better"] in ("higher", "lower") for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("traced", [False, True])
def test_tiny_run_passes_its_gates(name, traced):
    result = harness.run_one(SPEC, name, 7, 0.0, traced, tiny=True)
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] > 0
    declared = SPEC["per_layer" if traced else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    if not traced:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_a_wrong_oracle_answer_fails_the_gate(monkeypatch):
    exact = experiment.exact_success_prob
    monkeypatch.setattr(
        experiment, "exact_success_prob", lambda *a: exact(*a) + Fraction(1, 1 << 30)
    )
    result = harness.run_one(SPEC, "oracle_enum", 7, 0.0, False, tiny=True)
    assert not result["correct"] and result["failed"] > 0


def test_closed_form_matches_enumeration():
    rng = np.random.default_rng(0)
    assert workloads.closed_form_success(
        train([patterns.BipolarPattern.from_text("++-+--++-")]),
        patterns.BipolarPattern.from_text("++-+--++-"),
        range(3),
    ) == Fraction(57, 64)
    for n in (4, 5, 8):
        for trial in range(6):
            p = patterns.random_pattern(n, rng) if trial < 5 else patterns.BipolarPattern([1] * n)
            net = train([p]).apply_mask(trial / 10, rng)
            masked_up = patterns.BipolarPattern(
                [1 if i in net.mask else u for i, u in enumerate(p.units.tolist())]
            )
            ref = (patterns.random_pattern(n, rng), p, masked_up)[trial % 3]
            for k in range(n + 1):
                for cue in list(combinations(range(n), k))[:3]:
                    assert workloads.closed_form_success(net, ref, cue) == (
                        experiment.exact_success_prob(net, ref, cue)
                    ), (n, trial, cue)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(workloads.ROOT / "perfbench", tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle_enum", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
