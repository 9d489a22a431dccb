"""Measuring and checking the workloads; `perfbench/run.py` is the entry point.

End-to-end metrics come from untraced passes. Per-layer metrics come from a
separate invocation that makes one traced pass at --workers 1, next to
untraced reference passes, so the tracing overhead is measured too.
"""

from __future__ import annotations

import argparse
import itertools
import json
import mmap
import multiprocessing.util
import os
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from tracer import Tracer
from workloads import PATCHES, ROOT, RUN_TRIALS_PATCH, SPAN_NAMES, WORKLOADS, bundle_digest

SETUP_ROUND_S = 1.0
SETUP_BATCH_S = 0.2
SETUP_MIN_CALLS = 2
MIN_PASSES = 2
TIMED_KEYS = ("calls", "s", "self_s")


class Passes:
    """The passes of one invocation: failure accounting and the digest gate."""

    def __init__(self, wl, inputs, work_dir: Path):
        self.wl, self.inputs, self.work_dir = wl, inputs, work_dir
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.digests: set[str] = set()
        self._count = 0

    def run(self, state, workers: int):
        """One pass into a fresh directory; returns (seconds, exit code, dir)."""
        out = self.work_dir / f"pass{self._count}"
        self._count += 1
        out.mkdir()
        t0 = perf_counter()
        try:
            code = self.wl.run_pass(self.inputs, state, out, workers)
        except Exception:
            traceback.print_exc()
            code = None
        return perf_counter() - t0, code, out

    def check(self, state, code, out: Path, keep=False):
        check = self.wl.check(state, out)
        self.attempted += check.ops
        if code != 0:
            self.failed += check.ops
            self.problems.append(f"a pass returned {code}")
        else:
            self.failed += check.failed
        self.problems.extend(check.problems)
        self.digests.add(bundle_digest(out))
        if not keep:
            shutil.rmtree(out)
        return check

    def finish(self) -> list[str]:
        if len(self.digests) > 1:
            self.problems.append(f"{len(self.digests)} distinct bundle digests across passes")
        return self.problems


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class WorkerRss:
    """The own peak RSS of each forked pool worker: its peak minus the RSS it
    inherited at fork, since a forked worker's peak counts the parent pages
    it starts with. Each worker writes it to a shared page as it exits."""

    SLOTS = 1024

    def __init__(self):
        self._kb = np.frombuffer(mmap.mmap(-1, 8 * self.SLOTS), dtype=np.int64)
        self._forks = 0
        os.register_at_fork(before=self._count_fork)
        multiprocessing.util.register_after_fork(self, WorkerRss._in_worker)

    def _count_fork(self):
        self._forks += 1

    def _in_worker(self):
        slot = self._forks - 1
        inherited = _maxrss_kb()  # straight after fork the peak is what was inherited

        def record():
            if slot < self.SLOTS:
                self._kb[slot] = _maxrss_kb() - inherited

        multiprocessing.util.Finalize(None, record, exitpriority=0)

    def largest_kb(self) -> int:
        n = min(self._forks, self.SLOTS)
        return int(self._kb[:n].max()) if n else 0


WORKER_RSS = WorkerRss()


def peak_rss_mb(workers: int) -> float:
    """Own peak RSS plus `workers` times the largest pool worker's own peak,
    an upper bound on the concurrent peak. Inherited pages a worker later
    writes to are not counted."""
    own = _maxrss_kb()
    if workers > 1:
        own += workers * WORKER_RSS.largest_kb()
    return own / 1024.0


def time_setups(name: str, inputs) -> float:
    """Mean seconds per set-up in this process: one untimed call, then at
    least SETUP_MIN_CALLS calls for at least SETUP_BATCH_S, timed as one
    batch."""
    wl = WORKLOADS[name]
    wl.setup(inputs)
    start = perf_counter()
    for count in itertools.count(1):
        wl.setup(inputs)
        batch = perf_counter() - start
        if batch >= SETUP_BATCH_S and count >= SETUP_MIN_CALLS:
            return batch / count


_SETUP_PROCESS = """
import pickle, sys
path, name, inputs = pickle.load(sys.stdin.buffer)
sys.path[:0] = path
from harness import time_setups
print(repr(time_setups(name, inputs)))
"""


def time_setups_in_fresh_process(name: str, inputs) -> float:
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_PROCESS],
        input=pickle.dumps((sys.path, name, inputs)),
        stdout=subprocess.PIPE,
        check=True,
    )
    return float(proc.stdout)


def measure(wl, inputs, work_dir: Path, seconds: float):
    """End-to-end metrics, untraced: rounds of set-ups and a pass, until the
    next round would end after `seconds`.

    A set-up's speed depends on the process it runs in: the same
    sub-millisecond set-up runs up to ~1.5x faster in some processes than in
    others, for the whole life of the process. So each round times batches
    of set-ups in fresh processes for at least SETUP_ROUND_S, and `setup_s`
    is the mean over all of them; a median over a few processes would jump
    between the fast and slow ones.
    `wall_s` is the median pass time. Set-ups are spread over the whole run,
    not timed in one burst, so both sample the same stretch of a machine
    whose speed drifts.
    """
    setup_times, walls, rounds = [], [], []
    passes = Passes(wl, inputs, work_dir)
    state = wl.setup(inputs)
    start = perf_counter()
    for n in itertools.count():
        if n > MIN_PASSES and perf_counter() - start + statistics.median(rounds) > seconds:
            break
        round_start = perf_counter()
        while True:
            setup_times.append(time_setups_in_fresh_process(wl.name, inputs))
            if perf_counter() - round_start >= SETUP_ROUND_S:
                break
        wall, code, out = passes.run(state, wl.workers)
        check = passes.check(state, code, out)
        rounds.append(perf_counter() - round_start)
        # The first pass grows the heap and imports what the program
        # imports lazily, so it is checked but not timed.
        if n:
            walls.append(wall)
    wall_s = statistics.median(walls)
    print(f"# {wl.name}: set-ups took {', '.join(f'{t:.6f}' for t in setup_times)} s, "
          f"timed passes at --workers {wl.workers} took {', '.join(f'{w:.3f}' for w in walls)} s, "
          f"bundle sha256 {min(passes.digests)}",
          file=sys.stderr)
    metrics = {
        "setup_s": statistics.fmean(setup_times),
        "wall_s": wall_s,
        "records_per_s": check.ops / wall_s,
        "attempts_per_s": check.work / wall_s,
        "peak_rss_mb": peak_rss_mb(wl.workers),
    }
    return metrics, passes


def trace(wl, inputs, work_dir: Path):
    """Per-layer metrics from one traced set-up and pass at --workers 1.

    Untraced reference passes come first, at --workers 1 and at the
    workload's own worker count; in them only `experiment.run_trials` is
    timed. Their bundles must match the traced one byte for byte.
    """
    passes = Passes(wl, inputs, work_dir)
    run_trials_s = {}
    reference_s = {}
    for workers in sorted({1, wl.workers}):
        timer = Tracer()
        with timer.installed(RUN_TRIALS_PATCH), timer.span("reference"):
            state = wl.setup(inputs)
            _, code, out = passes.run(state, workers)
        passes.check(state, code, out)
        times = timer.layer_times()
        reference_s[workers] = times["reference"]["s"]
        run_trials_s[workers] = times.get("experiment.run_trials", {}).get("s", 0.0)

    tracer = Tracer()
    with tracer.installed(PATCHES), tracer.span("trace.root"):
        state = wl.setup(inputs)
        _, code, out = passes.run(state, 1)
    check = passes.check(state, code, out, keep=True)
    times = tracer.layer_times()
    root_s = times["trace.root"]["s"]

    problems = passes.problems
    problems.extend(tracer.nesting_errors())
    for name in wl.required_spans:
        if times.get(name, {}).get("calls", 0) == 0:
            problems.append(f"span {name} recorded no calls")

    sizes = {p.name: p.stat().st_size for p in out.iterdir()}
    attempts = tracer.counts.get("recall.recall_component.attempts", 0)
    resolved = tracer.counts.get("recall.recall_component.resolved", 0)
    derived = {
        "recall.recall_component.attempts": attempts,
        "recall.resolved_per_attempt": resolved / attempts if attempts else 0.0,
        "experiment.fanout_efficiency": (
            run_trials_s[1] / (2 * run_trials_s[2]) if run_trials_s.get(2) else 0.0
        ),
        "experiment.run_trials.untraced_s": run_trials_s[1],
        "experiment.us_per_attempt": 1e6 * run_trials_s[1] / attempts if attempts else 0.0,
        "experiment.exact_success_prob.probes": (
            check.work if "experiment.exact_success_prob" in times else 0
        ),
        "output.write_records_csv.bytes": sizes.get("records.csv", 0),
        "output.write_summary_csv.bytes": sizes.get("summary.csv", 0),
        "output.write_metadata.bytes": sizes.get("run_meta.json", 0),
        "trace.overhead_s": root_s - reference_s[1],
    }
    return times, derived, passes


def layer_value(name: str, times, derived):
    if name in derived:
        return derived[name]
    span, _, key = name.rpartition(".")
    if span not in SPAN_NAMES or key not in TIMED_KEYS:
        raise KeyError(f"no measurement for per-layer metric {name!r}")
    return times.get(span, {}).get(key, 0)


def run_one(spec: dict, name: str, seed: int, seconds: float, traced: bool, tiny=False) -> dict:
    """One workload, untraced or traced, as the result object the benchmark prints."""
    wl = WORKLOADS[name]
    out_root = ROOT / ".perfbench_out"
    work_dir = out_root / f"{name}-{seed}-{'trace' if traced else 'run'}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        inputs = wl.prepare(seed, work_dir, tiny)
        if traced:
            times, derived, passes = trace(wl, inputs, work_dir)
            declared = spec["per_layer"]
            values = {m["name"]: layer_value(m["name"], times, derived) for m in declared}
        else:
            values, passes = measure(wl, inputs, work_dir, seconds)
            declared = spec["end_to_end"]
            if set(values) != {m["name"] for m in declared}:
                raise KeyError(f"measured {sorted(values)}, declared {declared}")
        problems = passes.finish()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            out_root.rmdir()
        except OSError:
            pass  # another run still uses it
    for problem in dict.fromkeys(problems):
        print(f"# {name}: FAIL {problem}", file=sys.stderr)
    return {
        "correct": not problems and passes.failed == 0,
        "attempted": passes.attempted,
        "failed": passes.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }


def run_all(spec: dict, seed: int, seconds: float) -> int:
    """Every workload untraced and traced, each in its own process so peak
    RSS is per workload; prints one table."""
    ok = True
    print(f"{'workload':<20} {'metric':<40} {'value':>14}  unit")
    for workload in spec["workloads"]:
        for traced in (0, 1):
            argv = [sys.executable, str(ROOT / "perfbench" / "run.py"),
                    "--workload", workload["name"], "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(traced)]
            proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload['name']:<20} exited with {proc.returncode}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            rows = [("error_rate", result["failed"] / result["attempted"], "ratio")]
            rows += [(k, v["value"], v["unit"]) for k, v in result["metrics"].items()]
            for metric, value, unit in rows:
                print(f"{workload['name']:<20} {metric:<40} {value:>14.6g}  {unit}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="totsim benchmark")
    parser.add_argument("--workload", default="all", help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(WORKLOADS):
        parser.error(f"BENCHMARK.json declares {names}, the harness has {sorted(WORKLOADS)}")
    if args.workload != "all" and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names} or all")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    if args.workload == "all":
        return run_all(spec, args.seed, seconds)
    result = run_one(spec, args.workload, args.seed, seconds, bool(args.trace))
    for name, metric in result["metrics"].items():
        print(f"{name:<40} {metric['value']:>14.6g}  {metric['unit']}")
    print(json.dumps(result))
    return 0
