"""Benchmark koblab on one workload, end to end or layer by layer.

    python3 bench/run.py --workload model-solves --seed 1 --seconds 15 --trace 0

Run from the repository root; koblab is imported from ``src/``.  The run
times set-up in fresh processes (``probe.py``), then repeats whole rounds
of the workload's operations, each round in a new seeded shuffled order,
and stops after the round that brings it closest to ``--seconds`` once
``MIN_OPS`` operations ran.  Then, untimed, it checks round one's outputs
against references computed apart from koblab, checks that every later
round gave the same outputs, and prints one JSON object as the last line
of standard output.

Every time is scaled to a reference speed, because the machine's speed
drifts (see ``README.md``): an operation's by calibration slices run
between operations, set-up's by a reference import run after each probe.
With ``--trace 0`` the object holds the end-to-end metrics.  With
``--trace 1`` rounds alternate untraced and traced (see ``spans.py``) and
the object holds the per-layer metrics and the tracing overhead.  A single
process with one thread does all the work; the CLI runs with
``--threads 1``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

import workloads
from probe import import_koblab
from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".bench_tmp")   # outputs the CLI writes
MIN_OPS = 100          # op_ms_p90 needs ten samples beyond it
CAL_ITER = 6000        # one calibration slice
CAL_REFERENCE_S = 2.0e-3   # a slice at the full speed of the machine the
                           # README's figures come from
CAL_WEIGHTS = np.arange(8.0)
SETUP_PAIRS = 5        # probe and reference processes timed for setup_s
REFERENCE_IMPORT = ("import time, numpy, scipy.optimize; "
                    "print(repr(time.monotonic()))")
SETUP_REFERENCE_S = 0.55   # REFERENCE_IMPORT's time at the full speed of the
                           # README's machine

LAYERS = ("geometry.contains", "geometry.inner_radius_fast",
          "geometry.boundary_distance", "geometry.nearest_boundary_point",
          "geometry.directional_distance", "geometry.psi",
          "metric.lower_bound", "metric.pair_tube", "solver.solve")
SELF_ONLY = ("metric.bracket", "diagnostics", "cases", "cli", "svg")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _calibration_slice() -> float:
    """Seconds taken by a fixed slice of interpreter and small-numpy work."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(CAL_ITER):
        s += math.sqrt(i + 1.0) * 1.0000001
        if i % 8 == 0:
            s += float(CAL_WEIGHTS @ CAL_WEIGHTS) * 1e-9
    return time.perf_counter() - t0


def _seconds_to_ready(argv) -> float:
    """Wall time from starting ``argv`` to the monotonic clock it prints."""
    t0 = time.monotonic()              # CLOCK_MONOTONIC is system-wide
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    if done.returncode != 0:
        raise SystemExit(f"set-up probe failed:\n{done.stderr}")
    return float(done.stdout.split()[-1]) - t0


def _setup_seconds(args, workdir: str) -> float:
    """Median over fresh processes of process start to first op ready,
    scaled to the reference speed by a fresh process that only imports
    numpy and scipy, run right after each one.  Calibration slices did
    not track a probe's import-bound time; the reference import does."""
    probe = [sys.executable, os.path.join(HERE, "probe.py"), args.workload,
             str(args.seed), os.path.join(workdir, "probe")]
    os.makedirs(probe[-1])
    reference = [sys.executable, "-c", REFERENCE_IMPORT]
    return SETUP_REFERENCE_S * statistics.median(
        _seconds_to_ready(probe) / _seconds_to_ready(reference)
        for _ in range(SETUP_PAIRS))


def _run_round(ops, order):
    """Run every op once in ``order``, with a calibration slice before each
    op and after the last.  Returns (returns, errors by op index, op times,
    op times scaled to the reference speed)."""
    rets, errors, times = [None] * len(ops), {}, []
    clock = time.perf_counter
    cals = [_calibration_slice()]
    for i in order:
        t0 = clock()
        try:
            rets[i] = ops[i].run()
        except Exception as exc:        # a failed op is counted, not fatal
            errors[i] = repr(exc)
        times.append(clock() - t0)
        cals.append(_calibration_slice())
    # one slice is noisy; the median of the six nearest tracks the speed
    scaled = [t * CAL_REFERENCE_S / statistics.median(
        cals[max(0, j - 2):j + 4]) for j, t in enumerate(times)]
    return rets, errors, times, scaled


def _layer_metrics(tracer: Tracer, speed: float) -> dict:
    """name -> (value, unit) for one traced round; ``speed`` is raw time
    over scaled time."""
    ms = 1e3 / speed
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = (tracer.calls[layer], "count")
        out[f"{layer}.self_ms"] = (ms * tracer.self_s[layer], "ms")
    for layer in SELF_ONLY:
        out[f"{layer}.self_ms"] = (ms * tracer.self_s[layer], "ms")
    out["metric.pair_tube.win_ratio"] = (
        tracer.tube_wins / tracer.tube_runs if tracer.tube_runs else 0.0,
        "ratio")
    out["solver.sweeps"] = (tracer.sweeps, "count")
    out["solver.ms_per_sweep"] = (
        ms * tracer.self_s["solver.solve"] / tracer.sweeps
        if tracer.sweeps else 0.0, "ms")
    return out


@dataclass
class Timed:
    """What the timed phase leaves: round one's records and errors, the
    untraced op times (raw and scaled), rounds run, scaled round times by
    kind, per-layer figures per traced round, and determinism problems."""

    records: list = None
    errors: dict = None
    times: list = field(default_factory=list)
    scaled: list = field(default_factory=list)
    elapsed: float = 0.0
    n_rounds: int = 0
    rounds: dict = field(default_factory=lambda: {"plain": [], "traced": []})
    layers: list = field(default_factory=list)
    problems: list = field(default_factory=list)


def _enough(args, out: Timed, traced: bool) -> bool:
    """Stop when one more whole round would overshoot ``--seconds`` by more
    than stopping now falls short, once MIN_OPS untraced ops ran or, when
    traced, once a plain and a traced round ran."""
    if out.n_rounds < (2 if traced else 1):
        return False
    if not traced and len(out.times) < MIN_OPS:
        return False
    return out.elapsed + 0.5 * out.elapsed / out.n_rounds >= args.seconds


def _measure(args, workload) -> Timed:
    ops = workload.ops
    rng = np.random.default_rng([args.seed, 99])
    tracer = Tracer() if args.trace else None
    out = Timed()
    while not _enough(args, out, tracer is not None):
        order = rng.permutation(len(ops))
        traced = tracer is not None and out.n_rounds % 2 == 1
        if traced:
            tracer.reset()
            with tracer.installed():
                rets, errors, times, scaled = _run_round(ops, order)
            out.layers.append(_layer_metrics(tracer,
                                             sum(times) / sum(scaled)))
        else:
            rets, errors, times, scaled = _run_round(ops, order)
            out.times += times
            out.scaled += scaled
        out.n_rounds += 1
        out.elapsed += sum(times)
        out.rounds["traced" if traced else "plain"].append(sum(scaled))
        got = [None if i in errors else op.collect(r)
               for i, (op, r) in enumerate(zip(ops, rets))]
        if out.records is None:
            out.records, out.errors = got, errors
        elif got != out.records or errors.keys() != out.errors.keys():
            changed = [i for i, (a, b) in enumerate(zip(got, out.records))
                       if a != b or (i in errors) != (i in out.errors)]
            out.problems.append(f"round {out.n_rounds}: outputs of ops "
                                f"{changed} differ from round 1")
    return out


def _layer_report(timed: Timed, n_ops: int, problems: list) -> dict:
    first = timed.layers[0]
    for other in timed.layers[1:]:
        for name, (value, unit) in first.items():
            if unit == "count" and other[name][0] != value:
                problems.append(f"{name} changed between traced rounds")
    metrics = {}
    for name, (value, unit) in first.items():
        if unit == "ms":
            value = statistics.median(r[name][0] for r in timed.layers)
        metrics[name] = {"value": value, "unit": unit}
    overhead = (statistics.median(timed.rounds["traced"])
                - statistics.median(timed.rounds["plain"])) / n_ops
    metrics["trace.overhead_ms_per_op"] = {"value": 1e3 * overhead,
                                           "unit": "ms"}
    return metrics


def _end_to_end_report(timed: Timed, setup_s: float, peak_rss_mb: float,
                       quality: dict) -> dict:
    scaled = timed.scaled
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(scaled) / sum(scaled), "1/s"),
        "op_ms_p50": (1e3 * statistics.median(scaled), "ms"),
        "op_ms_p90": (1e3 * statistics.quantiles(scaled, n=10)[8], "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    metrics.update((name, (value, "nat")) for name, value in quality.items())
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    args = _parse(argv)
    import_koblab()
    os.makedirs(SCRATCH, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=SCRATCH)
    try:
        setup_s = None if args.trace else _setup_seconds(args, workdir)
        workload = workloads.build(args.workload, args.seed, workdir)
        timed = _measure(args, workload)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        evaluation = workload.evaluate(timed.records)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(SCRATCH)           # only when no other run uses it
        except OSError:
            pass

    n_ops = len(workload.ops)
    problems = timed.problems + evaluation.problems
    if args.trace:
        metrics = _layer_report(timed, n_ops, problems)
    else:
        metrics = _end_to_end_report(timed, setup_s, peak_rss_mb,
                                     evaluation.quality)
    for i, err in sorted(timed.errors.items()):
        print(f"op {i} ({workload.ops[i].kind}) raised {err}", file=sys.stderr)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    failed = evaluation.failed | timed.errors.keys()
    print(json.dumps({"correct": not problems,
                      "attempted": timed.n_rounds * n_ops,
                      "failed": timed.n_rounds * len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
