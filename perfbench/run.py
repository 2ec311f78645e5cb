#!/usr/bin/env python3
"""Benchmark of the plabic package: one workload per run.

    python3 perfbench/run.py --workload walk --seed 7 --seconds 25 --trace 0

Run from the repository root.  The package is imported from ``src/`` next
to this directory.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The exit code is 0 only when every
answer was checked correct.  See README.md in this directory.
"""

import argparse
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import calib
import spans
import workloads as W

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / "perfbench" / "out"
SETUP_REPS = 3
CLOCK = time.perf_counter

# apply_move spans are named by move kind; moves.apply_move sums them all
SPAN_NAMES = [name for name, _, _ in W.LAYERS if name != "moves.apply_move"]
APPLY_KINDS = ["moves.apply_move." + k for k in W.PRIMITIVE]
DECIDE_TAGS = [tag for tag, _, _ in W.Decide.rotations]


class Recorder:
    """Op intervals, failures and legal-move counts of one measured phase.

    An op is recorded as its ``(start, end, share)`` on the wall clock, where
    ``share`` is 1 over the number of ops that share the interval; the
    sampler turns intervals into calibrated seconds once the phase is over.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.lat = []  # op intervals of the current round
        self.ops = 0
        self.failed = 0
        self.returned = 0
        self.kept = 0
        self.by_tag = {}  # tag -> op intervals
        self.notes = []

    def begin(self):
        t0 = CLOCK()
        if self.tracer is not None:
            return t0, self.tracer.begin_op(self.ops)
        return t0, None

    def end(self, handle, ok, tag=None, count=1, note=None):
        t0, span = handle
        if self.tracer is not None:
            self.tracer.end_op(span)
        op = (t0, CLOCK(), 1 / count)
        self.lat.extend([op] * count)
        self.ops += count
        if not ok:
            self.failed += count
            if len(self.notes) < 5:
                self.notes.append(note or f"check failed in op {self.ops - 1}")
        if tag is not None:
            self.by_tag.setdefault(tag, []).append(op)


def import_plabic():
    """Import the package afresh, so that repeated set-ups each pay for it."""
    for name in [n for n in sys.modules if n == "plabic" or n.startswith("plabic.")]:
        del sys.modules[name]
    P = importlib.import_module("plabic")
    F = importlib.import_module("plabic.fixtures")
    if not Path(P.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"imported plabic from {P.__file__}, not from {SRC}")
    return P, F


def setup(wl, seed, trace, sampler):
    """Import plus input generation, SETUP_REPS times, in calibrated
    seconds; the last one is used."""
    times = []
    for _ in range(SETUP_REPS):
        t0 = CLOCK()
        P, F = import_plabic()
        tracer = spans.Tracer() if trace else None
        if tracer is not None:
            tracer.op = "setup"
        counts = Recorder()
        inputs = wl.make_inputs(P, F, W.layers(P, tracer), random.Random(seed), counts)
        times.append(sampler.calibrate(t0, CLOCK()))
        if tracer is not None:
            tracer.op = None
    return statistics.median(times), times, P, inputs, tracer, counts


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(wl, P, L, inputs, seconds, rec):
    """Repeat rounds while the next one, taking as long as the last, still
    ends within ``seconds``; at least one round.  Returns
    ``(wall seconds, op latencies, work counts)`` per round.  Sets
    ``rec.peak_rss_mb`` after the first round: later rounds repeat its
    work, and the records they add would make the peak depend on how many
    rounds the host's speed allowed."""
    rounds = []
    start = CLOCK()
    while True:
        rec.lat = []
        t0 = CLOCK()
        work = wl.run_round(P, L, inputs, rec)
        t1 = CLOCK()
        rounds.append((t1 - t0, rec.lat, work))
        if len(rounds) == 1:
            rec.peak_rss_mb = peak_rss_mb()
        if t1 - start + (t1 - t0) > seconds:
            return rounds


def percentile(sorted_vals, q):
    """Nearest-rank percentile."""
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]


def op_time(sampler, op):
    t0, t1, share = op
    return sampler.calibrate(t0, t1) * share


def op_times(sampler, rounds):
    """Each op's median calibrated latency over the rounds.  Rounds repeat
    the same ops, so this also drops slow moments the calibration missed."""
    lats = [[op_time(sampler, op) for op in lat] for _, lat, _ in rounds]
    if any(len(lat) != len(lats[0]) for lat in lats):  # a failed op cut a round
        return [x for lat in lats for x in lat]
    return [statistics.median(col) for col in zip(*lats)]


def ops_per_s(sampler, rounds):
    times = op_times(sampler, rounds)
    return len(times) / sum(times)


def work_problems(wl, seed, rounds):
    out = []
    if any(work != rounds[0][2] for _, _, work in rounds):
        out.append("work counts differ between rounds")
    if seed == W.DEFAULT_SEED and rounds[0][2] != wl.pinned:
        out.append(f"work at seed {seed} is {rounds[0][2]}, pinned {wl.pinned}")
    return out


def commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()[:12]
        return ref[:12]
    except OSError:
        return "unknown"


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(sampler, rounds, rec, setup_s):
    """The gated metrics, and the tail percentiles, which are printed but
    not gated: on walk op_p99_ms falls on the last steps of the few walks
    that grew largest, and on equiv op_p90_ms among a few seeded searches,
    so both move with the seed by more than a bound could allow."""
    lat = sorted(op_times(sampler, rounds))
    gated = {
        "ops_per_s": metric(len(lat) / sum(lat), "1/s"),
        "op_p50_ms": metric(percentile(lat, 0.50) * 1e3, "ms"),
        "wall_s": metric(sum(lat), "s"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(rec.peak_rss_mb, "MB"),
    }
    return gated, {"op_p90_ms": metric(percentile(lat, 0.90) * 1e3, "ms"),
                   "op_p99_ms": metric(percentile(lat, 0.99) * 1e3, "ms")}


def per_layer(sampler, tracer, untraced_rounds, untraced_rec, traced_rounds,
              counts):
    selfs = tracer.self_times()
    out = {}
    for name in SPAN_NAMES + APPLY_KINDS:
        calls, secs = selfs.get(name, (0, 0.0))
        out[name + ".calls"] = metric(calls, "count")
        out[name + ".self_ms"] = metric(secs * 1e3, "ms")
    applied = [v for k, v in selfs.items() if k.startswith("moves.apply_move.")]
    out["moves.apply_move.calls"] = metric(sum(c for c, _ in applied), "count")
    out["moves.apply_move.self_ms"] = metric(sum(s for _, s in applied) * 1e3, "ms")
    out["moves.legal_moves.returned"] = metric(counts.returned, "count")
    out["moves.legal_moves.kept_ratio"] = metric(
        counts.kept / counts.returned if counts.returned else 0.0, "ratio")
    for tag in DECIDE_TAGS:
        ops = untraced_rec.by_tag.get(tag, [])
        secs = sum(op_time(sampler, op) for op in ops)
        out[f"decide.{tag}.mean_us"] = metric(
            secs / len(ops) * 1e6 if ops else 0.0, "us")
    out["bench.self_ms"] = metric(selfs.get("bench.op", (0, 0.0))[1] * 1e3, "ms")
    untraced = ops_per_s(sampler, untraced_rounds)
    traced = ops_per_s(sampler, traced_rounds)
    out["bench.untraced_ops_per_s"] = metric(untraced, "1/s")
    out["bench.traced_ops_per_s"] = metric(traced, "1/s")
    out["bench.trace_overhead_ops_per_s"] = metric(traced - untraced, "1/s")
    return out


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, default=W.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "plabic" / "__init__.py").is_file():
        print(f"error: no plabic package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = W.WORKLOADS[args.workload]
    print(f"env python={platform.python_version()} nproc={os.cpu_count()} "
          f"commit={commit()} workload={wl.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")

    sampler = calib.Sampler()
    sampler.start()
    try:
        return run(args, wl, sampler)
    finally:
        sampler.stop()


def run(args, wl, sampler):
    setup_s, setup_times, P, inputs, tracer, counts = setup(
        wl, args.seed, args.trace, sampler)
    print(f"setup_s {setup_s:.4f} s (median of {SETUP_REPS}: "
          + ", ".join(f"{t:.4f}" for t in setup_times) + ")")
    print("inputs " + json.dumps(wl.describe(P, W.layers(P), inputs)))

    seconds = args.seconds / 2 if args.trace else args.seconds
    rec = Recorder()
    rounds = measure(wl, P, W.layers(P), inputs, seconds, rec)
    problems = work_problems(wl, args.seed, rounds)
    attempted, failed = rec.ops, rec.failed
    notes = list(rec.notes)
    if args.trace:
        traced = Recorder(tracer)
        L = W.layers(P, tracer)
        traced_rounds = measure(wl, P, L, inputs, seconds, traced)
        problems += work_problems(wl, args.seed, traced_rounds)
        attempted += traced.ops
        failed += traced.failed
        notes += traced.notes
        if hasattr(wl, "probe"):
            tracer.op = "probe"
            wl.probe(P, L, inputs, traced)
            tracer.op = None
        counts.returned += traced.returned
        counts.kept += traced.kept
        metrics = per_layer(sampler, tracer, rounds, rec, traced_rounds, counts)
        extra = {}
        SPAN_DIR.mkdir(exist_ok=True)
        span_file = SPAN_DIR / f"spans-{wl.name}-{args.seed}.jsonl"
        tracer.dump(span_file)
        print(f"spans {len(tracer.spans)} written to "
              f"{span_file.relative_to(ROOT)}")
    else:
        metrics, extra = end_to_end(sampler, rounds, rec, setup_s)

    print("work " + json.dumps(rounds[0][2]))
    n_samples, ref_med, ref_share = sampler.summary()
    wall_ops = [sampler.own_time(t0, t1) * share
                for _, lat, _ in rounds for t0, t1, share in lat]
    print(f"calibration {n_samples} reference samples, median "
          f"{ref_med * 1e6:.1f} us (nominal {calib.NOMINAL_S * 1e6:g} us), "
          f"{ref_share:.1%} of the time; uncalibrated "
          f"{len(wall_ops) / sum(wall_ops):.6g} ops per wall second")
    print(f"rounds {len(rounds)}, ops per round {len(rounds[0][1])}, "
          f"ops {rec.ops}; op times are per-op medians over the rounds")
    n_ops, n_rounds = len(rounds[0][1]), len(rounds)
    for name, m in {**metrics, **extra}.items():
        print(f"{wl.name} {name} {m['value']:.6g} {m['unit']} "
              f"(n={n_ops} ops x {n_rounds} rounds)")
    print(f"{wl.name} error_rate {failed / max(attempted, 1):.6g} "
          f"({failed} of {attempted} ops)")
    for msg in notes + problems:
        print(f"FAILED: {msg}", file=sys.stderr)
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
