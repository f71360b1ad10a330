"""One benchmark run, executed in a fresh interpreter started by run.py.

The run is a loop of rounds.  Each round starts cold: the `mig` modules are
dropped from `sys.modules` and imported again (so every Matroid object and
the `all_matroids` cache are new), the round's inputs are built from the
seed, and then the timed work runs.  Every round of a run builds the same
inputs, so rounds repeat one measurement.  Set-up time is the import plus the
input build; a few set-up-only passes before the first round add samples.
With tracing on, rounds alternate between traced and untraced, which gives
the tracing overhead from the same run.

Prints one JSON object on stdout: the metrics and the per-round detail.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import random
import statistics
import sys
import time
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spantrace as tracing  # noqa: E402
import speedprobe  # noqa: E402
import workloads  # noqa: E402

SETUP_PASSES = 4

MIG_MODULES = (
    "bitset",
    "errors",
    "matroid",
    "derived",
    "cyclic",
    "catalog",
    "structures",
    "relgraph",
    "game",
    "lbcs_construct",
    "quantum",
    "algebra",
    "jsonio",
    "cli",
)


def fresh_import(src: str) -> Dict[str, object]:
    """Drop every `mig` module and import the package again from `src`."""
    for name in [k for k in sys.modules if k == "mig" or k.startswith("mig.")]:
        del sys.modules[name]
    mods = {"mig": importlib.import_module("mig")}
    for name in MIG_MODULES:
        mods[name] = importlib.import_module(f"mig.{name}")
    where = os.path.dirname(os.path.abspath(mods["mig"].__file__))
    if where != os.path.join(src, "mig"):
        raise ImportError(f"mig imported from {where}, not from {src}")
    return mods


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100)."""
    ordered = sorted(values)
    k = max(0, min(len(ordered) - 1, int(-(-q * len(ordered) // 100)) - 1))
    return ordered[k]


def segment_medians(rounds: List[List[float]]) -> float:
    """Sum over the timed segments of each segment's median across rounds.

    Rounds repeat the same work, so segment k of every round times the same
    call.  Taking the median per segment before summing discards a
    segment slowed by a burst of load from other tenants in one round even
    when every round caught some burst.  Rounds that differ in shape (a
    failed round) fall back to the median of the round totals.
    """
    if len({len(r) for r in rounds}) != 1:
        return statistics.median(sum(r) for r in rounds)
    return sum(statistics.median(col) for col in zip(*rounds))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--src", required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--corrupt", default=None)
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]
    sizes = workloads.TINY if args.tiny else workloads.Sizes()
    known = workloads.known_answers()
    if args.corrupt:
        workloads.corrupt(known, args.corrupt)
    sys.path.insert(0, args.src)
    import numpy

    tracer = tracing.Tracer()
    probe = speedprobe.Probe()
    state: Dict[str, object] = {}
    rounds: List[Dict[str, object]] = []
    failures: List[str] = []
    attempted = failed = 0
    last_spans = None
    begin = time.perf_counter()
    # Set-up is short, so a few set-up-only passes come before the first
    # round; setup_s is the median over these and every untraced round.
    probe.start()
    setups: List[Tuple[float, float]] = []
    for _ in range(SETUP_PASSES):
        gc.collect()
        t0 = time.perf_counter()
        mig = fresh_import(args.src)
        try:
            wl.setup(mig, random.Random(args.seed), sizes)
        except Exception:  # the rounds record the crash as a failed verdict
            pass
        setups.append(probe.rescale(t0, time.perf_counter()))
        del mig
    while True:
        index = len(rounds)
        traced = bool(args.trace) and index % 2 == 0
        # Stop when the next round would overrun, once the minimum is met
        # (one round, or one traced and one untraced round when tracing).
        if index >= (2 if args.trace else 1):
            walls = [r["wall_s"] for r in rounds]
            if time.perf_counter() - begin + statistics.median(walls) > args.seconds:
                break
        rng = random.Random(args.seed)
        tracer.clear()
        gc.collect()
        if traced:
            probe.stop()
        else:
            probe.start()
        t_round = time.perf_counter()
        mig = fresh_import(args.src)
        if traced:
            tracing.install(tracer, mig)
            tracer.enabled = True
        with tracer.segment("bench.setup"):
            try:
                inputs = wl.setup(mig, rng, sizes)
            except Exception as exc:  # a crash in the program fails the round
                inputs = exc
        t_setup = time.perf_counter()

        spans: List[Tuple[float, float]] = []
        latency_spans: List[int] = []

        @contextlib.contextmanager
        def seg(latency_sample: bool = False):
            with tracer.segment("bench.verdict") as s:
                yield s
            if latency_sample:
                latency_spans.append(len(spans))
            spans.append((s.t0, s.t0 + s.seconds))

        try:
            if isinstance(inputs, Exception):
                raise inputs
            verdicts = wl.run(mig, inputs, seg, known, state)
        except Exception as exc:  # a crash in the program fails the round
            verdicts = [[f"{type(exc).__name__}: {exc}"]]
        tracer.enabled = False
        if traced:
            setup_s, setup_wall = t_setup - t_round, t_setup - t_round
            segments = walls = [t1 - t0 for t0, t1 in spans]
        else:
            setup_s, setup_wall = probe.rescale(t_round, t_setup)
            pairs = [probe.rescale(t0, t1) for t0, t1 in spans]
            segments = [p[0] for p in pairs]
            walls = [p[1] for p in pairs]
        record: Dict[str, object] = {
            "traced": traced,
            "setup_s": setup_s,
            "verdict_s": sum(segments),
            "segments": segments,
            "setup_wall_s": setup_wall,
            "verdict_wall_s": sum(walls),
            "verdicts": len(verdicts),
            "latency_s": [segments[i] for i in latency_spans],
        }
        if traced:
            record["trace"] = tracing.summarize(tracer)
            last_spans = tracing.dump_spans(tracer)
        for v in verdicts:
            attempted += 1
            if v:
                failed += 1
                failures.extend(v)
        record["wall_s"] = time.perf_counter() - t_round
        rounds.append(record)
        del mig, inputs, verdicts
    probe.stop()

    untraced = [r for r in rounds if not r["traced"]]
    traced_rounds = [r for r in rounds if r["traced"]]
    med = statistics.median
    out = {
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "rounds": len(rounds),
        "numpy": numpy.__version__,
        "setup_s": med([s for s, _ in setups] + [r["setup_s"] for r in untraced]),
        "verdict_s": segment_medians([r["segments"] for r in untraced]),
        "setup_wall_s": med([w for _, w in setups] + [r["setup_wall_s"] for r in untraced]),
        "verdict_wall_s": med([r["verdict_wall_s"] for r in untraced]),
        "probe_ref_ms": probe.median_ms(),
        "probe_samples": len(probe.durations),
        "round_setup_s": [r["setup_s"] for r in rounds],
        "round_verdict_s": [r["verdict_s"] for r in rounds],
        "round_verdict_wall_s": [r["verdict_wall_s"] for r in rounds],
        "round_traced": [r["traced"] for r in rounds],
    }
    lat = [x for r in untraced for x in r["latency_s"]]
    out["matroid_p50_ms"] = 1000 * percentile(lat, 50) if lat else 0.0
    out["matroid_p99_ms"] = 1000 * percentile(lat, 99) if lat else 0.0
    out["matroid_samples"] = len(lat)
    if traced_rounds:
        out["trace"] = per_layer(traced_rounds, out["verdict_wall_s"])
        if args.spans_out:
            with open(args.spans_out, "w", encoding="utf-8") as fp:
                json.dump(last_spans, fp)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


def per_layer(traced_rounds, untraced_verdict_s: float) -> Dict[str, float]:
    """Medians over the traced rounds of every per-layer quantity."""
    med = statistics.median
    summaries = [r["trace"] for r in traced_rounds]
    metrics: Dict[str, float] = {}
    for layer in tracing.LAYERS + (tracing.BENCH,):
        metrics[f"{layer}.self_s"] = med(
            [s["layer_self_s"].get(layer, 0.0) for s in summaries]
        )
    for fn in tracing.function_names():
        metrics[f"{fn}.s"] = med([s["fn_seconds"].get(fn, 0.0) for s in summaries])
        metrics[f"{fn}.calls"] = med([s["fn_calls"].get(fn, 0) for s in summaries])
    for name in tracing.output_names():
        metrics[name] = med([s["outputs"].get(name, 0) for s in summaries])
    traced_s = med([s["verdict_s"] for s in summaries])
    metrics["trace.verdict_s"] = traced_s
    metrics["trace.untraced_verdict_s"] = untraced_verdict_s
    metrics["trace.overhead_s"] = traced_s - untraced_verdict_s
    metrics["trace.spans"] = med([s["spans"] for s in summaries])
    return metrics


if __name__ == "__main__":
    sys.exit(main())
