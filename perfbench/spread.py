"""Run-to-run spread of the end-to-end metrics, as the acceptance rule reads it.

    python3 perfbench/spread.py --workload paper_pair --seeds 1-10 [--sets 2]

Runs `run.py --trace 0` once per seed (one run at a time), then reports for
each end-to-end metric the quartile spread (Q3 - Q1 of the per-run values,
from `statistics.quantiles(values, n=4)`) as a share of their median, next
to the metric's bound from BENCHMARK.json.  A spread must stay within the
bound (setup_s is exempt) and should stay below a third of it.  With
`--sets 2` the seeds run twice and the second median is compared with the
first.  Every run's result file lands in `--out`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def one_run(workload: str, seed: int, seconds: int, out: str) -> Dict[str, float]:
    cmd = [
        sys.executable,
        os.path.join(HERE, "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
        "--out", out,
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"seed {seed}: incorrect result {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values: List[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--out", default=os.path.join(HERE, "out"))
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fp:
        bench = json.load(fp)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    sets: List[Dict[str, List[float]]] = []
    ok = True
    for s in range(args.sets):
        values: Dict[str, List[float]] = {name: [] for name in bounds}
        for seed in seeds:
            got = one_run(args.workload, seed, seconds, args.out)
            for name in bounds:
                values[name].append(got[name])
        sets.append(values)
        print(f"set {s + 1} of {args.workload}, {len(seeds)} seeds:")
        for name, bound in bounds.items():
            sp = spread(values[name]) if len(seeds) > 1 else 0.0
            flag = "ok" if sp <= bound / 3 else ("within bound" if sp <= bound else "OVER")
            if name != "setup_s" and sp > bound:
                ok = False
            print(
                f"  {name:<12} median {statistics.median(values[name]):.6g}"
                f"  spread {sp:.4f}  bound {bound}  {flag}"
            )
    if len(sets) > 1:
        for name, bound in bounds.items():
            m1 = statistics.median(sets[0][name])
            m2 = statistics.median(sets[-1][name])
            worse = m2 / m1 - 1
            if worse > bound:
                ok = False
            print(f"  {name:<12} second median vs first: {worse:+.4f} (bound {bound})")
    summary = {"workload": args.workload, "seeds": seeds, "sets": sets, "ok": ok}
    with open(os.path.join(args.out, f"spread-{args.workload}.json"), "w") as fp:
        json.dump(summary, fp, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
