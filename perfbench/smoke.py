"""Smoke test of the benchmark itself, at tiny sizes.

    python3 perfbench/smoke.py

For every workload: a tiny run with `--trace 0` must emit exactly the
end-to-end metrics of BENCHMARK.json and a tiny run with `--trace 1`
exactly its per-layer metrics, both correct; and a tiny run with one
expected answer corrupted must count failed verdicts (error rate above 0)
and report `correct: false`.  Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from typing import List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out", "smoke")

# one expected answer per workload that its checks read
CORRUPT = {
    "paper_pair": "paper_pair.aut_orders",
    "relabel_search": "relabel.aut_order",
    "catalog6_kernel": "catalog.count",
}


def run(workload: str, trace: int, extra: List[str] = ()) -> dict:
    cmd = [
        sys.executable,
        os.path.join(HERE, "run.py"),
        "--workload", workload,
        "--seed", "7",
        "--seconds", "1",
        "--trace", str(trace),
        "--tiny",
        "--out", OUT,
        *extra,
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise AssertionError(f"{cmd} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fp:
        bench = json.load(fp)
    declared = {
        0: [m["name"] for m in bench["end_to_end"]],
        1: [m["name"] for m in bench["per_layer"]],
    }
    problems: List[str] = []
    # every workload run.py knows, declared in BENCHMARK.json or not
    for wl in CORRUPT:
        for trace in (0, 1):
            res = run(wl, trace)
            if sorted(res["metrics"]) != sorted(declared[trace]):
                missing = set(declared[trace]) - set(res["metrics"])
                extra = set(res["metrics"]) - set(declared[trace])
                problems.append(f"{wl} trace {trace}: missing {missing}, extra {extra}")
            if not res["correct"] or res["failed"]:
                problems.append(f"{wl} trace {trace}: not correct: {res}")
        bad = run(wl, 0, ["--corrupt", CORRUPT[wl]])
        if bad["correct"] or not bad["failed"] / bad["attempted"] > 0:
            problems.append(f"{wl}: corrupted answer {CORRUPT[wl]} went unnoticed")
        print(f"{wl}: checked", flush=True)
    for p in problems:
        print(f"FAIL {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} failures")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
