"""Traced-run report: where each workload's verdict time goes.

    python3 perfbench/report.py [--dir perfbench/out] [--md REPORT.md]

Reads the result files that run.py wrote into `--dir`.  For each workload
it takes the traced runs (`--trace 1`) and the untraced runs (`--trace 0`)
and prints one row per workload: self time per layer, their sum against
the traced verdict time, and the tracing overhead, both within the traced
run (traced rounds against its untraced rounds) and against the median
untraced run.  Every time in this table is wall time: an untraced run's
wall verdict time (without the speed probe's own time) stands in for its
nominal `verdict_s`.  A second table gives call counts and output counts.
Values are medians over the runs found.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spantrace  # noqa: E402


def load(directory: str) -> Dict[str, Dict[int, List[dict]]]:
    runs: Dict[str, Dict[int, List[dict]]] = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-trace[01].json"))):
        with open(path, encoding="utf-8") as fp:
            detail = json.load(fp)
        meta = detail["meta"]
        if meta.get("tiny") or meta.get("corrupt"):
            continue
        runs.setdefault(meta["workload"], {0: [], 1: []})[meta["trace"]].append(detail)
    return runs


def med(runs: List[dict], name: str) -> float:
    return statistics.median(r["result"]["metrics"][name]["value"] for r in runs)


def report(runs: Dict[str, Dict[int, List[dict]]]) -> str:
    layers = list(spantrace.LAYERS) + [spantrace.BENCH]
    lines = ["## Self time per layer (s per round, traced rounds)", ""]
    head = ["workload", "runs"] + layers + ["sum", "traced verdict_s", "untraced (same run)", "overhead", "untraced runs (wall)", "overhead vs runs"]
    lines.append("| " + " | ".join(head) + " |")
    lines.append("|" + "---|" * len(head))
    for wl, by_trace in sorted(runs.items()):
        traced = by_trace[1]
        if not traced:
            continue
        selfs = [med(traced, f"{layer}.self_s") for layer in layers]
        tv = med(traced, "trace.verdict_s")
        same = med(traced, "trace.untraced_verdict_s")
        row = [wl, str(len(traced))] + [f"{v:.4f}" for v in selfs]
        row += [f"{sum(selfs):.4f}", f"{tv:.4f}", f"{same:.4f}", f"{tv - same:+.4f}"]
        if by_trace[0]:
            plain = statistics.median(r["child"]["verdict_wall_s"] for r in by_trace[0])
            row += [f"{plain:.4f} (n={len(by_trace[0])})", f"{tv - plain:+.4f}"]
        else:
            row += ["-", "-"]
        lines.append("| " + " | ".join(row) + " |")
    lines += ["", "## Calls, seconds and output counts per round (traced rounds)", ""]
    names = sorted(runs)
    lines.append("| metric | " + " | ".join(names) + " |")
    lines.append("|---|" + "---|" * len(names))
    rows = []
    for fn in spantrace.function_names():
        rows += [f"{fn}.s", f"{fn}.calls"]
    rows += spantrace.output_names()
    rows += ["trace.spans", "profile.matroid_p50_ms", "profile.matroid_p99_ms", "probe.ref_ms"]
    for name in rows:
        cells = []
        for wl in names:
            traced = runs[wl][1]
            cells.append(f"{med(traced, name):.6g}" if traced else "-")
        if any(c not in ("0", "-") for c in cells):
            lines.append(f"| {name} | " + " | ".join(cells) + " |")
    lines += ["", "## Machine", ""]
    for wl in names:
        some = (runs[wl][1] or runs[wl][0])[0]["meta"]
        lines.append(
            f"- {wl}: python {some['python']}, numpy {some['numpy']}, nproc {some['nproc']}, "
            f"{some['cpu_model']}, commit {some['git_commit']}"
        )
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--dir", default=os.path.join(HERE, "out"))
    ap.add_argument("--md", default=None, help="also write the report here")
    args = ap.parse_args(argv)
    text = report(load(args.dir))
    sys.stdout.write(text)
    if args.md:
        with open(args.md, "w", encoding="utf-8") as fp:
            fp.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
