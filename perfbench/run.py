"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload paper_pair --seed 1 --seconds 55 --trace 0

Runs the workload in one fresh child interpreter (one caller, BLAS threads
pinned to 1) against the package in `src/` of this checkout, checks every
verdict against its known answer, writes a result file under
`perfbench/out/` and prints each metric with its unit.  The last line of
stdout is one JSON object with the keys `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
metrics with `--trace 1`.

`setup_s` and `verdict_s` are in nominal seconds (see `speedprobe.py`):
wall time rescaled by a reference loop sampled in the measuring thread, so
that the speed drift of a shared core does not show as a change of the
program.  The wall times are printed next to them and kept in the result
file.

Extra options: `--tiny` shrinks every workload for the smoke test,
`--corrupt KEY` replaces one expected answer by a wrong one, and `--out DIR`
puts the result file elsewhere.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import subprocess
import sys
import time
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD_DEADLINE_S = 170.0

sys.path.insert(0, HERE)

import spantrace  # noqa: E402
import workloads  # noqa: E402

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("verdict_s", "s"),
    ("peak_rss_mb", "MB"),
)


def per_layer_metrics() -> List[Tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    out = [(f"{layer}.self_s", "s") for layer in spantrace.LAYERS]
    out.append((f"{spantrace.BENCH}.self_s", "s"))
    for fn in spantrace.function_names():
        out += [(f"{fn}.s", "s"), (f"{fn}.calls", "count")]
    out += [(name, "count") for name in spantrace.output_names()]
    out += [
        ("trace.verdict_s", "s"),
        ("trace.untraced_verdict_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.spans", "count"),
        ("profile.matroid_p50_ms", "ms"),
        ("profile.matroid_p99_ms", "ms"),
        ("probe.ref_ms", "ms"),
    ]
    return out


def git_commit(root: str) -> str:
    """HEAD of the checkout's own repository, read from .git without git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fp:
            head = fp.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as fp:
                return fp.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fp:
            for line in fp:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest(src: str) -> str:
    """sha256 over the package sources, naming the code that was measured."""
    h = hashlib.sha256()
    pkg = os.path.join(src, "mig")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fp:
                h.update(fp.read())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fp:
            for line in fp:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_child(cmd: List[str], env: Dict[str, str], timeout: float) -> Tuple[int, str]:
    """Run the child to completion; on timeout or termination kill it and wait."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc.returncode, out.decode("utf-8", "replace")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--corrupt", default=None, choices=sorted(workloads.known_answers()))
    ap.add_argument("--out", default=os.path.join(HERE, "out"))
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "mig", "__init__.py")):
        sys.stderr.write(f"error: no package at {os.path.join(SRC, 'mig')}\n")
        return 2
    os.makedirs(args.out, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.tiny:
        stem += "-tiny"
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "corrupt": args.corrupt,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "loadavg_start": list(os.getloadavg()),
        "git_commit": git_commit(ROOT),
        "source_sha256": source_digest(SRC),
    }
    env = dict(os.environ)
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    ):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONNOUSERSITE"] = "1"
    env.pop("PYTHONPATH", None)
    cmd = [
        sys.executable,
        os.path.join(HERE, "child.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--src", SRC,
    ]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt:
        cmd += ["--corrupt", args.corrupt]
    if args.trace:
        cmd += ["--spans-out", os.path.join(args.out, stem + "-spans.json")]

    # SIGTERM unwinds through run_child, which then stops the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    started = time.perf_counter()
    try:
        code, out = run_child(cmd, env, CHILD_DEADLINE_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"error: run exceeded {CHILD_DEADLINE_S:.0f} s\n")
        return 3
    if code != 0:
        sys.stderr.write(f"error: benchmark child exited with {code}\n")
        return 3
    child = json.loads(out.strip().splitlines()[-1])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    meta["numpy"] = child.pop("numpy")
    meta["run_wall_s"] = time.perf_counter() - started

    if args.trace:
        values = dict(child["trace"])
        values["profile.matroid_p50_ms"] = child["matroid_p50_ms"]
        values["profile.matroid_p99_ms"] = child["matroid_p99_ms"]
        values["probe.ref_ms"] = child["probe_ref_ms"]
        declared = per_layer_metrics()
    else:
        values = {
            "setup_s": child["setup_s"],
            "verdict_s": child["verdict_s"],
            "peak_rss_mb": peak_rss_mb,
        }
        declared = list(END_TO_END)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in declared}
    attempted, failed = child["attempted"], child["failed"]
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    detail = {
        "meta": meta,
        "result": result,
        "error_rate": failed / attempted if attempted else 1.0,
        "peak_rss_mb": peak_rss_mb,
        "child": child,
    }
    with open(os.path.join(args.out, stem + ".json"), "w", encoding="utf-8") as fp:
        json.dump(detail, fp, indent=1)
        fp.write("\n")

    print(
        f"# {args.workload} seed={args.seed} trace={args.trace}: "
        f"{child['rounds']} rounds, {attempted} verdicts, {failed} failed "
        f"(error_rate {detail['error_rate']:.4f}); wall set-up "
        f"{child['setup_wall_s']:.4f} s, wall verdict {child['verdict_wall_s']:.4f} s, "
        f"reference loop {child['probe_ref_ms']:.4f} ms"
    )
    for failure in child["failures"]:
        print(f"# failure: {failure}")
    for name, unit in declared:
        print(f"{name} {values[name]} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
