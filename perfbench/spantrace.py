"""Span tracing installed from outside the package.

`install` wraps the traced functions of freshly imported `mig` modules.  A
wrapper replaces the function everywhere a `mig` module binds it: the
defining module's attribute, every `from .x import f` global, and the
class attribute for a `Matroid` method.  Lazy imports inside `mig.cli`
read the module attribute at call time, so they resolve to the wrapper
too.  Spans (name, start, end, parent) are kept in memory; `summarize`
turns one round's spans into self time per layer and per-function totals.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Tuple

# The modules of src/mig whose time is reported as a layer.  `bitset` and
# `jsonio` are leaves and count towards their callers.
LAYERS = (
    "cli",
    "lbcs_construct",
    "relgraph",
    "structures",
    "derived",
    "matroid",
    "catalog",
    "cyclic",
    "quantum",
    "algebra",
    "game",
)

# Traced functions as (module, attribute); "Matroid.dual" names a method.
TRACED: Tuple[Tuple[str, str], ...] = (
    ("cli", "main"),
    ("lbcs_construct", "build_paper_pair"),
    ("lbcs_construct", "shared_invariant_report"),
    ("lbcs_construct", "minor_obstruction_certificate"),
    ("lbcs_construct", "m_s_matroid"),
    ("lbcs_construct", "lbcs_from_matroid"),
    ("relgraph", "find_isomorphism"),
    ("relgraph", "find_matroid_isomorphism"),
    ("relgraph", "automorphism_group"),
    ("relgraph", "build_graph"),
    ("structures", "covers"),
    ("structures", "pointed_sets"),
    ("derived", "derive_sets"),
    ("derived", "tutte_polynomial"),
    ("derived", "rank_table"),
    ("matroid", "Matroid.predicates"),
    ("matroid", "Matroid.dual"),
    ("matroid", "Matroid.connectivity"),
    ("matroid", "Matroid.relabel"),
    ("matroid", "brute_force_isomorphic"),
    ("matroid", "check_exchange_axiom"),
    ("catalog", "all_matroids"),
    ("cyclic", "matroid_from_cyclic_flats"),
    ("quantum", "verify_lbcs_quantum_strategy"),
    ("quantum", "iso_game_pvms"),
    ("quantum", "verify_sync_conditions"),
    ("algebra", "screen_quantum_iso"),
    ("algebra", "noncommutativity_certificate"),
    ("game", "lbcs_solutions"),
)


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.split('.')[-1]}"


# Output counts recorded at the outermost call of a function: name -> (key,
# extractor, how rounds combine repeated calls).
OUTPUTS: Dict[str, Tuple[Tuple[str, Callable[[object], int], str], ...]] = {
    "relgraph.build_graph": (("vertices", lambda g: g.n, "sum"),),
    "relgraph.automorphism_group": (
        ("generators", lambda grp: len(grp.generators), "sum"),
        ("order", lambda grp: grp.order, "max"),
    ),
    "lbcs_construct.minor_obstruction_certificate": (
        ("subsets", lambda cert: cert["pSideScan"]["subsets"], "sum"),
    ),
    "catalog.all_matroids": (("count", len, "sum"),),
}

BENCH = "bench"  # span names of the benchmark's own segments start with this


def function_names() -> List[str]:
    return [span_name(mod, attr) for mod, attr in TRACED]


def output_names() -> List[str]:
    return [f"{fn}.{key}" for fn, outs in OUTPUTS.items() for key, _, _ in outs]


class Tracer:
    """In-memory span store for one round; cleared in place between rounds."""

    def __init__(self) -> None:
        self.enabled = False
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.outputs: List[Tuple[int, str, int]] = []  # (span, key, value)
        self.stack: List[int] = []

    def clear(self) -> None:
        for col in (self.names, self.starts, self.ends, self.parents, self.outputs):
            col.clear()
        self.stack.clear()

    def wrap(self, name: str, fn: Callable) -> Callable:
        outs = OUTPUTS.get(name, ())
        clock = time.perf_counter
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, recorded = self.stack, self.outputs

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            for key, get, _ in outs:
                recorded.append((idx, key, get(result)))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def segment(self, name: str) -> "_Segment":
        return _Segment(self, name)


class _Segment:
    """Times one stretch of the benchmark's own work; a root span when tracing."""

    __slots__ = ("tracer", "name", "idx", "t0", "seconds")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name
        self.seconds = 0.0

    def __enter__(self) -> "_Segment":
        tr = self.tracer
        self.idx = -1
        if tr.enabled:
            self.idx = len(tr.names)
            tr.names.append(self.name)
            tr.parents.append(tr.stack[-1] if tr.stack else -1)
            tr.ends.append(0.0)
            tr.stack.append(self.idx)
            tr.starts.append(0.0)
        self.t0 = time.perf_counter()
        if self.idx >= 0:
            tr.starts[self.idx] = self.t0
        return self

    def __exit__(self, *exc) -> None:
        t1 = time.perf_counter()
        self.seconds = t1 - self.t0
        if self.idx >= 0:
            self.tracer.ends[self.idx] = t1
            self.tracer.stack.pop()


def install(tracer: Tracer, modules: Dict[str, object]) -> None:
    """Wrap every traced function in the given fresh `mig` modules."""
    for mod_name, attr in TRACED:
        mod = modules[mod_name]
        name = span_name(mod_name, attr)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, tracer.wrap(name, cls.__dict__[meth]))
            continue
        original = getattr(mod, attr)
        wrapper = tracer.wrap(name, original)
        for other in modules.values():
            for key, value in list(vars(other).items()):
                if value is original:
                    setattr(other, key, wrapper)


def summarize(tracer: Tracer) -> Dict[str, object]:
    """Self time per layer, per-function totals and output counts of a round.

    Root spans are the benchmark's own segments.  Layer self time sums the
    self time of spans under "bench.verdict" roots, so the layers plus the
    benchmark's own share add up to the traced verdict time.  Function
    totals count only outermost calls (a recursive call is not counted
    twice) and cover every phase, set-up included.
    """
    names, starts, ends, parents = (
        tracer.names,
        tracer.starts,
        tracer.ends,
        tracer.parents,
    )
    n = len(names)
    dur = [ends[i] - starts[i] for i in range(n)]
    child_sum = [0.0] * n
    root = [0] * n
    outermost = [True] * n
    for i in range(n):
        p = parents[i]
        if p < 0:
            root[i] = i
            continue
        child_sum[p] += dur[i]
        root[i] = root[p]
        # outermost unless an ancestor has the same name (call depth is small)
        a = p
        while a >= 0:
            if names[a] == names[i]:
                outermost[i] = False
                break
            a = parents[a]
    layer_self: Dict[str, float] = {}
    fn_seconds: Dict[str, float] = {}
    fn_calls: Dict[str, int] = {}
    verdict_s = 0.0
    for i in range(n):
        name = names[i]
        if parents[i] < 0 and name == f"{BENCH}.verdict":
            verdict_s += dur[i]
        if names[root[i]] == f"{BENCH}.verdict":
            layer = name.split(".")[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + dur[i] - child_sum[i]
        if not name.startswith(BENCH):
            fn_calls[name] = fn_calls.get(name, 0) + 1
            if outermost[i]:
                fn_seconds[name] = fn_seconds.get(name, 0.0) + dur[i]
    outputs: Dict[str, int] = {}
    for idx, key, value in tracer.outputs:
        if not outermost[idx]:
            continue
        name = f"{names[idx]}.{key}"
        mode = next(m for k, _, m in OUTPUTS[names[idx]] if k == key)
        prev = outputs.get(name)
        if prev is None:
            outputs[name] = value
        elif mode == "max":
            outputs[name] = max(prev, value)
        else:
            outputs[name] = prev + value
    return {
        "spans": n,
        "verdict_s": verdict_s,
        "layer_self_s": layer_self,
        "fn_seconds": fn_seconds,
        "fn_calls": fn_calls,
        "outputs": outputs,
    }


def dump_spans(tracer: Tracer) -> Dict[str, list]:
    """The round's spans as columns, for writing out at exit."""
    t0 = min(tracer.starts) if tracer.starts else 0.0
    return {
        "name": list(tracer.names),
        "start_s": [s - t0 for s in tracer.starts],
        "end_s": [e - t0 for e in tracer.ends],
        "parent": list(tracer.parents),
    }

