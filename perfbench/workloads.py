"""The benchmark's workloads, their seeded inputs and known-answer checks.

Each workload has a `setup` that builds one round's inputs from a seeded
random generator and a `run` that does the round's timed work inside
segments and returns one verdict per question asked.  A verdict is a list
of failure messages; empty means correct.  Expected answers come from
mathematics, not from the code under test, and checking happens outside
the timed segments.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from math import comb
from typing import Callable, Dict, List, Sequence, Tuple

# The six lines of the 3x3 grid: three rows, then three columns.
GRID_LINES = ((0, 1, 2), (3, 4, 5), (6, 7, 8), (0, 3, 6), (1, 4, 7), (2, 5, 8))

# Labeled matroids on n elements (OEIS A058673).
LABELED_MATROIDS = {0: 1, 1: 2, 2: 5, 3: 16, 4: 68, 5: 406, 6: 3807}


def known_answers() -> Dict[str, object]:
    """Expected answers, each derived by hand or from the literature."""
    return {
        "paper_pair.exit_code": 0,
        "paper_pair.check_count": 12,
        # Aut(P) and Aut(Q) on the 72 nonbasis pointed sets: 72 * 2^4
        "paper_pair.aut_orders": ["1152", "1152"],
        # every 9-subset of the 18 elements is scanned, none is a witness
        "paper_pair.p_side_scan": {"subsets": comb(18, 9), "matches": 0},
        # 9 variables, 6 parity constraints of rank 5: 2^(9-5) solutions
        # for the homogeneous system, none once one sign is flipped
        "paper_pair.lbcs_solutions": [2 ** (9 - 5), 0],
        # sigma M is isomorphic to M by construction
        "relabel.isomorphic": True,
        "relabel.aut_order": 72 * 2**4,
        "catalog.count": dict(LABELED_MATROIDS),
    }


def corrupt(known: Dict[str, object], key: str) -> None:
    """Replace one expected answer by a wrong one (for the smoke test)."""
    if key not in known:
        raise KeyError(f"no expected answer named {key!r}")
    value = known[key]
    if isinstance(value, bool):
        known[key] = not value
    elif isinstance(value, int):
        known[key] = value + 1
    elif isinstance(value, dict):
        known[key] = {k: v + 1 for k, v in value.items()}
    else:
        known[key] = value[::-1] + value[:1]


@dataclass
class Sizes:
    """How much work one round does."""

    relabel_instances: int = 10
    catalog_n: int = 6


TINY = Sizes(relabel_instances=1, catalog_n=4)


Verdict = List[str]
# seg(latency_sample=False) times one stretch of work; a latency sample is
# also one sample of the per-matroid latency percentiles
Segment = Callable[..., contextlib.AbstractContextManager]


# -- paper_pair ---------------------------------------------------------------


def paper_pair_setup(mig, rng: random.Random, sizes: Sizes):
    return ["paper-pair", "--verify-all"]


def paper_pair_run(mig, argv, seg: Segment, known, state) -> List[Verdict]:
    buf = io.StringIO()
    with seg():
        with contextlib.redirect_stdout(buf):
            code = mig["cli"].main(list(argv))
    return [check_paper_pair(code, buf.getvalue(), known, state)]


def check_paper_pair(code: int, text: str, known, state) -> Verdict:
    bad: Verdict = []
    if code != known["paper_pair.exit_code"]:
        bad.append(f"exit code {code}")
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        return bad + [f"stdout is not JSON: {exc}"]
    checks = payload.get("checks", {})
    if len(checks) != known["paper_pair.check_count"]:
        bad.append(f"{len(checks)} checks")
    failing = sorted(k for k, v in checks.items() if v is not True)
    if failing:
        bad.append(f"checks false: {failing}")
    orders = payload.get("sharedInvariants", {}).get("relationGraphAutOrders")
    if orders != known["paper_pair.aut_orders"]:
        bad.append(f"aut orders {orders}")
    scan = payload.get("minorObstruction", {}).get("pSideScan")
    if scan != known["paper_pair.p_side_scan"]:
        bad.append(f"P-side scan {scan}")
    lbcs = payload.get("lbcs", {})
    sols = [lbcs.get("homogeneousSolutions"), lbcs.get("signedSolutions")]
    if sols != known["paper_pair.lbcs_solutions"]:
        bad.append(f"LBCS solutions {sols}")
    first = state.setdefault("stdout", text)
    if text != first:
        bad.append("stdout differs from the run's first round")
    return bad


# -- relabel_search ----------------------------------------------


@dataclass
class Instance:
    pattern: int  # bit i set: grid line i carries sign -1
    perm: Tuple[int, ...]  # element e of M becomes perm[e] in sigma M
    m: object
    sm: object


def _mask(elems: Sequence[int]) -> int:
    out = 0
    for e in elems:
        out |= 1 << e
    return out


def _instances(mig, rng: random.Random, count: int) -> List[Instance]:
    lc = mig["lbcs_construct"]
    out = []
    for _ in range(count):
        pattern = rng.randrange(1 << len(GRID_LINES))
        signs = lc.SignAssignment(
            {
                _mask(line): -1 if pattern >> i & 1 else 1
                for i, line in enumerate(GRID_LINES)
            }
        )
        m = lc.m_s_matroid(lc.grid_matroid(), signs)
        perm = list(range(m.n))
        rng.shuffle(perm)
        out.append(Instance(pattern, tuple(perm), m, m.relabel(perm)))
    return out


ISO_KINDS = ("nonbases", "hyperplanes", "flats")
AUT_KINDS = ("nonbases", "hyperplanes")


def relabel_setup(mig, rng: random.Random, sizes: Sizes):
    return _instances(mig, rng, sizes.relabel_instances)


def relabel_run(mig, instances, seg: Segment, known, state) -> List[Verdict]:
    """Positive iso M -> sigma M per kind, then Aut of sigma M's graphs.

    The aut queries reuse the pointed sets sigma M cached during the iso
    queries, as a caller asking both questions of one matroid would.
    """
    rg = mig["relgraph"]
    kind = mig["structures"].IsoStructure
    out = []
    for inst in instances:
        for k in ISO_KINDS:
            with seg():
                hit = rg.find_matroid_isomorphism(inst.m, inst.sm, kind(k))
            out.append(check_ground_map(inst, hit, known))
        for k in AUT_KINDS:
            with seg():
                graph = rg.build_graph(inst.sm, kind(k))
                group = rg.automorphism_group(graph)
            out.append(check_automorphisms(graph, group, known))
    return out


def check_ground_map(inst: Instance, hit, known) -> Verdict:
    """The returned ground map must carry the bases of M onto those of sigma M."""
    if (hit is not None) != known["relabel.isomorphic"]:
        return [f"pattern {inst.pattern}: isomorphic is {hit is not None}"]
    if hit is None:
        return []
    ground = hit[0]
    if sorted(ground) != list(range(inst.m.n)):
        return [f"pattern {inst.pattern}: ground map is not a bijection"]
    image = {_mask(ground[e] for e in range(inst.m.n) if b >> e & 1) for b in inst.m.bases}
    if image != set(inst.sm.bases):
        return [f"pattern {inst.pattern}: ground map does not carry the bases"]
    return []


def _rel_adjacency(vertices) -> Tuple[List[int], List[int]]:
    """Same-point and same-set adjacency of pointed sets, computed afresh."""
    n = len(vertices)
    same_point = [0] * n
    same_set = [0] * n
    for i, (set_i, pt_i) in enumerate(vertices):
        for j in range(i + 1, n):
            set_j, pt_j = vertices[j]
            if set_i == set_j:
                same_set[i] |= 1 << j
                same_set[j] |= 1 << i
            elif pt_i == pt_j:
                same_point[i] |= 1 << j
                same_point[j] |= 1 << i
    return same_point, same_set


def check_automorphisms(graph, group, known) -> Verdict:
    bad: Verdict = []
    if group.order != known["relabel.aut_order"]:
        bad.append(f"aut order {group.order}")
    vertices = [(v.members, v.point) for v in graph.vertices]
    n = len(vertices)
    adjacency = _rel_adjacency(vertices)
    for k, gen in enumerate(group.generators):
        if sorted(gen) != list(range(n)):
            bad.append(f"generator {k} is not a permutation")
            continue
        for adj in adjacency:
            for v in range(n):
                img = 0
                row = adj[v]
                while row:
                    low = row & -row
                    img |= 1 << gen[low.bit_length() - 1]
                    row ^= low
                if img != adj[gen[v]]:
                    bad.append(f"generator {k} breaks rel at vertex {v}")
                    break
    return bad


# -- catalog6_kernel ----------------------------------------------------------


def catalog_setup(mig, rng: random.Random, sizes: Sizes):
    order = list(range(LABELED_MATROIDS[sizes.catalog_n]))
    rng.shuffle(order)
    return sizes.catalog_n, order


def profile_matroid(mig, m):
    """derive_sets, Tutte, predicates, covers of all six kinds, dual's Tutte."""
    derived = mig["derived"]
    covers = mig["structures"].covers
    rep = derived.derive_sets(m)
    tutte = derived.tutte_polynomial(m)
    predicates = m.predicates()
    cover = [covers(m, kind) for kind in mig["structures"].IsoStructure]
    dual_tutte = derived.tutte_polynomial(m.dual())
    return rep, tutte, predicates, cover, dual_tutte


def catalog_run(mig, inputs, seg: Segment, known, state) -> List[Verdict]:
    n, order = inputs
    with seg():
        mats = mig["catalog"].all_matroids(n)
    expected = known["catalog.count"][n]
    out: List[Verdict] = [[] if len(mats) == expected else [f"{len(mats)} matroids on {n}"]]
    if len(mats) != len(order):
        return out
    for i in order:
        m = mats[i]
        with seg(latency_sample=True):
            profile = profile_matroid(mig, m)
        out.append(check_profile(m, profile))
    return out


def _evaluate(coeffs: Dict[Tuple[int, int], int], x: int, y: int) -> int:
    return sum(c * x**i * y**j for (i, j), c in coeffs.items())


def check_profile(m, profile) -> Verdict:
    _, tutte, _, _, dual_tutte = profile
    coeffs = tutte.coeffs
    bad: Verdict = []
    if _evaluate(coeffs, 1, 1) != len(m.bases):
        bad.append("T(1,1) != #bases")
    independents = sum(
        1 for a in range(1 << m.n) if any(a & b == a for b in m.bases)
    )
    if _evaluate(coeffs, 2, 1) != independents:
        bad.append("T(2,1) != #independent sets")
    if _evaluate(coeffs, 2, 2) != 2**m.n:
        bad.append("T(2,2) != 2^n")
    if dual_tutte.coeffs != {(j, i): c for (i, j), c in coeffs.items()}:
        bad.append("T of the dual is not T with x and y swapped")
    return bad


# BENCHMARK.json declares paper_pair and relabel_search.  catalog6_kernel
# runs on request (and in the smoke test): its run-to-run spread stayed near
# 0.1 even in nominal seconds, because its time moves more with the shared
# core's state than the speed probe's reference loop does.
@dataclass(frozen=True)
class Workload:
    setup: Callable
    run: Callable


WORKLOADS: Dict[str, Workload] = {
    "paper_pair": Workload(paper_pair_setup, paper_pair_run),
    "relabel_search": Workload(relabel_setup, relabel_run),
    "catalog6_kernel": Workload(catalog_setup, catalog_run),
}
