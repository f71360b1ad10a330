"""Differential tests of the relation-graph searches against reference engines.

The line-graph engine (`tests/line_engine.py`) is the search as it ran on
the relation graph's own vertices; the production search now runs on the
set-point incidence structure and is compared with it in
`test_incidence_search.py`.  Here the line-graph engine is compared with
the engines before it, and the production search with the oldest of them
on verdicts, groups and verified maps.

`OracleSearch` is the search as it was before splitter-restricted,
neighbour-only refinement, one-sided refinement and root orbit pruning:
every refinement round refines both graphs jointly, recomputing each
vertex's counts into every cell, the backtracking enumerates every root
candidate, a search can start from prescribed vertex pairs, and leaves
are checked by walking every neighbour bit (`_bitwalk_preserves`).
`_oracle_chain` is the stabilizer chain as it was: it refines every level
and every candidate from the prescribed pairs of its prefix.  The
line-graph engine refines g alone and h against g's trace; it must fail
exactly where the joint refinement fails, and otherwise its zipped cells
must be the joint refinement's.  It must return the same first solution
and the same automorphism groups; its chain walks one tree, so its
generators may differ from the oracle's, but not the group they
generate.  The production search must give the same verdicts, maps that
preserve rel, and the same groups as sets of vertex permutations.
`_pairwise_adjacency` is the graph build as it was, `rel` on every vertex
pair, and the oracle for `RelColoredGraph`; the reference engine reads
its adjacency from it, not from the graph under test.
`_refine_by_pairs` is the refinement as it was before counting through
rows and columns: two popcounts per (neighbour, splitter).
`_top_down_chain` is the stabilizer chain as it was before its levels ran
from the deepest up, pruning by the orbits of failed candidates.
`_refine_by_cells` is the refinement as it was before partitions were
positional: an ordered list of cells, every cell visited every round, and
traces keyed by cell index.  `_refine_listed` runs the line-graph
refinement on such a list, so the older oracles compare with it as they
did.
"""
import random
from functools import lru_cache
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

import pytest

from mig.bitset import elements_of, iter_bits
from mig.errors import InvariantViolation
from line_engine import (
    ChainGroup,
    _first,
    _PairSearch,
    _refine,
    _split,
    _stabilizer_chain,
    _unit,
    line_masks,
)
from line_engine import automorphism_group as line_group
from line_engine import find_isomorphism as line_isomorphism
from mig import relgraph, uniform_matroid
from mig.relgraph import (
    AutomorphismGroup,
    SearchStats,
    _close_orbit,
    automorphism_group,
    build_graph,
    find_isomorphism,
    preserves_adjacency,
)
from mig.lbcs_construct import SignAssignment, grid_matroid, m_s_matroid
from mig.structures import IsoStructure, PointedSet, covers
from oracles import rel


def _pairwise_adjacency(vertices):
    """Colour-1 and colour-2 rows from `rel` on every vertex pair."""
    n = len(vertices)
    adj1 = [0] * n
    adj2 = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            r = rel(vertices[i], vertices[j])
            if r == 1:
                adj1[i] |= 1 << j
                adj1[j] |= 1 << i
            elif r == 2:
                adj2[i] |= 1 << j
                adj2[j] |= 1 << i
    return adj1, adj2


@lru_cache(maxsize=None)
def _adjacency(g):
    """`_pairwise_adjacency` of a graph's vertices, once per graph."""
    return _pairwise_adjacency(g.vertices)


def _bitwalk_preserves(g, h, mapping) -> bool:
    """The leaf check as it was: map every neighbour bit of every vertex."""
    g_adj, h_adj = _adjacency(g), _adjacency(h)
    for v in range(g.n):
        for g_rows, h_rows in zip(g_adj, h_adj):
            img = 0
            for u in iter_bits(g_rows[v]):
                img |= 1 << mapping[u]
            if img != h_rows[mapping[v]]:
                return False
    return True


class OracleSearch:
    """Joint full-signature refinement and unpruned backtracking."""

    def __init__(self, g, h):
        self.g = g
        self.h = h

    def _refine(self, cells):
        (g1, g2), (h1, h2) = _adjacency(self.g), _adjacency(self.h)
        while True:
            changed = False
            new_cells = []
            for gm, hm in cells:
                if gm.bit_count() == 1 and hm.bit_count() == 1:
                    new_cells.append((gm, hm))
                    continue
                buckets: Dict[tuple, List[int]] = {}
                for v in iter_bits(gm):
                    a1, a2 = g1[v], g2[v]
                    sig = tuple(
                        ((a1 & cg).bit_count(), (a2 & cg).bit_count())
                        for cg, _ in cells
                    )
                    slot = buckets.setdefault(sig, [0, 0])
                    slot[0] |= 1 << v
                for w in iter_bits(hm):
                    a1, a2 = h1[w], h2[w]
                    sig = tuple(
                        ((a1 & ch).bit_count(), (a2 & ch).bit_count())
                        for _, ch in cells
                    )
                    slot = buckets.setdefault(sig, [0, 0])
                    slot[1] |= 1 << w
                for sig in buckets:
                    bg, bh = buckets[sig]
                    if bg.bit_count() != bh.bit_count():
                        return None
                if len(buckets) > 1:
                    changed = True
                for sig in sorted(buckets):
                    bg, bh = buckets[sig]
                    new_cells.append((bg, bh))
            cells = new_cells
            if not changed:
                return cells

    def _initial_cells(self, prescribed: Sequence[Tuple[int, int]] = ()) -> List:
        rest_g = (1 << self.g.n) - 1
        rest_h = (1 << self.h.n) - 1
        cells = []
        for gv, hv in prescribed:
            cells.append((1 << gv, 1 << hv))
            rest_g &= ~(1 << gv)
            rest_h &= ~(1 << hv)
        if rest_g or rest_h:
            cells.append((rest_g, rest_h))
        return cells

    def _verify(self, mapping) -> bool:
        return _bitwalk_preserves(self.g, self.h, mapping)

    def run(
        self, prescribed: Sequence[Tuple[int, int]] = ()
    ) -> Optional[Tuple[int, ...]]:
        if self.g.n != self.h.n:
            return None
        if self.g.n == 0:
            return ()

        def descend(cells) -> Optional[Tuple[int, ...]]:
            branch_at = _branch_cell(cells)
            if branch_at < 0:
                mapping = [0] * self.g.n
                for gm, hm in cells:
                    mapping[gm.bit_length() - 1] = hm.bit_length() - 1
                return tuple(mapping) if self._verify(mapping) else None
            for trial in _individualizations(cells, branch_at):
                refined = self._refine(trial)
                if refined is not None:
                    hit = descend(refined)
                    if hit is not None:
                        return hit
            return None

        cells0 = self._refine(self._initial_cells(prescribed))
        return None if cells0 is None else descend(cells0)


def _branch_cell(cells) -> int:
    """Index of the first smallest non-singleton cell pair, or -1."""
    return _branch_index([gm for gm, _ in cells])


def _branch_index(cells: Sequence[int]) -> int:
    """Index of the first smallest non-singleton cell, or -1 if there is none."""
    branch_at = -1
    branch_size = 0
    for ci, c in enumerate(cells):
        k = c.bit_count()
        if k > 1 and (branch_at < 0 or k < branch_size):
            branch_at = ci
            branch_size = k
    return branch_at


def _oracle_chain(search: OracleSearch) -> ChainGroup:
    """Automorphism group of `search.g`, which must be `search.h`."""
    g = search.g
    fixed: List[int] = []
    gens: List[Tuple[int, ...]] = []
    order = 1
    if g.n == 0:
        return ChainGroup([], 1, [])
    while True:
        cells = search._refine(search._initial_cells([(f, f) for f in fixed]))
        if cells is None:
            raise InvariantViolation("self-refinement failed on a graph")
        target = -1
        tsize = 0
        for ci, (gm, hm) in enumerate(cells):
            c = gm.bit_count()
            if c > 1 and (target < 0 or c < tsize):
                target = ci
                tsize = c
        if target < 0:
            break
        gm, hm = cells[target]
        b = (gm & -gm).bit_length() - 1
        orbit = 1 << b
        level_gens: List[Tuple[int, ...]] = []
        prescribed_prefix = [(f, f) for f in fixed]
        for w in iter_bits(hm):
            if orbit >> w & 1:
                continue
            res = search.run(prescribed_prefix + [(b, w)])
            if res is not None:
                level_gens.append(res)
                orbit = _close_orbit(orbit | (1 << w), level_gens)
        order *= orbit.bit_count()
        gens.extend(level_gens)
        fixed.append(b)
    return ChainGroup(gens, order, fixed)


def _individualizations(cells, branch_at):
    """The trial partitions of one branching step, in branch order."""
    gm, hm = cells[branch_at]
    v = (gm & -gm).bit_length() - 1
    for w in iter_bits(hm):
        trial = list(cells)
        trial[branch_at : branch_at + 1] = [
            (1 << v, 1 << w),
            (gm & ~(1 << v), hm & ~(1 << w)),
        ]
        yield trial


def _covering_graphs(mats):
    out = []
    for m in mats:
        for kind in IsoStructure:
            if covers(m, kind).covered:
                out.append((m, kind, build_graph(m, kind)))
    return out


@pytest.fixture(scope="module")
def small_graphs(catalog5):
    return _covering_graphs([m for n in range(6) for m in catalog5[n]])


@pytest.fixture(scope="module")
def pq_graphs(paper_pair):
    p, q = paper_pair
    return [build_graph(m, IsoStructure.NONBASES) for m in (p, q)]


# grid lines carrying sign -1: the first row and column; the last column
SIGN_PATTERNS = ([(0, 1, 2), (0, 3, 6)], [(2, 5, 8)])
DOUBLED_KINDS = (IsoStructure.NONBASES, IsoStructure.HYPERPLANES, IsoStructure.FLATS)


@pytest.fixture(scope="module")
def doubled_graphs():
    """Doubled-grid graphs of 72, 234 and 270 vertices, each with a relabelling."""
    grid = grid_matroid()
    rng = random.Random(11)
    out = []
    for negatives in SIGN_PATTERNS:
        m = m_s_matroid(grid, SignAssignment.with_negatives(grid, negatives))
        perm = list(range(m.n))
        rng.shuffle(perm)
        for kind in DOUBLED_KINDS:
            out.append((build_graph(m, kind), build_graph(m.relabel(perm), kind)))
    assert sorted({g.n for g, _ in out}) == [72, 234, 270]
    return out


def test_graph_build_matches_pairwise_rel(small_graphs, pq_graphs, doubled_graphs):
    """The graph's incidence structure against `rel`, and `edges` against its rows.

    Each vertex's point node and row node are incident, the incidences
    number the vertices and every node has one; two vertices share a point
    (colour 1) or a row (colour 2) exactly as `rel` says.
    """
    graphs = [g for _, _, g in small_graphs] + pq_graphs
    graphs += [g for pair in doubled_graphs for g in pair]
    for g in graphs:
        want = _adjacency(g)
        points = [g.at[p] for p in g.point_of]
        rows = [g.npts + r for r in g.row_of]
        on = [0] * g.size  # the vertices on each node
        for v, (i, r) in enumerate(zip(points, rows)):
            assert 0 <= i < g.npts <= r < g.size
            assert g.adj[i] >> r & 1 and g.adj[r] >> i & 1
            on[i] |= 1 << v
            on[r] |= 1 << v
        assert sum(x.bit_count() for x in g.adj[: g.npts]) == g.n
        assert sum(x.bit_count() for x in g.adj[g.npts :]) == g.n
        assert all(on)
        assert [on[i] & ~on[r] for i, r in zip(points, rows)] == want[0]
        assert [on[r] & ~on[i] for i, r in zip(points, rows)] == want[1]
        for color, adj in zip((1, 2), want):
            pairs = [(i, j) for i in range(g.n) for j in iter_bits(adj[i]) if i < j]
            assert g.edges(color) == pairs
    assert len(graphs) > 1000


def _refine_by_cells(graph, cells, splitters, stats, against=None):
    """`_refine` as it was: ordered cells, all of them visited every round.

    `splitters` and the trace's keys are cell indexes.
    """
    stats.refinements += 1
    rows, cols = line_masks(graph)
    row_of, point_of = graph.row_of, graph.point_of
    base = graph.n + 1
    width = (base * base).bit_length()
    trace = [] if against is None else against
    new = splitters
    live = sum(c for c in cells if c & (c - 1))  # non-singleton cells' vertices
    rnd = 0
    while True:
        row_key = [0] * len(rows)
        col_key = [0] * len(cols)
        own = [0] * graph.n  # a live splitter member's count of itself
        reach = 0
        shift = width * len(new)
        for ci in new:
            shift -= width
            members = elements_of(cells[ci])
            row_n: Dict[int, int] = {}
            col_n: Dict[int, int] = {}
            for u in members:
                r, p = row_of[u], point_of[u]
                row_n[r] = row_n.get(r, 0) + 1
                col_n[p] = col_n.get(p, 0) + 1
            nbrs = 0
            for r, x in row_n.items():
                row_key[r] += x << shift
                nbrs |= rows[r]
            for p, x in col_n.items():
                col_key[p] += x * base << shift
                nbrs |= cols[p]
            # N(c): c's rows and columns but the members alone in both
            counted = (nbrs & live).bit_count()
            if len(members) > 1:
                mine = (base + 1) << shift
                for u in members:
                    own[u] = mine
                    counted -= row_n[row_of[u]] == 1 and col_n[point_of[u]] == 1
            stats.splitter_counts += counted
            reach |= nbrs
        reach &= live
        if against is None:
            trace.append({})
        spec = trace[rnd]
        rnd += 1
        matched = 0  # touched cells checked against `spec`
        next_cells: List[int] = []
        next_new: List[int] = []
        for ci, c in enumerate(cells):
            t = c & reach
            if not t:
                next_cells.append(c)
                continue
            buckets: Dict[int, int] = {}
            m = t
            while m:
                low = m & -m
                v = low.bit_length() - 1
                key = row_key[row_of[v]] + col_key[point_of[v]] - own[v]
                buckets[key] = buckets.get(key, 0) | low
                m ^= low
            if c != t:
                buckets[0] = buckets.get(0, 0) | (c ^ t)
            if len(buckets) == 1 and 0 in buckets:
                next_cells.append(c)
                continue
            want = [(key, buckets[key].bit_count()) for key in sorted(buckets)]
            if against is None:
                spec[ci] = want
            elif spec.get(ci) != want:
                stats.failed_refinements += 1
                return None
            else:
                matched += 1
            first = len(next_cells)
            next_new.extend(range(first, first + len(want) - 1))
            for key, _ in want:
                piece = buckets[key]
                if not piece & (piece - 1):
                    live ^= piece
                next_cells.append(piece)
        if against is not None and matched != len(spec):
            stats.failed_refinements += 1
            return None
        if not next_new:
            return next_cells, trace
        cells, new = next_cells, next_new


def _split_cells(cells: List[int], ci: int, v: int) -> List[int]:
    """`cells` with v split off cell ci as a singleton before the rest."""
    out = list(cells)
    out[ci : ci + 1] = [1 << v, cells[ci] & ~(1 << v)]
    return out


def _starts(sizes: Sequence[int]) -> List[int]:
    """The start position of each cell of an ordered list, from their sizes."""
    return list(accumulate(sizes, initial=0))[:-1]


def _cell_starts(cells: Sequence[int]) -> List[int]:
    return _starts([c.bit_count() for c in cells])


def _positional(cells: Sequence[int]):
    """An ordered cell list as a positional partition `(cells, open)`."""
    out = [0] * sum(c.bit_count() for c in cells)
    starts = _cell_starts(cells)
    for s, c in zip(starts, cells):
        out[s] = c
    return out, [s for s, c in zip(starts, cells) if c & (c - 1)]


def _ordered(part) -> List[int]:
    """A positional partition as its ordered cell list."""
    return [c for c in part[0] if c]


def _at_starts(trace, cells):
    """An index-keyed trace of a refinement from `cells`, keyed by start position."""
    sizes = [c.bit_count() for c in cells]
    out = []
    for spec in trace:
        starts = _starts(sizes)
        out.append({starts[ci]: b for ci, b in spec.items()})
        sizes = [
            piece
            for ci, k in enumerate(sizes)
            for piece in ([size for _, size in spec[ci]] if ci in spec else [k])
        ]
    return out


def _refine_listed(graph, cells, splitters, stats, against=None):
    """The line-graph `_refine` on an ordered cell list and splitter indexes.

    Returns the refined cell list and the positional trace, or None.
    """
    starts = _cell_starts(cells)
    at = [starts[ci] for ci in splitters]
    hit = _refine(graph, _positional(cells), at, stats, against)
    return None if hit is None else (_ordered(hit[0]), hit[1])


def _sided(g, h, trial, splitters):
    """g's refinement alone, then h's against g's trace: zipped cells or None."""
    stats = SearchStats()
    g_cells, trace = _refine_listed(g, [gm for gm, _ in trial], splitters, stats)
    h_trial = [hm for _, hm in trial]
    hit = _refine_listed(h, h_trial, splitters, stats, trace)
    if hit is None:
        assert stats.failed_refinements == 1
        return None
    # on success h's cells are also h's refinement alone
    assert hit[0] == _refine_listed(h, h_trial, splitters, stats)[0]
    return list(zip(g_cells, hit[0]))


def _assert_same_partitions(g, h) -> int:
    """Root refinement and every root individualization agree with the oracle.

    The one-sided refinement returns None exactly when the joint one does,
    and otherwise zips to the same ordered cells.
    """
    if g.n == 0:  # the search returns before it refines an empty graph
        return 0
    old = OracleSearch(g, h)
    unit = old._initial_cells()
    root = _sided(g, h, unit, (0,))
    assert root == old._refine(unit)
    if root is None:
        return 1
    compared = 1
    branch_at = _branch_cell(root)
    if branch_at < 0:
        return compared
    for trial in _individualizations(root, branch_at):
        want = old._refine(trial)
        # the search passes the singleton alone; both new cells give the same
        assert _sided(g, h, trial, (branch_at,)) == want
        assert _sided(g, h, trial, (branch_at, branch_at + 1)) == want
        compared += 1
    return compared


def test_refinement_matches_oracle_on_catalog(small_graphs):
    compared = 0
    for _, _, g in small_graphs:
        compared += _assert_same_partitions(g, g)
    assert compared > 5000


def test_refinement_matches_oracle_on_paper_pair(pq_graphs):
    p, q = pq_graphs
    for g, h in ((p, p), (q, q), (p, q), (q, p)):
        assert _assert_same_partitions(g, h) == 73


def _refine_by_pairs(adjacency, cells, splitters, stats, against=None):
    """`_refine` as it was: per (neighbour, splitter), two masked popcounts.

    `adjacency` is a graph's (colour-1, colour-2) rows.  A vertex's
    signature lists `count - j * base**2` for each splitter j it has an
    edge into, and its bucket key is that list as a tuple.
    """
    adj1, adj2 = adjacency
    adj = [a | b for a, b in zip(adj1, adj2)]
    stats.refinements += 1
    base = len(adj1) + 1
    step = base * base
    trace = [] if against is None else against
    new = splitters
    rnd = 0
    while True:
        live = 0
        for c in cells:
            if c & (c - 1):
                live |= c
        sigs: Dict[int, List[int]] = {}
        touched = 0
        for j, ci in enumerate(new):
            c = cells[ci]
            nbrs = 0
            for u in iter_bits(c):
                nbrs |= adj[u]
            for v in iter_bits(nbrs & live):
                count = (adj1[v] & c).bit_count() * base + (adj2[v] & c).bit_count()
                sigs.setdefault(v, []).append(count - j * step)
            stats.splitter_counts += (nbrs & live).bit_count()
            touched |= nbrs & live
        if against is None:
            spec = {}
            trace.append(spec)
        else:
            spec = against[rnd]
        rnd += 1
        matched = 0
        next_cells: List[int] = []
        next_new: List[int] = []
        for ci, c in enumerate(cells):
            t = c & touched
            if not t:
                next_cells.append(c)
                continue
            buckets: Dict[tuple, int] = {}
            if c != t:
                buckets[()] = c ^ t
            for v in iter_bits(t):
                key = tuple(sigs[v])
                buckets[key] = buckets.get(key, 0) | 1 << v
            want = [(key, buckets[key].bit_count()) for key in sorted(buckets)]
            if against is None:
                spec[ci] = want
            elif spec.get(ci) != want:
                stats.failed_refinements += 1
                return None
            else:
                matched += 1
            if len(want) > 1:
                first = len(next_cells)
                next_new.extend(range(first, first + len(want) - 1))
            next_cells.extend(buckets[key] for key, _ in want)
        if against is not None and matched != len(spec):
            stats.failed_refinements += 1
            return None
        if not next_new:
            return next_cells, trace
        cells, new = next_cells, next_new


def _shape(trace):
    """A trace without its keys: per round, each touched cell's bucket sizes."""
    return [{ci: [size for _, size in b] for ci, b in spec.items()} for spec in trace]


def _sided_both_ways(g, h, g_trial, h_trial, splitters):
    """`_sided` by both refinements: the same cells, traces, verdict and counts."""
    new, old = SearchStats(), SearchStats()
    g_cells, g_trace = _refine_listed(g, g_trial, splitters, new)
    want_cells, want_trace = _refine_by_pairs(_adjacency(g), g_trial, splitters, old)
    assert g_cells == want_cells
    assert _shape(g_trace) == _shape(_at_starts(want_trace, g_trial))
    hit = _refine_listed(h, h_trial, splitters, new, g_trace)
    want = _refine_by_pairs(_adjacency(h), h_trial, splitters, old, want_trace)
    assert (hit is None) == (want is None)
    assert hit is None or hit[0] == want[0]
    assert new.splitter_counts == old.splitter_counts
    assert new.failed_refinements == old.failed_refinements
    return g_cells, None if hit is None else hit[0]


def _assert_refines_as_pairs(g, h, depth: int = 2) -> int:
    """Every h candidate along g's first path, down to `depth` levels.

    Returns the number of refinements compared that failed.
    """
    if g.n == 0:
        return 0
    g_cells, h_cells = _sided_both_ways(g, h, [(1 << g.n) - 1], [(1 << h.n) - 1], (0,))
    failed = h_cells is None
    for _ in range(depth):
        ci = _branch_cell([(c, c) for c in g_cells])
        if h_cells is None or ci < 0:
            break
        g_trial = _split_cells(g_cells, ci, _first(g_cells[ci]))
        on_path = None
        for w in iter_bits(h_cells[ci]):
            h_trial = _split_cells(h_cells, ci, w)
            got = _sided_both_ways(g, h, g_trial, h_trial, (ci,))
            failed += got[1] is None
            if on_path is None and got[1] is not None:
                on_path = got
        g_cells, h_cells = on_path if on_path else (None, None)
    return failed


def test_row_column_counts_match_pairwise_counts(
    small_graphs, pq_graphs, doubled_graphs
):
    """Cells, trace shapes, verdicts under `against` and splitter counts."""
    failed = 0
    by_shape: Dict[tuple, list] = {}
    for m, kind, g in small_graphs:
        by_shape.setdefault((kind, m.n, g.n), []).append(g)
    for graphs in by_shape.values():
        for g in graphs[:4]:
            for h in graphs[:4]:
                failed += _assert_refines_as_pairs(g, h)
    p, q = pq_graphs
    for g, h in ((p, p), (p, q), (q, p)):
        failed += _assert_refines_as_pairs(g, h)
    for g, h in doubled_graphs:
        failed += _assert_refines_as_pairs(g, h, depth=1)
    assert failed > 150


def _assert_positional_as_cells(g, h) -> int:
    """The positional engine against `_refine_by_cells` along g's first path.

    Every node of g's first path, and every h candidate at it, below the
    first h candidate that refines: the same ordered cells, g's trace with
    keys at start positions, the same verdicts and the same counts.
    Returns the number of h candidates compared.
    """
    if g.n == 0:
        return 0
    search, old = _PairSearch(g, h), SearchStats()
    g_trial, at, s_at = [(1 << g.n) - 1], (0,), 0  # the splitter as index and start
    h_parts = [_unit(h.n)]  # h's candidate trials, positional and as lists
    h_trials = [[(1 << h.n) - 1]]
    compared = 0
    for depth in range(g.n):
        part, trace, s = search._node(depth)
        cells, old_trace = _refine_by_cells(g, g_trial, at, old)
        assert _ordered(part) == cells and trace == _at_starts(old_trace, g_trial)
        h_part = h_cells = None
        for trial_part, trial in zip(h_parts, h_trials):
            got = _refine(h, trial_part, (s_at,), search.stats, trace)
            want = _refine_by_cells(h, trial, at, old, old_trace)
            assert (got is None) == (want is None)
            if got is not None:
                assert _ordered(got[0]) == want[0]
                if h_part is None:
                    h_part, h_cells = got[0], want[0]
            compared += 1
        assert search.stats.to_json() == old.to_json()
        ci = _branch_index(cells)
        assert s == (-1 if ci < 0 else _cell_starts(cells)[ci])
        if ci < 0:
            return compared
        g_trial, at, s_at = _split_cells(cells, ci, _first(cells[ci])), (ci,), s
        h_ws = [] if h_part is None else list(iter_bits(h_part[0][s]))
        h_parts = [_split(h_part, s, w) for w in h_ws]
        h_trials = [_split_cells(h_cells, ci, w) for w in h_ws]
    raise AssertionError("g's first path is longer than g has vertices")


def test_positional_refinement_matches_cell_lists(small_graphs, doubled_graphs):
    compared = 0
    for _, _, g in small_graphs:
        compared += _assert_positional_as_cells(g, g)
    for g, h in doubled_graphs:
        compared += _assert_positional_as_cells(g, h)
    assert compared > 10000


def _relabelled_pairs(small_graphs, seed):
    rng = random.Random(seed)
    for m, kind, g in small_graphs:
        perm = list(range(m.n))
        rng.shuffle(perm)
        yield g, build_graph(m.relabel(perm), kind)


def _assert_isomorphism(g, h) -> None:
    """The production search finds an isomorphism g -> h, and it preserves rel."""
    got = find_isomorphism(g, h)
    assert got is not None and preserves_adjacency(g, h, got)
    assert _bitwalk_preserves(g, h, got)


def test_first_solution_matches_oracle_on_relabelled_pairs(small_graphs):
    for seed in (1, 2):
        for g, h in _relabelled_pairs(small_graphs, seed):
            want = OracleSearch(g, h).run()
            assert want is not None and line_isomorphism(g, h) == want
            _assert_isomorphism(g, h)


def test_orbit_pruning_keeps_first_solution(catalog6):
    """Every 7th matroid on six elements against a seeded relabelling, on
    each covering kind.  Where the line-graph engine's orbit pruning skips
    candidates, its first solution is still the oracle's (a search that
    prunes nothing is the unpruned search); the production search finds
    an isomorphism that preserves rel (on these pairs it fails no
    refinement, so it has nothing to prune)."""
    rng = random.Random(3)
    searches = pruned = prunes = 0
    for m in catalog6[::7]:
        perm = list(range(m.n))
        rng.shuffle(perm)
        sm = m.relabel(perm)
        for kind in IsoStructure:
            if not covers(m, kind).covered:
                continue
            g, h = build_graph(m, kind), build_graph(sm, kind)
            search = _PairSearch(g, h)
            got = search.run()
            assert got is not None
            if search.stats.orbit_prunes:
                assert got == OracleSearch(g, h).run()
                pruned += 1
                prunes += search.stats.orbit_prunes
            # not `_assert_isomorphism`, whose adjacency cache would keep
            # every graph alive for the session
            found = find_isomorphism(g, h)
            assert found is not None and preserves_adjacency(g, h, found)
            searches += 1
    assert (searches, pruned, prunes) == (2462, 5, 72)


def test_first_solution_matches_oracle_on_nonisomorphic_pairs(small_graphs):
    by_shape: Dict[tuple, list] = {}
    for m, kind, g in small_graphs:
        by_shape.setdefault((kind, m.n, g.n), []).append(g)
    negatives = 0
    for graphs in by_shape.values():
        for g in graphs[:8]:
            for h in graphs[:8]:
                want = OracleSearch(g, h).run()
                assert line_isomorphism(g, h) == want
                got = find_isomorphism(g, h)
                assert (got is None) == (want is None)
                assert got is None or _bitwalk_preserves(g, h, got)
                negatives += want is None
    assert negatives > 500


def _assert_same_group(g, got: AutomorphismGroup, want: AutomorphismGroup) -> None:
    """Same order, generators that are automorphisms, same group as a set."""
    assert got.order == want.order
    assert all(preserves_adjacency(g, g, gen) for gen in got.generators)
    assert got.elements() == want.elements()


def test_automorphism_group_matches_oracle(small_graphs, pq_graphs):
    for i, (_, _, g) in enumerate(small_graphs):
        got = automorphism_group(g)
        want = _oracle_chain(OracleSearch(g, g))
        if i % 4:
            assert got.order == want.order
        else:
            _assert_same_group(g, got, want)
    for g in pq_graphs:
        _assert_same_group(g, automorphism_group(g), _oracle_chain(OracleSearch(g, g)))


def _top_down_chain(search: _PairSearch) -> ChainGroup:
    """`_stabilizer_chain` as it was: levels from the root down, no failure pruning."""
    if search.g.n == 0:
        return ChainGroup([], 1, [])
    fixed: List[int] = []
    gens: List[Tuple[int, ...]] = []
    order = 1
    depth = 0
    while True:
        part, _, s = search._node(depth)
        if s < 0:
            break
        trace = search._node(depth + 1)[1]
        b = _first(part[0][s])
        orbit = 1 << b
        level_gens: List[Tuple[int, ...]] = []
        for w in iter_bits(part[0][s]):
            if orbit >> w & 1:
                continue
            child = search._individualize(part, s, w, trace)
            res = search._descend(depth + 1, child, False)
            if res is not None:
                level_gens.append(res)
                orbit = _close_orbit(orbit | (1 << w), level_gens)
        order *= orbit.bit_count()
        gens.extend(level_gens)
        fixed.append(b)
        depth += 1
    return ChainGroup(gens, order, fixed)


def _assert_same_chain(m, kind) -> Tuple[SearchStats, SearchStats]:
    """The pruned chain and the top-down one give identical groups."""
    new, old = build_graph(m, kind), build_graph(m, kind)
    new_search, old_search = _PairSearch(new, new), _PairSearch(old, old)
    got, want = _stabilizer_chain(new_search), _top_down_chain(old_search)
    assert got.generators == want.generators
    assert (got.order, got.base) == (want.order, want.base)
    return new_search.stats, old_search.stats


def test_pruned_chain_matches_top_down_chain(catalog6):
    """On the catalog-6 graphs whose chains refine a candidate that fails."""
    pruned = failed = 0
    for m in catalog6[::25]:
        for kind in IsoStructure:
            if covers(m, kind).covered:
                new, old = _assert_same_chain(m, kind)
                assert new.failed_refinements <= old.failed_refinements
                pruned += new.orbit_prunes
                failed += old.failed_refinements
    assert failed > 50 and pruned > 20


@pytest.mark.slow
def test_pruned_chain_matches_top_down_chain_on_bases_of_p(paper_pair):
    new, old = _assert_same_chain(paper_pair[0], IsoStructure.BASES)
    assert (new.refinements, old.refinements) == (453, 2256)
    assert new.orbit_prunes == 1803


def _assert_chain_partitions(g) -> int:
    """Every level's partition and every candidate's, against the oracle's.

    Level k of the line-graph chain is node k of g's first path; each
    candidate b -> w refines h alone on the level's cells against the
    trace of node k + 1.  The oracle refines from the prescribed
    singletons of the prefix.  As sets of cell pairs they agree.
    """
    if g.n == 0:  # the chain returns before it refines an empty graph
        return 0
    new, old = _PairSearch(g, g), OracleSearch(g, g)
    base = line_group(g).base
    compared = 0
    for k, b in enumerate(base):
        prefix = [(f, f) for f in base[:k]]
        part, _, s = new._node(k)
        cells = _ordered(part)
        assert set(zip(cells, cells)) == set(old._refine(old._initial_cells(prefix)))
        assert b == _first(part[0][s])
        child, trace, _ = new._node(k + 1)
        for w in iter_bits(part[0][s]):
            want = old._refine(old._initial_cells(prefix + [(b, w)]))
            got = new._individualize(part, s, w, trace)
            assert (got is None) == (want is None)
            if got is not None:
                assert set(zip(_ordered(child), _ordered(got))) == set(want)
            compared += 1
    part, _, s = new._node(len(base))
    cells = _ordered(part)
    assert s < 0
    want = old._refine(old._initial_cells([(f, f) for f in base]))
    assert set(zip(cells, cells)) == set(want)
    return compared


def test_chain_partitions_match_oracle(small_graphs, pq_graphs):
    compared = 0
    for _, _, g in small_graphs[::4]:
        compared += _assert_chain_partitions(g)
    for g in pq_graphs:
        compared += _assert_chain_partitions(g)
    assert compared > 1000


def test_verdicts_match_networkx_vf2(catalog5):
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import categorical_edge_match

    def to_nx(g):
        out = nx.Graph()
        out.add_nodes_from(range(g.n))
        for color in (1, 2):
            out.add_edges_from(g.edges(color), color=color)
        return out

    by_shape: Dict[tuple, list] = {}
    for m, kind, g in _covering_graphs([m for n in range(5) for m in catalog5[n]]):
        by_shape.setdefault((kind, g.n), []).append((g, to_nx(g)))
    match = categorical_edge_match("color", None)
    verdicts = {True: 0, False: 0}
    for graphs in by_shape.values():
        for g, gx in graphs:
            for h, hx in graphs:
                want = nx.is_isomorphic(gx, hx, edge_match=match)
                assert (find_isomorphism(g, h) is not None) == want
                verdicts[want] += 1
    assert verdicts[True] > 100 and verdicts[False] > 100


def test_refinement_matches_oracle_along_first_path(doubled_graphs):
    """Every node on the way to the first solution, with all its siblings."""
    for g, h in doubled_graphs:
        solution = line_isomorphism(g, h)
        old = OracleSearch(g, h)
        unit = old._initial_cells()
        cells = _sided(g, h, unit, (0,))
        assert cells == old._refine(unit)
        depth = 0
        branch_at = _branch_cell(cells)
        while branch_at >= 0:
            gm = cells[branch_at][0]
            on_path = 1 << solution[(gm & -gm).bit_length() - 1]
            child = None
            for trial in _individualizations(cells, branch_at):
                got = _sided(g, h, trial, (branch_at,))
                assert got == old._refine(trial)
                if trial[branch_at][1] == on_path:
                    child = got
            cells = child
            depth += 1
            branch_at = _branch_cell(cells)
        leaf = [0] * g.n
        for gm, hm in cells:
            leaf[gm.bit_length() - 1] = hm.bit_length() - 1
        assert tuple(leaf) == solution and depth >= 2


def test_first_solution_matches_oracle_on_doubled_grid(doubled_graphs):
    for g, h in doubled_graphs:
        want = OracleSearch(g, h).run()
        assert want is not None and line_isomorphism(g, h) == want
        _assert_isomorphism(g, h)


@pytest.mark.slow
def test_automorphism_group_matches_oracle_on_doubled_grid(doubled_graphs):
    for g, _ in doubled_graphs:
        got = automorphism_group(g)
        _assert_same_group(g, got, _oracle_chain(OracleSearch(g, g)))
        assert got.order == 1152


def test_leaf_check_matches_bitwalk(small_graphs):
    """The O(n) set/point-map check against the neighbour-bit walk."""
    rng = random.Random(17)
    verdicts = {True: 0, False: 0}
    for _, _, g in small_graphs:
        maps = list(automorphism_group(g).generators)
        for gen in list(maps):  # a generator with two images swapped
            near = list(gen)
            i, j = rng.sample(range(g.n), 2)
            near[i], near[j] = near[j], near[i]
            maps.append(near)
        for _ in range(3):
            perm = list(range(g.n))
            rng.shuffle(perm)
            maps.append(perm)
        for mapping in maps:
            want = _bitwalk_preserves(g, g, mapping)
            assert preserves_adjacency(g, g, mapping) == want
            verdicts[want] += 1
    assert verdicts[True] > 1000 and verdicts[False] > 1000


def test_duplicate_vertex_refused(monkeypatch):
    """The O(n) leaf check needs distinct pointed sets; a repeat is refused."""
    vertices = (PointedSet(0b11, 0), PointedSet(0b11, 1), PointedSet(0b11, 0))
    monkeypatch.setattr(relgraph, "pointed_sets", lambda m, kind: vertices)
    with pytest.raises(InvariantViolation):
        build_graph(uniform_matroid(2, 2), IsoStructure.BASES)
