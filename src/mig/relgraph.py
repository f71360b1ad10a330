"""Relation colored graphs and their isomorphism / automorphism search.

Vertices are the pointed sets of a (matroid, structure) pair; two
vertices are joined when their rel value is 1 (same point) or 2 (same
set), with that value as the edge color.  Vertex pairs with rel 3 are
non-edges, so a bijection preserves rel on all pairs exactly when it
preserves both colored adjacencies.

The search is equitable color refinement followed by individualize-and-
refine backtracking on the first smallest non-singleton cell, trying its
candidates in ascending vertex index.  Automorphism groups come from a
stabilizer chain on the same tree.  Refinement only counts edges into the
cells that changed in the round before, and only at the neighbours of
those cells (Berkholz-Bonsma-Grohe, ESA 2013): a vertex with no edge into
a splitter has count zero there and is bucketed by mask, not one by one.
This yields the same ordered partition as counting every vertex into
every cell.  An existence search skips root candidates in the Aut(h)-orbit
of a failed one (McKay-Piperno, arXiv:1301.1493), which never skips a
solution.  Results are deterministic: the solution is the first verified
leaf in branch order, which need not be the least solution in
lexicographic order.

The search from g to h refines each side alone.  The g side always
individualizes the first vertex of its branch cell, so its partition at a
depth does not depend on the h candidates: g's first path is refined once
per depth, recording a trace, for each round, of every touched cell's
index and its buckets as (count key, size) in key order.  A candidate
refines h alone against the trace of g's child node.  Refining the two
graphs jointly fails in the first round where some touched cell's buckets
differ in size between the sides, which is the first round where h's
trace differs from g's; up to that round both refinements make the same
cuts in the same order, so on success h's cells, zipped with g's, are the
joint refinement (McKay-Piperno's comparison with the first path).

Leaves are verified in O(n): vertices are distinct pointed sets, so for
u != v colour 2 means exactly "same set" and colour 1 exactly "same
point".  A bijection preserves both colours exactly when the maps it
induces on sets and on points, A_v -> A_w and p_v -> p_w for each v -> w,
are well defined and injective.
"""

from __future__ import annotations

import warnings
from typing import Dict, List, Optional, Sequence, Tuple

from .bitset import iter_bits
from .errors import GuardExceeded, InvariantViolation, NotInduced
from .matroid import Matroid
from .structures import IsoStructure, PointedSet, covers, pointed_sets

GROUP_ENUM_CAP = 20_000


class RelColoredGraph:
    """Colored graph on distinct pointed sets with per-color adjacency bitsets.

    The rows come from two masks, the vertices sharing a set and those
    sharing a point, so building is linear in the number of vertices.
    The automorphism group is computed at most once and kept here.
    """

    def __init__(self, vertices: Sequence[PointedSet]):
        self.vertices = tuple(vertices)
        self.n = len(self.vertices)
        if len(set(self.vertices)) != self.n:
            raise InvariantViolation("relation graph vertices repeat a pointed set")
        by_set: Dict[int, int] = {}
        by_point: Dict[int, int] = {}
        for i, (a, p) in enumerate(self.vertices):
            by_set[a] = by_set.get(a, 0) | 1 << i
            by_point[p] = by_point.get(p, 0) | 1 << i
        # same point, other set; same set, other point; either
        self.adj1 = [by_point[p] & ~by_set[a] for a, p in self.vertices]
        self.adj2 = [by_set[a] & ~by_point[p] for a, p in self.vertices]
        self.adj = [by_set[a] ^ by_point[p] for a, p in self.vertices]
        self._aut: Optional[AutomorphismGroup] = None

    def edges(self, color: int) -> List[Tuple[int, int]]:
        adj = self.adj1 if color == 1 else self.adj2
        return [(i, j) for i in range(self.n) for j in iter_bits(adj[i]) if i < j]


def build_graph(
    m: Matroid, kind: IsoStructure, warn_uncovered: bool = True
) -> RelColoredGraph:
    """The relation colored graph of (m, kind), built once per matroid."""
    if warn_uncovered and not covers(m, kind).covered:
        warnings.warn(
            f"{kind.value} does not cover the matroid; the graph loses elements",
            stacklevel=2,
        )
    return m.cached(("graph", kind), lambda: RelColoredGraph(pointed_sets(m, kind)))


# -- search ------------------------------------------------------------------

# per round, each touched cell's index -> its (count key, size) buckets in key order
Trace = List[Dict[int, List[Tuple[tuple, int]]]]


class SearchStats:
    """Machine-independent work counts of one search.

    `refinements` counts one-sided refinements: one per node of g's first
    path and one per h candidate (the root included); `failed_refinements`
    counts the h refinements whose trace differed from g's.
    `splitter_counts` counts the (vertex, splitter) edge counts evaluated,
    once per g node and once per h candidate; `orbit_prunes` counts root
    candidates skipped as Aut(h)-images of failed ones; `leaves` counts
    discrete partitions checked against the full adjacency.
    """

    __slots__ = (
        "refinements",
        "failed_refinements",
        "splitter_counts",
        "orbit_prunes",
        "leaves",
    )

    def __init__(self) -> None:
        self.refinements = 0
        self.failed_refinements = 0
        self.splitter_counts = 0
        self.orbit_prunes = 0
        self.leaves = 0

    def to_json(self) -> Dict[str, int]:
        return {
            "refinements": self.refinements,
            "failedRefinements": self.failed_refinements,
            "splitterCounts": self.splitter_counts,
            "orbitPrunes": self.orbit_prunes,
            "leaves": self.leaves,
        }


def _count_into(
    graph: RelColoredGraph,
    c: int,
    live: int,
    entry0: int,
    base: int,
    sigs: Dict[int, List[int]],
) -> int:
    """Append `entry0` plus the packed count into `c` to each live neighbour.

    Returns the mask of the vertices counted: those of `live` with an edge
    into `c`, so every appended count is positive.
    """
    adj1, adj2, adj = graph.adj1, graph.adj2, graph.adj
    nbrs = 0
    m = c
    while m:
        low = m & -m
        nbrs |= adj[low.bit_length() - 1]
        m ^= low
    touched = m = nbrs & live
    while m:
        low = m & -m
        v = low.bit_length() - 1
        entry = entry0 + (adj1[v] & c).bit_count() * base + (adj2[v] & c).bit_count()
        sig = sigs.get(v)
        if sig is None:
            sigs[v] = [entry]
        else:
            sig.append(entry)
        m ^= low
    return touched


def _refine(
    graph: RelColoredGraph,
    cells: List[int],
    splitters: Sequence[int],
    stats: SearchStats,
    against: Optional[Trace] = None,
) -> Optional[Tuple[List[int], Trace]]:
    """Equitable refinement of one graph's ordered cells, with its trace.

    Each round buckets the vertices of every non-singleton cell by their
    edge counts into the splitter cells and orders the buckets by those
    counts.  `splitters` indexes `cells`.  When a cell splits, every piece
    but the last is a splitter of the next round.  The ordered partition
    is the one that counting into every cell gives: the vertices of a cell
    share their counts into each cell of the round before, so a cell that
    did not split adds the same component to all their signatures, and the
    count into a last piece follows from the counts into its siblings,
    which come before it in the signature.

    Only the neighbours of a splitter are counted.  A vertex's signature
    lists `(-j, count)` for each splitter j it has an edge into, in order
    of j (packed into one int, `count - j * base**2`); a missing j stands
    for a zero count.  These lists order as the dense count tuples do: up
    to the first j where two tuples differ the lists agree, and at j
    either both counts are listed and compare directly, or only the
    larger, positive one is, and the other list goes on with a smaller
    `-j'` or ends.  So the untouched vertices of a cell form the bucket
    `()`, first in order, taken as a mask, and a cell no splitter's
    neighbourhood meets keeps its place.

    Without `against`, returns the cells and the trace of this refinement.
    With `against`, the trace of another graph's refinement from cells of
    the same sizes, each piece is ordered by that trace's keys, and the
    result is None at the first round whose touched cells or buckets
    differ from it; on success the trace returned is `against`.
    """
    stats.refinements += 1
    base = graph.n + 1  # counts (c1, c2) are packed as c1 * base + c2
    step = base * base  # larger than any packed count
    trace: Trace = [] if against is None else against
    new = splitters
    rnd = 0
    while True:
        live = 0  # the vertices of non-singleton cells
        for c in cells:
            if c & (c - 1):
                live |= c
        sigs: Dict[int, List[int]] = {}
        touched = 0
        for j, ci in enumerate(new):
            t = _count_into(graph, cells[ci], live, -j * step, base, sigs)
            stats.splitter_counts += t.bit_count()
            touched |= t
        if against is None:
            spec: Dict[int, List[Tuple[tuple, int]]] = {}
            trace.append(spec)
        else:
            spec = against[rnd]
        rnd += 1
        matched = 0  # touched cells checked against `spec`
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
            m = t
            while m:
                low = m & -m
                key = tuple(sigs[low.bit_length() - 1])
                buckets[key] = buckets.get(key, 0) | low
                m ^= low
            if against is None:
                want = spec[ci] = [
                    (key, buckets[key].bit_count()) for key in sorted(buckets)
                ]
            else:
                want = spec.get(ci)
                if want is None or len(want) != len(buckets) or any(
                    buckets.get(key, 0).bit_count() != size for key, size in want
                ):
                    stats.failed_refinements += 1
                    return None
                matched += 1
            if len(want) == 1:
                next_cells.append(c)
                continue
            first = len(next_cells)
            next_new.extend(range(first, first + len(want) - 1))
            next_cells.extend(buckets[key] for key, _ in want)
        if against is not None and matched != len(spec):
            stats.failed_refinements += 1
            return None
        if not next_new:
            return next_cells, trace
        cells, new = next_cells, next_new


def _split(cells: List[int], ci: int, v: int) -> List[int]:
    """`cells` with v split off cell ci as a singleton before the rest."""
    out = list(cells)
    out[ci : ci + 1] = [1 << v, cells[ci] & ~(1 << v)]
    return out


def _first(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


class _PairSearch:
    """Backtracking isomorphism search from g to h.

    g branches on the first vertex of its branch cell at every depth, so
    `_node(d)` refines g's first path once per depth, when first asked,
    and every h candidate at depth d is refined against its trace.
    """

    def __init__(
        self,
        g: RelColoredGraph,
        h: RelColoredGraph,
        stats: Optional[SearchStats] = None,
    ):
        self.g = g
        self.h = h
        self.stats = SearchStats() if stats is None else stats
        self._path: List[Tuple[List[int], Trace, int]] = []

    def _node(self, depth: int) -> Tuple[List[int], Trace, int]:
        """g's cells, their trace and branch cell at `depth` of its first path."""
        path = self._path
        while len(path) <= depth:
            if path:
                cells, _, ci = path[-1]
                trial, at = _split(cells, ci, _first(cells[ci])), (ci,)
            else:
                trial, at = [(1 << self.g.n) - 1], (0,)
            cells, trace = _refine(self.g, trial, at, self.stats)
            path.append((cells, trace, _branch_cell(cells)))
        return path[depth]

    def _individualize(
        self, cells: List[int], ci: int, w: int, trace: Trace
    ) -> Optional[List[int]]:
        """h's equitable `cells` with w split off cell ci, refined against `trace`.

        The rest's counts follow from the singleton's, so the singleton is
        the only splitter.  None where g's refinement differs.
        """
        hit = _refine(self.h, _split(cells, ci, w), (ci,), self.stats, trace)
        return None if hit is None else hit[0]

    def _h_orbits(self) -> List[int]:
        """The Aut(h)-orbit of each vertex of h, as a bitset."""
        group = automorphism_group(self.h, self.stats)
        orbits = [0] * self.h.n
        for v in range(self.h.n):
            if not orbits[v]:
                orbit = _close_orbit(1 << v, group.generators)
                for u in iter_bits(orbit):
                    orbits[u] = orbit
        return orbits

    def _descend(
        self, depth: int, cells: Optional[List[int]], prune: bool
    ) -> Optional[Tuple[int, ...]]:
        """The first isomorphism below h's equitable `cells` at `depth`, or None.

        A failed refinement, None, has none.  `prune` skips every candidate
        in the Aut(h)-orbit of one that failed: if an isomorphism sent v to
        alpha(w), composing it with alpha^-1 would send v to w.  Aut(h) is
        computed at the first failed candidate, not before.
        """
        if cells is None:
            return None
        g_cells, _, ci = self._node(depth)
        if ci < 0:
            mapping = [0] * self.g.n
            for gm, hm in zip(g_cells, cells):
                mapping[gm.bit_length() - 1] = hm.bit_length() - 1
            self.stats.leaves += 1
            ok = preserves_adjacency(self.g, self.h, mapping)
            return tuple(mapping) if ok else None
        trace = self._node(depth + 1)[1]
        orbits: Optional[List[int]] = None
        failed = 0  # union of the Aut(h)-orbits of failed candidates
        for w in iter_bits(cells[ci]):
            if failed >> w & 1:
                self.stats.orbit_prunes += 1
                continue
            child = self._individualize(cells, ci, w, trace)
            hit = self._descend(depth + 1, child, False)
            if hit is not None:
                return hit
            if prune:
                if orbits is None:
                    orbits = self._h_orbits()
                failed |= orbits[w]
        return None

    def run(self) -> Optional[Tuple[int, ...]]:
        """The first isomorphism, pruning root candidates by Aut(h), or None."""
        if self.g.n != self.h.n:
            return None
        if self.g.n == 0:
            return ()
        trace = self._node(0)[1]
        root = _refine(self.h, [(1 << self.h.n) - 1], (0,), self.stats, trace)
        return self._descend(0, None if root is None else root[0], True)


def _branch_cell(cells: Sequence[int]) -> int:
    """Index of the first smallest non-singleton cell, or -1 if there is none."""
    branch_at = -1
    branch_size = 0
    for ci, c in enumerate(cells):
        k = c.bit_count()
        if k > 1 and (branch_at < 0 or k < branch_size):
            branch_at = ci
            branch_size = k
    return branch_at


def preserves_adjacency(
    g: RelColoredGraph, h: RelColoredGraph, mapping: Sequence[int]
) -> bool:
    """Whether the bijection `mapping` carries g's colored adjacencies onto h's.

    O(n): the set and point maps it induces must be well defined and
    injective (the module docstring has the argument).
    """
    set_img: Dict[int, int] = {}
    set_pre: Dict[int, int] = {}
    point_img: Dict[int, int] = {}
    point_pre: Dict[int, int] = {}
    hv = h.vertices
    for (a, p), w in zip(g.vertices, mapping):
        b, q = hv[w]
        if set_img.setdefault(a, b) != b or set_pre.setdefault(b, a) != a:
            return False
        if point_img.setdefault(p, q) != q or point_pre.setdefault(q, p) != p:
            return False
    return True


def find_isomorphism(
    g: RelColoredGraph, h: RelColoredGraph, stats: Optional[SearchStats] = None
) -> Optional[Tuple[int, ...]]:
    """A rel-preserving vertex bijection g -> h, or None (exhaustive).

    The bijection is the first verified leaf in branch order.  `stats`,
    if given, collects the search's counts.
    """
    return _PairSearch(g, h, stats).run()


def matroid_iso_from_graph_iso(
    m: Matroid,
    n: Matroid,
    kind: IsoStructure,
    mapping: Sequence[int],
) -> Tuple[int, ...]:
    """Extract the ground-set bijection inducing a vertex bijection.

    The vertex map must send (A, p) to (phi(A), phi(p)) for a single
    ground map phi; anything else raises NotInduced (which would
    contradict the rel-preservation hypothesis).
    """
    vm = pointed_sets(m, kind)
    vn = pointed_sets(n, kind)
    phi: Dict[int, int] = {}
    for i, ps in enumerate(vm):
        img = vn[mapping[i]]
        prev = phi.get(ps.point)
        if prev is None:
            phi[ps.point] = img.point
        elif prev != img.point:
            raise NotInduced(
                f"point {ps.point} maps to both {prev} and {img.point}"
            )
    if len(phi) != m.n or m.n != n.n:
        raise NotInduced("vertex map does not determine a total ground map")
    if sorted(phi.values()) != list(range(n.n)):
        raise NotInduced("induced ground map is not a bijection")
    out = tuple(phi[e] for e in range(m.n))
    # the induced map must carry the structure family across
    from .structures import structure_sets

    fam_n = set(structure_sets(n, kind))
    for a in structure_sets(m, kind):
        img = 0
        for e in iter_bits(a):
            img |= 1 << out[e]
        if img not in fam_n:
            raise NotInduced(f"family member {a:#x} maps outside the family")
    if len(structure_sets(m, kind)) != len(fam_n):
        raise NotInduced("family sizes differ")
    return out


def find_matroid_isomorphism(
    m: Matroid, n: Matroid, kind: IsoStructure, stats: Optional[SearchStats] = None
) -> Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """Matroid isomorphism via graph search plus ground-map extraction.

    Returns (ground map, vertex map) or None.  The pointed game never
    sees the empty set, so when the two families differ exactly there
    (flats of an all-loop matroid versus a loop-free one) the graphs can
    agree while the matroids do not; the extraction step compares the
    full families and turns that into a clean negative.  Any other
    extraction failure is a real inconsistency and propagates.  `stats`,
    if given, collects the graph search's counts.
    """
    from .structures import structure_sets

    gm = build_graph(m, kind, warn_uncovered=False)
    gn = build_graph(n, kind, warn_uncovered=False)
    mapping = find_isomorphism(gm, gn, stats)
    if mapping is None:
        return None
    try:
        return matroid_iso_from_graph_iso(m, n, kind, mapping), mapping
    except NotInduced:
        empty_m = 0 in structure_sets(m, kind)
        empty_n = 0 in structure_sets(n, kind)
        if empty_m != empty_n:
            return None
        raise


class AutomorphismGroup:
    """Generators plus exact order from an orbit-stabilizer chain."""

    def __init__(self, generators: List[Tuple[int, ...]], order: int, base: List[int]):
        self.generators = generators
        self.order = order
        self.base = base

    def elements(self) -> List[Tuple[int, ...]]:
        """Every group element via closure of the generators (guarded)."""
        if self.order > GROUP_ENUM_CAP:
            raise GuardExceeded(
                f"group order {self.order} exceeds the element-enumeration guard"
                f" GROUP_ENUM_CAP = {GROUP_ENUM_CAP}"
            )
        n_pts = len(self.generators[0]) if self.generators else 0
        identity = tuple(range(n_pts))
        seen = {identity}
        frontier = [identity]
        while frontier:
            cur = frontier.pop()
            for g in self.generators:
                nxt = tuple(g[cur[i]] for i in range(n_pts))
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        if len(seen) != self.order:
            raise InvariantViolation(
                f"generator closure gave {len(seen)} elements, chain said {self.order}"
            )
        return sorted(seen)

    def to_json(self) -> Dict[str, object]:
        return {
            "generators": [list(g) for g in self.generators],
            "order": str(self.order),
        }


def automorphism_group(
    g: RelColoredGraph, stats: Optional[SearchStats] = None
) -> AutomorphismGroup:
    """Stabilizer chain over vertices in canonical order, computed once per graph.

    `stats`, if given, collects the counts of the search when this call
    makes it.
    """
    if g._aut is None:
        g._aut = _stabilizer_chain(_PairSearch(g, g, stats))
    return g._aut


def _close_orbit(orbit: int, generators: Sequence[Tuple[int, ...]]) -> int:
    """Smallest superset of the bitset `orbit` closed under the generators."""
    while True:
        grew = False
        for perm in generators:
            img = 0
            for v in iter_bits(orbit):
                img |= 1 << perm[v]
            if img & ~orbit:
                orbit |= img
                grew = True
        if not grew:
            return orbit


def _stabilizer_chain(search: _PairSearch) -> AutomorphismGroup:
    """Automorphism group of `search.g`, which must be `search.h`.

    Level k is node k of g's first path, whose branch cell starts with the
    base point b.  Each image w of b is tested by refining h alone, with
    b -> w individualized on the level's cells, against the trace of node
    k + 1, which is b -> b; node k + 1 is the next level.  As a set of
    cells each node is the coarsest equitable partition with the base
    points so far as singletons, as refining from them would give.
    """
    if search.g.n == 0:
        return AutomorphismGroup([], 1, [])
    fixed: List[int] = []
    gens: List[Tuple[int, ...]] = []
    order = 1
    depth = 0
    while True:
        cells, _, ci = search._node(depth)
        if ci < 0:
            break
        trace = search._node(depth + 1)[1]
        b = _first(cells[ci])
        orbit = 1 << b
        level_gens: List[Tuple[int, ...]] = []
        for w in iter_bits(cells[ci]):
            if orbit >> w & 1:
                continue
            child = search._individualize(cells, ci, w, trace)
            res = search._descend(depth + 1, child, False)
            if res is not None:
                level_gens.append(res)
                orbit = _close_orbit(orbit | (1 << w), level_gens)
        order *= orbit.bit_count()
        gens.extend(level_gens)
        fixed.append(b)
        depth += 1
    return AutomorphismGroup(gens, order, fixed)


def disjoint_automorphism_pair(
    g: RelColoredGraph,
) -> Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """Two nontrivial automorphisms with disjoint moved-vertex supports.

    Scans the full group (guarded by GROUP_ENUM_CAP), trying involution pairs
    first so that certificates compose to a Klein four-group when
    possible.  Returns the canonically least pair found, or None after
    an exhaustive scan.
    """
    group = automorphism_group(g)
    if group.order == 1:
        return None
    elems = group.elements()
    identity = tuple(range(g.n))
    nontrivial = [p for p in elems if p != identity]
    moved = []
    for p in nontrivial:
        mask = 0
        for i, x in enumerate(p):
            if x != i:
                mask |= 1 << i
        moved.append(mask)

    def scan(indices: List[int]) -> Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
        for ii, i in enumerate(indices):
            for j in indices[ii + 1 :]:
                if moved[i] & moved[j] == 0:
                    return (nontrivial[i], nontrivial[j])
        return None

    involutions = [
        i
        for i, p in enumerate(nontrivial)
        if all(p[p[v]] == v for v in range(g.n))
    ]
    hit = scan(involutions)
    if hit is None:
        hit = scan(list(range(len(nontrivial))))
    return hit
