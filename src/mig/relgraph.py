"""Relation colored graphs and their isomorphism / automorphism search.

Vertices are the pointed sets of a (matroid, structure) pair; two
vertices are joined when their rel value is 1 (same point) or 2 (same
set), with that value as the edge color.  Vertex pairs with rel 3 are
non-edges, so a bijection preserves rel on all pairs exactly when it
preserves both colored adjacencies.

The search is equitable color refinement followed by individualize-and-
refine backtracking on the first smallest non-singleton cell, trying its
candidates in ascending vertex index.  Automorphism groups come from a
stabilizer chain on the same tree.  A partition is positional: `cells[s]`
is the cell that starts at position s and 0 elsewhere, and `open` lists
the starts of the non-singleton cells in ascending order.  The pieces of
a split cell start where it started, one after the other, and no other
cell moves, so a start names a cell for good and a refinement round
visits only the open cells.  Refinement only counts edges into the cells
that changed in the round before (Berkholz-Bonsma-Grohe, ESA 2013), which
yields the same ordered partition as counting every vertex into every
cell.  The graph is the line graph of the set-point incidence graph: a
vertex's neighbours are the rest of its row (set) and column (point), so
a walk over a splitter's own vertices, tallied by row and by column,
gives every count into it.  Pruning skips candidates in the orbit of a
failed one (McKay-Piperno, arXiv:1301.1493), never a solution.  Results
are deterministic: the solution is the first verified leaf in branch
order, which need not be the least in lexicographic order.

The search from g to h refines each side alone.  The g side always
individualizes the first vertex of its branch cell, so its partition at a
depth does not depend on the h candidates: g's first path is refined once
per depth, recording a trace, for each round, of every touched cell's
start and its buckets as (count key, size) in key order.  A candidate
refines h alone against the trace of g's child node; the two sides' cells
have equal sizes, so their starts agree.  Refining the two graphs jointly
fails in the first round where some touched cell's buckets differ in size
between the sides, which is the first round where h's trace differs from
g's; up to that round both refinements make the same cuts in the same
order, so on success h's cells, zipped with g's, are the joint refinement
(McKay-Piperno's comparison with the first path).

Leaves are verified in O(n): vertices are distinct pointed sets, so for
u != v colour 2 means exactly "same set" and colour 1 exactly "same
point".  A bijection preserves both colours exactly when the maps it
induces on sets and on points, A_v -> A_w and p_v -> p_w for each v -> w,
are well defined and injective.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .bitset import elements_of, iter_bits, mask_of
from .errors import GuardExceeded, InvariantViolation
from .matroid import Matroid
from .structures import (
    IsoStructure,
    PointedSet,
    pointed_sets,
    require_covering,
    structure_sets,
)

GROUP_ENUM_CAP = 20_000


class RelColoredGraph:
    """Colored graph on distinct pointed sets, kept as rows and columns.

    Row r, `by_set[r]`, is the mask of the vertices with one set, and
    column p, `by_point[p]`, of those with point p; vertex v lies in row
    `row_of[v]` and column `point_of[v]`.  Its colour-2 neighbours are the
    rest of its row, its colour-1 neighbours the rest of its column.  The
    automorphism group and the vertex index are computed at most once, on
    first use, and kept here.
    """

    def __init__(self, vertices: Sequence[PointedSet]):
        self.vertices = tuple(vertices)
        self.n = len(self.vertices)
        if len(set(self.vertices)) != self.n:
            raise InvariantViolation("relation graph vertices repeat a pointed set")
        by_set: Dict[int, int] = {}
        self.by_point = [0] * (max((p for _, p in self.vertices), default=-1) + 1)
        for i, (a, p) in enumerate(self.vertices):
            by_set[a] = by_set.get(a, 0) | 1 << i
            self.by_point[p] |= 1 << i
        row_id = {a: r for r, a in enumerate(by_set)}
        self.by_set = list(by_set.values())
        self.row_of = [row_id[a] for a, _ in self.vertices]
        self.point_of = [p for _, p in self.vertices]
        self._aut: Optional[AutomorphismGroup] = None
        self._index: Optional[Dict[PointedSet, int]] = None

    def index_of(self, v: PointedSet) -> int:
        """The index of pointed set v; KeyError when it is not a vertex."""
        if self._index is None:
            self._index = {u: i for i, u in enumerate(self.vertices)}
        return self._index[v]

    def rel_table(self) -> np.ndarray:
        """rel of every vertex pair: (rows differ) + 2 * (points differ)."""
        row, point = np.array(self.row_of), np.array(self.point_of)
        return (row[:, None] != row) + np.int8(2) * (point[:, None] != point)

    def edges(self, color: int) -> List[Tuple[int, int]]:
        out = []
        for i in range(self.n):
            row, col = self.by_set[self.row_of[i]], self.by_point[self.point_of[i]]
            adj = col & ~row if color == 1 else row & ~col
            out += [(i, j) for j in iter_bits(adj >> i + 1 << i + 1)]
        return out


def build_graph(m: Matroid, kind: IsoStructure) -> RelColoredGraph:
    """The relation colored graph of (m, kind), built once per matroid."""
    return m.cached(("graph", kind), lambda: RelColoredGraph(pointed_sets(m, kind)))


def induced_map(
    g: RelColoredGraph, h: RelColoredGraph, ground: Sequence[int]
) -> Tuple[int, ...]:
    """The vertex map (A, p) -> (ground(A), ground[p]) from g to h.

    KeyError when an image is not a vertex of h.
    """
    image = {a: mask_of(ground[e] for e in iter_bits(a)) for a, _ in g.vertices}
    return tuple(h.index_of(PointedSet(image[a], ground[p])) for a, p in g.vertices)


# -- search ------------------------------------------------------------------

Partition = Tuple[List[int], List[int]]  # (cells, open): the module docstring
# per round, each touched cell's start -> its (count key, size) buckets in key order
Trace = List[Dict[int, List[Tuple[int, int]]]]


class SearchStats:
    """Machine-independent work counts of one search.

    `refinements` counts one-sided refinements: one per node of g's first
    path and one per h candidate (the root included); `failed_refinements`
    counts the h refinements whose trace differed from g's.
    `splitter_counts` sums |N(c) & live| over the splitters c of every
    round, N(c) being c's rows and columns but the members of c alone in
    both within c; `orbit_prunes` counts candidates skipped as images of
    failed ones, under Aut(h) at the root of an existence search and under
    the deeper levels' generators in the chain; `leaves` counts discrete
    partitions checked against the full adjacency.
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


def _refine(
    graph: RelColoredGraph,
    part: Partition,
    splitters: Sequence[int],
    stats: SearchStats,
    against: Optional[Trace] = None,
) -> Optional[Tuple[Partition, Trace]]:
    """Equitable refinement of one graph's partition, with its trace.

    Each round buckets the reached vertices of every open cell by their
    edge counts into the splitters, given by their starts, and orders the
    pieces by those counts; every piece but the last is a splitter of the
    next round.  The ordered partition is the one that counting into every
    cell gives: the vertices of a cell share their counts into each cell
    of the round before, so a cell that did not split adds the same
    component to all their signatures, and the count into a last piece
    follows from the counts into its siblings, which come before it.

    Vertex v's count into splitter c is the pair (|col(p_v) & c| - [v in c],
    |row(A_v) & c| - [v in c]), packed as c1 * base + c2 < base**2.  Of the
    k splitters, the counts into the j-th fill the `width` bits from
    `width * (k - 1 - j)` of three keys: one per row, one per column and
    one per member of c (its [v in c] terms).  v's key is its row's plus
    its column's minus its own; no field carries, so keys order as the
    count tuples do.  Only live vertices in a splitter's rows and columns
    are read; key 0, no edge into any splitter, is the first bucket, and a
    cell without a nonzero key keeps its place.

    Without `against`, returns the partition and the trace of this
    refinement; `part` is left as it was.  With `against`, the trace of
    another graph's refinement from cells of the same sizes, each piece is
    ordered by that trace's keys, and the result is None at the first
    round whose touched cells or buckets differ from it; on success the
    trace returned is `against`.
    """
    stats.refinements += 1
    rows, cols = graph.by_set, graph.by_point
    row_of, point_of = graph.row_of, graph.point_of
    base = graph.n + 1
    width = (base * base).bit_length()
    trace: Trace = [] if against is None else against
    cells, open_ = list(part[0]), part[1]
    live = sum(cells[s] for s in open_)  # the open cells' vertices
    new = splitters
    rnd = 0
    while True:
        row_key = [0] * len(rows)
        col_key = [0] * len(cols)
        own = [0] * graph.n  # a live splitter member's count of itself
        reach = 0
        shift = width * len(new)
        for s in new:
            shift -= width
            c = cells[s]
            if not c & (c - 1):  # a singleton: one row and one column
                u = c.bit_length() - 1
                row_key[row_of[u]] += 1 << shift
                col_key[point_of[u]] += base << shift
                nbrs = rows[row_of[u]] | cols[point_of[u]]
                counted = (nbrs & live).bit_count()
            else:
                members = elements_of(c)
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
        next_open: List[int] = []
        next_new: List[int] = []
        for s in open_:
            c = cells[s]
            t = c & reach
            if not t:
                next_open.append(s)
                continue
            m = t & (t - 1)  # the reached vertices after the first
            v = (t ^ m).bit_length() - 1
            key = row_key[row_of[v]] + col_key[point_of[v]] - own[v]
            while m:  # drop them while they share the first one's key
                low = m & -m
                v = low.bit_length() - 1
                if row_key[row_of[v]] + col_key[point_of[v]] - own[v] != key:
                    break
                m ^= low
            if not m and (c == t or not key):  # one bucket: the cell stays
                next_open.append(s)
                if not key:
                    continue
                want = [(key, c.bit_count())]
            else:
                buckets = {key: t ^ m}
                while m:
                    low = m & -m
                    v = low.bit_length() - 1
                    k = row_key[row_of[v]] + col_key[point_of[v]] - own[v]
                    buckets[k] = buckets.get(k, 0) | low
                    m ^= low
                if c != t:
                    buckets[0] = buckets.get(0, 0) | (c ^ t)
                want = [(k, buckets[k].bit_count()) for k in sorted(buckets)]
            if against is None:
                spec[s] = want
            elif spec.get(s) != want:
                stats.failed_refinements += 1
                return None
            else:
                matched += 1
            if len(want) == 1:
                continue
            for k, size in want:  # s runs over the pieces' starts
                piece = buckets[k]
                cells[s] = piece
                next_new.append(s)
                if size > 1:
                    next_open.append(s)
                else:
                    live ^= piece
                s += size
            next_new.pop()  # the last piece
        if against is not None and matched != len(spec):
            stats.failed_refinements += 1
            return None
        if not next_new:
            return (cells, next_open), trace
        open_, new = next_open, next_new


def _unit(n: int) -> Partition:
    """The partition of n > 0 vertices into one cell."""
    return [(1 << n) - 1] + [0] * (n - 1), [0] if n > 1 else []


def _split(part: Partition, s: int, v: int) -> Partition:
    """`part` with v split off the cell at s as a singleton before the rest."""
    cells, open_ = part
    c = cells[s]
    out = list(cells)
    out[s], out[s + 1] = 1 << v, c & ~(1 << v)
    return out, [t + (t == s) for t in open_ if t != s or c.bit_count() > 2]


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
        self._path: List[Tuple[Partition, Trace, int]] = []

    def _node(self, depth: int) -> Tuple[Partition, Trace, int]:
        """g's partition, its trace and branch cell at `depth` of its first path."""
        path = self._path
        while len(path) <= depth:
            if path:
                part, _, s = path[-1]
                trial, at = _split(part, s, _first(part[0][s])), (s,)
            else:
                trial, at = _unit(self.g.n), (0,)
            part, trace = _refine(self.g, trial, at, self.stats)
            path.append((part, trace, _branch_cell(part)))
        return path[depth]

    def _individualize(
        self, part: Partition, s: int, w: int, trace: Trace
    ) -> Optional[Partition]:
        """h's equitable `part` with w split off the cell at s, refined against `trace`.

        The rest's counts follow from the singleton's, so the singleton is
        the only splitter.  None where g's refinement differs.
        """
        hit = _refine(self.h, _split(part, s, w), (s,), self.stats, trace)
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
        self, depth: int, part: Optional[Partition], prune: bool
    ) -> Optional[Tuple[int, ...]]:
        """The first isomorphism below h's equitable `part` at `depth`, or None.

        A failed refinement, None, has none.  `prune` skips every candidate
        in the Aut(h)-orbit of one that failed: if an isomorphism sent v to
        alpha(w), composing it with alpha^-1 would send v to w.  Aut(h) is
        computed at the first failed candidate, not before.
        """
        if part is None:
            return None
        g_part, _, s = self._node(depth)
        if s < 0:
            mapping = [0] * self.g.n
            for gm, hm in zip(g_part[0], part[0]):
                mapping[gm.bit_length() - 1] = hm.bit_length() - 1
            self.stats.leaves += 1
            ok = preserves_adjacency(self.g, self.h, mapping)
            return tuple(mapping) if ok else None
        trace = self._node(depth + 1)[1]
        orbits: Optional[List[int]] = None
        failed = 0  # union of the Aut(h)-orbits of failed candidates
        for w in iter_bits(part[0][s]):
            if failed >> w & 1:
                self.stats.orbit_prunes += 1
                continue
            child = self._individualize(part, s, w, trace)
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
        root = _refine(self.h, _unit(self.h.n), (0,), self.stats, trace)
        return self._descend(0, None if root is None else root[0], True)


def _branch_cell(part: Partition) -> int:
    """Start of the first smallest non-singleton cell, or -1 if there is none."""
    cells, open_ = part
    return min(open_, key=lambda s: cells[s].bit_count(), default=-1)


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


def find_matroid_isomorphism(
    m: Matroid, n: Matroid, kind: IsoStructure, stats: Optional[SearchStats] = None
) -> Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """A matroid isomorphism m -> n by graph search: (ground map, vertex map) or None.

    Both families must cover (`require_covering`), so every element is the
    point of a vertex and the vertex map, which preserves columns, sends
    element p_v to p_w for each v -> w: the ground map is read off it.
    The pointed game never sees the empty set, so when exactly one family
    holds it (flats of an all-loop matroid versus a loop-free one) the
    graphs can agree while the matroids do not; that is a negative.  The
    ground map must be a bijection carrying the family onto the family,
    else `InvariantViolation`.  `stats`, if given, collects the graph
    search's counts.
    """
    require_covering(kind, m, n)
    g, h = build_graph(m, kind), build_graph(n, kind)
    mapping = find_isomorphism(g, h, stats)
    if mapping is None:
        return None
    fam_m, fam_n = structure_sets(m, kind), structure_sets(n, kind)
    if (0 in fam_m) != (0 in fam_n):
        return None
    ground = [-1] * m.n
    for v, w in enumerate(mapping):
        ground[g.point_of[v]] = h.point_of[w]
    image = {mask_of(ground[e] for e in iter_bits(a)) for a in fam_m}
    if sorted(ground) != list(range(n.n)) or image != set(fam_n):
        raise InvariantViolation(
            f"ground map {ground} does not carry the {kind.value} family across"
        )
    return tuple(ground), mapping


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
    base point b_k.  Each image w of b_k is tested by refining h alone,
    with b_k -> w individualized on the level's cells, against the trace
    of node k + 1, which is b_k -> b_k; node k + 1 is the next level.  As a
    set of cells each node is the coarsest equitable partition with the
    base points so far as singletons, as refining from them would give.
    The levels run from the deepest up: the generators below level k fix
    b_0 .. b_k, so they carry a failed w to others that fail, and those
    are skipped as orbit prunes.  The generators found do not change.
    """
    if search.g.n == 0:
        return AutomorphismGroup([], 1, [])
    depth = 0
    while search._node(depth)[2] >= 0:
        depth += 1
    gens: List[Tuple[int, ...]] = []  # the levels below this one, in level order
    order = 1
    for k in range(depth - 1, -1, -1):
        part, _, s = search._node(k)
        trace = search._node(k + 1)[1]
        orbit = 1 << _first(part[0][s])
        failed = 0  # the orbits of failed candidates under `gens`
        level_gens: List[Tuple[int, ...]] = []
        for w in iter_bits(part[0][s]):
            if orbit >> w & 1:
                continue
            if failed >> w & 1:
                search.stats.orbit_prunes += 1
                continue
            child = search._individualize(part, s, w, trace)
            res = search._descend(k + 1, child, False)
            if res is None:
                failed = _close_orbit(failed | 1 << w, gens)
            else:
                level_gens.append(res)
                orbit = _close_orbit(orbit | (1 << w), level_gens)
        order *= orbit.bit_count()
        gens = level_gens + gens
    base = [_first(part[0][s]) for part, _, s in search._path[:depth]]
    return AutomorphismGroup(gens, order, base)


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
