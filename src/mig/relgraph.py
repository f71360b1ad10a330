"""Relation colored graphs and their isomorphism / automorphism search.

Vertices are the pointed sets of a (matroid, structure) pair; two
vertices are joined when their rel value is 1 (same point) or 2 (same
set), with that value as the edge color.  Vertex pairs with rel 3 are
non-edges, so a bijection preserves rel on all pairs exactly when it
preserves both colored adjacencies.

The graph is the line graph of the incidence between its sets (rows) and
points (columns), vertex (A, p) being the incidence of A and p.  It is
kept as that incidence structure, built once with the graph, and the
search runs on it: the k covered points, then the sets, |F| + k vertices
against the graph's sum of |A|.  Colour 2 (or equality) is "same row" and
colour 1 "same column", so a colour-preserving bijection of graphs is a
pair of bijections, on rows and on points, that carries incidences onto
incidences, and each such pair maps (A, p) to (A', p'): the isomorphisms
correspond one to one and the groups agree.  When the points are all of
m's ground set, the rows, being distinct sets, follow from the points, so
the group is the ground permutations that fix the family: Aut(m) for
every kind that covers m, since each family determines m.  Uncovered
points have no vertex and stay out (as isolated points they would
multiply the group by k!).  Only point cells are branched on: the sets
are distinct sets of points, so once the points are singletons an
equitable partition splits the sets too.  A leaf zips into bijections
on points and on sets and is verified in O(n): each incidence of g must
go to one of h.  Maps and generators come back as vertex permutations.

The search is equitable color refinement followed by individualize-and-
refine backtracking on the first smallest non-singleton point cell, in
ascending order; automorphism groups come from a stabilizer chain on the
same tree.  A partition is positional:
`cells[s]` is the cell that starts at position s and 0 elsewhere, and
`open` lists the starts of the non-singleton cells in ascending order.
The pieces of a split cell start where it started, so a start names a
cell for good and a round visits only the open cells.  Refinement only
counts incidences into the cells that changed in the round before
(Berkholz-Bonsma-Grohe, ESA 2013).
Pruning skips candidates in the orbit of a failed one (McKay-Piperno,
arXiv:1301.1493), never a solution.  The solution is the first verified
leaf in branch order, which need not be the least in lexicographic order.

The search from g to h refines each side alone.  g always individualizes
the first vertex of its branch cell, so its first path is refined once
per depth, recording per round each touched cell's start and buckets as
(count key, size) in key order.  A candidate refines h alone against that
trace and fails at the first round where the traces differ, which is
where refining both sides jointly would fail; up to there both make the
same cuts in the same order, so on success h's cells, zipped with g's,
are the joint refinement (McKay-Piperno's comparison with the first path).

Aut(m) and whether m is isomorphic to n are facts about the matroids, so
the matroid owns them, in its cache, and a graph of `build_graph` is a
view of (m, kind) that is rebuilt on every call and points at m.  For
each kind the search runs on m's graph of the "searched kind": the
smallest of the kind asked for and m's bases and nonbases graphs that
covers m (`_search_kind`).  The chain runs on it once per matroid, and
its generators are mapped onto m's other covering graphs through their
ground permutations (`automorphism_group`).  An isomorphism search
m -> n, once m and n agree in size, rank and number of bases, runs once
per searched kind on m's and n's graphs of it; m keeps the ground map
found, which is checked and mapped onto the graphs of the kind asked for
on every query (`find_matroid_isomorphism`).
"""

from __future__ import annotations

from math import comb
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .bitset import elements_of, iter_bits, mask_of
from .errors import GuardExceeded, InvariantViolation
from .matroid import Matroid
from .structures import (
    IsoStructure,
    PointedSet,
    covers,
    pointed_sets,
    require_covering,
    structure_sets,
)

GROUP_ENUM_CAP = 20_000


class RelColoredGraph:
    """Colored graph on distinct pointed sets, kept as its set-point incidence.

    Vertex v is the incidence of row (set) `row_of[v]` and point
    `point_of[v]`; its colour-2 neighbours share its row, its colour-1
    neighbours its point.  Node i < `npts` of the incidence structure is
    the i-th covered point and node npts + r is row r; `adj[x]` is the
    mask of x's incidences, `rep[x]` a vertex on x and `at[p]` the node of
    point p (-1 if p is uncovered); `points` lists the covered points and
    `row_index` maps each row's set to its row.  Counts fit in `width`
    bits; `root` has the points and the rows as two cells.  `matroid` and
    `kind` are those of a graph made by `build_graph`, else None.  The
    vertex table, which `index_of` reads, and the automorphism group of a
    graph with no matroid are computed at most once, on first use, and
    kept here.
    """

    def __init__(self, vertices: Sequence[PointedSet]):
        self.vertices = tuple(vertices)
        self.n = len(self.vertices)
        if len(set(self.vertices)) != self.n:
            raise InvariantViolation("relation graph vertices repeat a pointed set")
        row_id: Dict[int, int] = {}
        self.row_of = [row_id.setdefault(a, len(row_id)) for a, _ in self.vertices]
        self.point_of = [p for _, p in self.vertices]
        covered = sorted(set(self.point_of))
        self.at = at = [-1] * (covered[-1] + 1 if covered else 0)
        for i, p in enumerate(covered):
            at[p] = i
        self.npts = npts = len(covered)
        self.size = size = npts + len(row_id)
        self.adj = adj = [0] * size
        self.rep = rep = [0] * size
        for v, (r, p) in enumerate(zip(self.row_of, self.point_of)):
            i, r = at[p], npts + r
            adj[i] |= 1 << r
            adj[r] |= 1 << i
            rep[i] = rep[r] = v
        self.width = max(npts, size - npts).bit_length()
        cells = [0] * max(size, 1)  # the empty graph is never searched
        cells[0], cells[npts] = (1 << npts) - 1, (1 << size) - (1 << npts)
        self.root = cells, [s for s in (0, npts) if cells[s] & (cells[s] - 1)]
        self.points = covered
        self.row_index = row_id
        self._aut: Optional[AutomorphismGroup] = None
        self._table: Optional[Dict[int, int]] = None
        self.matroid: Optional[Matroid] = None
        self.kind: Optional[IsoStructure] = None

    def index_of(self, v: PointedSet) -> int:
        """The index of pointed set v; KeyError when it is not a vertex."""
        a, p = v
        r = self.row_index.get(a)
        i = self.at[p] if 0 <= p < len(self.at) else -1
        if r is not None and i >= 0:
            w = self.vertex_table().get(i * self.size + self.npts + r)
            if w is not None:
                return w
        raise KeyError(v)

    def rel_table(self) -> np.ndarray:
        """rel of every vertex pair: (rows differ) + 2 * (points differ)."""
        row, point = np.array(self.row_of), np.array(self.point_of)
        return (row[:, None] != row) + np.int8(2) * (point[:, None] != point)

    def edges(self, color: int) -> List[Tuple[int, int]]:
        """The colour-`color` edges (i, j), i < j, in order: distinct vertices
        share their point (colour 1) or their row (colour 2), never both."""
        key = self.point_of if color == 1 else self.row_of
        ends: Dict[int, List[int]] = {}
        for v, k in enumerate(key):
            ends.setdefault(k, []).append(v)
        return [(i, j) for i, k in enumerate(key) for j in ends[k] if j > i]

    def vertex_table(self) -> Dict[int, int]:
        """The vertex on point node i and row node x, at key i * size + x."""
        if self._table is None:
            size, npts, at = self.size, self.npts, self.at
            pairs = enumerate(zip(self.row_of, self.point_of))
            self._table = {at[p] * size + npts + r: v for v, (r, p) in pairs}
        return self._table


def build_graph(m: Matroid, kind: IsoStructure) -> RelColoredGraph:
    """The relation colored graph of (m, kind), a view of m built on each call.

    The vertices are m's cached pointed sets, so every graph of (m, kind)
    numbers them alike, and answers that m keeps for one graph hold for
    the next.  The graph points at m and m keeps no graph, so they form no
    reference cycle.
    """
    g = RelColoredGraph(pointed_sets(m, kind))
    g.matroid, g.kind = m, kind
    return g


def _incidence_map(
    g: RelColoredGraph, h: RelColoredGraph, ground: Sequence[int]
) -> List[int]:
    """The incidence map A -> ground(A), p -> ground[p] from g to h.

    Each row mask is mapped once; InvariantViolation when its image is not
    a row of h.  Every point of g lies on a row, so its image is then
    covered in h.
    """
    bits = [1 << x for x in ground]
    rows, npts = h.row_index, h.npts
    row_map = []
    for a in g.row_index:
        b = 0
        for e in iter_bits(a):
            b |= bits[e]
        x = rows.get(b)
        if x is None:
            raise InvariantViolation(
                f"ground map {list(ground)} carries {elements_of(a)}"
                " onto a set that is not in the family"
            )
        row_map.append(npts + x)
    return [h.at[ground[p]] for p in g.points] + row_map


def _vertex_map(
    g: RelColoredGraph, h: RelColoredGraph, phi: Sequence[int]
) -> Tuple[int, ...]:
    """The vertex map (A, p) -> (phi A, phi p) of an incidence map phi from g
    to h, through h's vertex table."""
    table, size, at, npts = h.vertex_table(), h.size, g.at, g.npts
    pairs = zip(g.row_of, g.point_of)
    return tuple(table[phi[at[p]] * size + phi[npts + r]] for r, p in pairs)


def induced_map(
    g: RelColoredGraph, h: RelColoredGraph, ground: Sequence[int]
) -> Tuple[int, ...]:
    """The vertex map (A, p) -> (ground(A), ground[p]) from g to h.

    InvariantViolation when the image of a set of g is not a set of h.
    """
    return _vertex_map(g, h, _incidence_map(g, h, ground))


# -- search ------------------------------------------------------------------

Partition = Tuple[List[int], List[int]]  # (cells, open): the module docstring
# per round, each touched cell's start -> its (count key, size) buckets in key order
Trace = List[Dict[int, List[Tuple[int, int]]]]


class SearchStats:
    """Machine-independent work counts of one search.

    `refinements` counts one-sided refinements: one per node of g's first
    path and one per h candidate (the root included); `failed_refinements`
    the h refinements whose trace differed from g's.  `splitter_counts`
    sums, over the splitters c of every round, the incidence vertices whose
    count into c is evaluated: the live neighbours of a point cell or of
    one set, and every live point for a larger cell of sets.
    `orbit_prunes` counts candidates skipped as images of failed ones,
    under Aut(h)'s generators that fix the candidates above them in an
    existence search and, in the chain, under the generators found at the
    level and below it; `leaves` the discrete partitions checked against
    the graphs.  `structure` is the searched kind of
    `find_matroid_isomorphism`, None until it reaches a search or the
    answer that its matroid keeps from one: a kept answer sets it and adds
    no counts.  It is not a count, and `to_json` leaves it out.
    """

    __slots__ = (
        "refinements",
        "failed_refinements",
        "splitter_counts",
        "orbit_prunes",
        "leaves",
        "structure",
    )

    def __init__(self) -> None:
        self.refinements = 0
        self.failed_refinements = 0
        self.splitter_counts = 0
        self.orbit_prunes = 0
        self.leaves = 0
        self.structure: Optional[IsoStructure] = None

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
    """Equitable refinement of one graph's incidence partition, with its trace.

    Each round buckets the reached vertices of every open cell by their
    incidence counts into the splitters, given by their starts, and orders
    the pieces by those counts; every piece but the last is a splitter of
    the next round.  The ordered partition is the one that counting into
    every cell gives: the vertices of a cell share their counts into each
    cell of the round before, so a cell that did not split adds the same
    component to all their signatures, and the count into a last piece
    follows from the counts into its siblings, which come before it.

    Of the k splitters, the count into the j-th fills the `width` bits
    from `width * (k - 1 - j)` of a vertex's key, so keys order as the
    count tuples do.  A cell of points counts at the live rows it meets,
    one set at its live points and more sets at every live point; key 0,
    no incidence into any splitter, is the first bucket, and a cell
    without a nonzero key keeps its place.

    Without `against`, returns the partition and the trace of this
    refinement; `part` is left as it was.  With `against`, the trace of
    another structure's refinement from cells of the same sizes, each
    piece is ordered by that trace's keys, and the result is None at the
    first round whose touched cells or buckets differ from it; on success
    the trace returned is `against`.
    """
    stats.refinements += 1
    adj, npts, width = graph.adj, graph.npts, graph.width
    trace: Trace = [] if against is None else against
    cells, open_ = list(part[0]), part[1]
    live = sum(cells[s] for s in open_)  # the open cells' vertices
    new = splitters
    rnd = 0
    points = (1 << npts) - 1
    while True:
        key = [0] * len(adj)
        reach = 0
        shift = width * len(new)
        for s in new:
            shift -= width
            c = cells[s]
            if s < npts:
                nbrs, b = 0, c
                while b:
                    low = b & -b
                    nbrs |= adj[low.bit_length() - 1]
                    b ^= low
                nbrs &= live
            elif c & (c - 1):  # at most npts points, whatever the size of c
                nbrs = live & points
            else:  # one set: its own points
                nbrs = adj[c.bit_length() - 1] & live
            stats.splitter_counts += nbrs.bit_count()
            reach |= nbrs
            while nbrs:
                low = nbrs & -nbrs
                v = low.bit_length() - 1
                key[v] += (adj[v] & c).bit_count() << shift
                nbrs ^= low
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
            first = key[(t ^ m).bit_length() - 1]
            while m:  # drop them while they share the first one's key
                low = m & -m
                if key[low.bit_length() - 1] != first:
                    break
                m ^= low
            if not m and (c == t or not first):  # one bucket: the cell stays
                next_open.append(s)
                if not first:
                    continue
                want = [(first, c.bit_count())]
            else:
                buckets = {first: t ^ m}
                while m:
                    low = m & -m
                    k = key[low.bit_length() - 1]
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


def _split(part: Partition, s: int, v: int) -> Partition:
    """`part` with v split off the cell at s as a singleton before the rest."""
    cells, open_ = part
    c = cells[s]
    out = list(cells)
    out[s], out[s + 1] = 1 << v, c & ~(1 << v)
    return out, [t + (t == s) for t in open_ if t != s or c.bit_count() > 2]


def _first(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _branch_cell(part: Partition, npts: int) -> int:
    """Start of the first smallest open point cell, or else of any open
    cell (rows with the same points, which pointed sets never have), or -1."""
    starts = [s for s in part[1] if s < npts] or part[1]
    return min(starts, key=lambda s: part[0][s].bit_count(), default=-1)


class _PairSearch:
    """Backtracking isomorphism search from g to h on the graphs' incidences.

    g branches on the first vertex of its branch cell at every depth, so
    `_node(d)` refines g's first path once per depth, when first asked,
    and every h candidate at depth d is refined against its trace, with
    the singleton as the one splitter.  The search works with incidence
    maps, which `_vertex_map` turns into vertex maps.
    """

    def __init__(self, g: RelColoredGraph, h: RelColoredGraph, stats=None):
        self.g = g
        self.h = h
        self.stats: SearchStats = SearchStats() if stats is None else stats
        self._path: List[Tuple[Partition, Trace, int]] = []

    def _node(self, depth: int) -> Tuple[Partition, Trace, int]:
        """g's partition, its trace and branch cell at `depth` of its first path."""
        path = self._path
        while len(path) <= depth:
            if path:
                part, _, s = path[-1]
                trial, at = _split(part, s, _first(part[0][s])), (s,)
            else:
                trial, at = self.g.root, (0, self.g.npts)
            part, trace = _refine(self.g, trial, at, self.stats)
            path.append((part, trace, _branch_cell(part, self.g.npts)))
        return path[depth]

    def _descend(
        self,
        depth: int,
        hit: Optional[Tuple[Partition, Trace]],
        fixed: Optional[List[int]],
    ) -> Optional[List[int]]:
        """The first incidence isomorphism below h's refinement `hit` at `depth`.

        A failed refinement, None, has none.  With `fixed`, the h vertices
        individualized above, a candidate is skipped when an automorphism of
        h that fixes them carries a failed candidate w to it: an isomorphism
        sending v to alpha(w), composed with alpha^-1, would send v to w.
        Aut(h) is computed at the first failed candidate, not before.
        """
        if hit is None:
            return None
        part = hit[0]
        g_part, _, s = self._node(depth)
        if s < 0:
            phi = [0] * len(part[0])
            for gm, hm in zip(g_part[0], part[0]):
                phi[gm.bit_length() - 1] = hm.bit_length() - 1
            self.stats.leaves += 1
            adj, at, npts = self.h.adj, self.g.at, self.g.npts
            pairs = zip(self.g.row_of, self.g.point_of)  # g's incidences
            if all(adj[phi[npts + r]] >> phi[at[p]] & 1 for r, p in pairs):
                return phi
            return None
        trace = self._node(depth + 1)[1]
        gens: Optional[List[List[int]]] = None
        failed = 0  # union of the orbits of failed candidates under `gens`
        for w in iter_bits(part[0][s]):
            if failed >> w & 1:
                self.stats.orbit_prunes += 1
                continue
            child = _refine(self.h, _split(part, s, w), (s,), self.stats, trace)
            below = None if fixed is None else fixed + [w]
            phi = self._descend(depth + 1, child, below)
            if phi is not None:
                return phi
            if fixed is not None:
                if gens is None:  # Aut(h)'s generators that fix `fixed`
                    group = automorphism_group(self.h, self.stats)
                    gens = [p for p in group.perms if all(p[x] == x for x in fixed)]
                failed = _close_orbit(failed | 1 << w, gens)
        return None

    def run(self) -> Optional[Tuple[int, ...]]:
        """The first isomorphism, pruning by Aut(h), or None."""
        g, h = self.g, self.h
        if (g.n, g.npts, g.size) != (h.n, h.npts, h.size):
            return None
        if g.n == 0:
            return ()
        trace = self._node(0)[1]
        root = _refine(h, h.root, (0, h.npts), self.stats, trace)
        phi = self._descend(0, root, [])
        return None if phi is None else _vertex_map(g, h, phi)


def preserves_adjacency(
    g: RelColoredGraph, h: RelColoredGraph, mapping: Sequence[int]
) -> bool:
    """Whether the bijection `mapping` carries g's colored adjacencies onto h's.

    O(n): vertices are distinct pointed sets, so for u != v colour 2 means
    "same set" and colour 1 "same point", and both are kept exactly when
    the maps induced on sets and on points are well defined and injective.
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

    Both families must cover (`require_covering`).  Matroids that differ in
    size, rank or number of bases are not isomorphic; that is checked before
    any other family of n is read.  Every game whose kind covers both
    matroids has the same answer, whether m and n are isomorphic, so the
    search runs on m's graph of the searched kind (`_search_kind`), the one
    whose chain gives Aut(m), and n's graph of that kind.  With the counts
    equal, n has as many bases and nonbases as m, so m's choice also bounds
    what reading n's family costs.  When that family does not cover, no
    isomorphism exists, as covering is invariant under isomorphism.  Each
    element is the point of a vertex and the vertex map found, which
    preserves columns, sends element p_v to p_w for each v -> w: the ground
    map is read off it, and m keeps it, or None, for n and the searched
    kind.  On every query the ground map must be a bijection that carries
    the family of `kind` onto n's, and the vertex map returned is the one
    it induces on the graphs of `kind` (`induced_map`).  The pointed game
    never sees the empty set; at equal counts
    one family holds it and the other not only when one matroid alone has
    loops, and then no map is found.  On hyperplanes that is rank 1, where
    the loop-free family is the empty set alone, which does not cover.  On
    flats a bases or nonbases search finds matroid isomorphisms only; a
    flats search of rank 1 meets rows that differ in number, and of rank
    >= 2 the loops lie on every row while no point of the other matroid
    does.
    A ground map that is not a bijection, or does not carry the family
    onto the family, raises `InvariantViolation`.  `stats`, if given,
    collects the graph search's counts and, in `structure`, the searched
    kind; a search runs once per pair of matroids and searched kind, so
    asking again only sets `structure`, and both stay as they were when no
    search runs.
    """
    require_covering(kind, m, n)
    if (m.n, m.rank, len(m.bases)) != (n.n, n.rank, len(n.bases)):
        return None
    searched = _search_kind(m, kind)
    if not covers(n, searched).covered:
        return None
    if stats is not None:
        stats.structure = searched

    def search() -> Optional[Tuple[int, ...]]:
        g, h = build_graph(m, searched), build_graph(n, searched)
        found = find_isomorphism(g, h, stats)
        if found is None:
            return None
        ground = [-1] * m.n
        for v, w in enumerate(found):
            ground[g.point_of[v]] = h.point_of[w]
        return tuple(ground)

    ground = m.cached(("iso", searched, n.key), search)
    if ground is None:
        return None
    if sorted(ground) != list(range(n.n)):
        raise InvariantViolation(f"ground map {list(ground)} is not a bijection")
    fam_m, fam_n = structure_sets(m, kind), structure_sets(n, kind)
    image = {mask_of(ground[e] for e in iter_bits(a)) for a in fam_m}
    if image != set(fam_n):
        raise InvariantViolation(
            f"ground map {list(ground)} does not carry the {kind.value} family across"
        )
    return ground, induced_map(build_graph(m, kind), build_graph(n, kind), ground)


class AutomorphismGroup:
    """Generators plus exact order from an orbit-stabilizer chain.

    `perms` are the generators as incidence permutations, the form the
    existence search prunes with; `structure` is the kind of the graph
    whose chain found them (None for a graph built by hand).
    """

    def __init__(
        self,
        generators: List[Tuple[int, ...]],
        order: int,
        perms: List[List[int]],
        structure: Optional[IsoStructure],
    ):
        self.generators = generators
        self.order = order
        self.perms = perms
        self.structure = structure

    def elements(self) -> List[Tuple[int, ...]]:
        """Every group element via closure of the generators (guarded)."""
        if self.order > GROUP_ENUM_CAP:
            raise GuardExceeded(
                f"group order {self.order} exceeds the element-enumeration guard"
                f" GROUP_ENUM_CAP = {GROUP_ENUM_CAP}"
            )
        n_pts = len(self.generators[0]) if self.generators else 0
        identity = tuple(range(n_pts))
        seen, frontier = {identity}, [identity]
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
    """Aut(g), computed once per matroid and kind, or once per graph built
    by hand.

    A graph of `build_graph(m, kind)` whose kind covers m has Aut(m), read
    on the ground set, as its group.  So the stabilizer chain runs once per
    matroid, on m's graph of the searched kind (`_search_kind`), and its
    generators are mapped onto g as ground permutations; each image of a
    set of g must be a set of g, else InvariantViolation, which checks
    every generator mapped.  The order is the chain's.  m keeps the group
    of each kind asked for.  A graph of a kind that misses an element of m
    runs its own chain, which m keeps too, and one built by hand keeps its
    own.  `stats`, if given, collects the counts of the search when this
    call makes it.
    """
    m = g.matroid
    if m is None:
        if g._aut is None:
            g._aut = _stabilizer_chain(_PairSearch(g, g, stats))
        return g._aut

    def group() -> AutomorphismGroup:
        searched = _search_kind(m, g.kind)
        if searched is g.kind:
            return _stabilizer_chain(_PairSearch(g, g, stats))
        return _lift(automorphism_group(build_graph(m, searched), stats), g)

    return m.cached(("aut", g.kind), group)


def _search_kind(m: Matroid, kind: IsoStructure) -> IsoStructure:
    """The kind of m's graph whose chain gives Aut of m's graph of `kind`, and
    on which an isomorphism search from m on `kind` runs (cached on m).

    When `kind` covers m: the first of `kind`, bases and nonbases that has
    the fewest vertices among those that cover m.  The counts r|B| and
    r(C(n, r) - |B|) decide before any other family is read, so the
    nonbases are enumerated only when they win.  Otherwise `kind` itself.
    """

    def pick() -> IsoStructure:
        if not covers(m, kind).covered:
            return kind
        r, nb = m.rank, len(m.bases)
        candidates = (
            (len(pointed_sets(m, kind)), kind),
            (r * nb, IsoStructure.BASES),
            (r * (comb(m.n, r) - nb), IsoStructure.NONBASES),
        )
        for _, searched in sorted(candidates, key=lambda c: c[0]):  # stable on ties
            if searched is kind or covers(m, searched).covered:
                break
        return searched

    return m.cached(("search", kind), pick)


def _lift(group: AutomorphismGroup, g: RelColoredGraph) -> AutomorphismGroup:
    """`group`, of another graph that covers g's matroid, mapped onto g.

    Both graphs cover the ground set, so point node e of either is element
    e, and a generator's first npts entries are its ground permutation.
    """
    perms = [_incidence_map(g, g, p[: g.npts]) for p in group.perms]
    gens = [_vertex_map(g, g, p) for p in perms]
    return AutomorphismGroup(gens, group.order, perms, group.structure)


def _close_orbit(orbit: int, generators: Sequence[Tuple[int, ...]]) -> int:
    """Smallest superset of the bitset `orbit` closed under the generators.

    Each pass maps only the points that the pass before added.
    """
    new = orbit
    while new:
        img = 0
        for v in iter_bits(new):
            for perm in generators:
                img |= 1 << perm[v]
        new = img & ~orbit
        orbit |= new
    return orbit


def _stabilizer_chain(search: _PairSearch) -> AutomorphismGroup:
    """Automorphism group of `search.g`, which must be `search.h`.

    Level k is node k of g's first path, whose branch cell starts with the
    base point b_k.  Each image w of b_k is tested by refining h alone,
    with b_k -> w individualized on the level's cells, against the trace
    of node k + 1, which is b_k -> b_k; node k + 1 is the next level.  As a
    set of cells each node is the coarsest equitable partition with the
    base points so far as singletons, as refining from them would give.
    The levels run from the deepest up, and level k closes both the orbit
    of b_k and the set of failed candidates under every generator found
    at or below it (Schreier-Sims): those fix b_0 .. b_{k-1}, so they
    carry b_k onto images it already reaches and a failed w onto others
    that fail, and both are skipped, the failed ones as orbit prunes.
    Each new generator thus reaches an image that the ones before could
    not, and lies outside the group they generate, so a chain yields at
    most floor(log2 |G|) of them.  Generators are lifted to vertex maps.
    """
    if search.g.n == 0:
        return AutomorphismGroup([], 1, [], search.g.kind)
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
            child = _refine(search.h, _split(part, s, w), (s,), search.stats, trace)
            res = search._descend(k + 1, child, None)
            if res is None:
                failed = _close_orbit(failed | 1 << w, level_gens + gens)
            else:
                level_gens.append(res)
                orbit = _close_orbit(orbit | 1 << w, level_gens + gens)
        order *= orbit.bit_count()
        gens = level_gens + gens
    lifted = [_vertex_map(search.g, search.g, p) for p in gens]
    return AutomorphismGroup(lifted, order, gens, search.g.kind)


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
    moved = [sum(1 << i for i, x in enumerate(p) if x != i) for p in nontrivial]

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
