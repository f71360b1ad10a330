"""The line-graph search engine, kept as the oracle of the incidence search.

This is the individualization-refinement engine that `mig.relgraph` ran
on the relation graph itself, one vertex per pointed set, before it moved
to the set-point incidence structure.  It refines and branches on graph
vertices, counting each vertex's neighbours through its row (set) and its
column (point); its partitions, traces and counters are those of the line
graph.  `tests/test_search_oracle.py` checks it against the older
reference engines, and `tests/test_incidence_search.py` checks the
production search against it: the same verdicts and group orders, and
generators that are automorphisms of the graph.

`automorphism_group` here keeps its groups in a table of its own, so the
groups that the production search keeps are never read or written.  The
row and column vertex masks the engine counts through are kept the same
way, built once per graph by `line_masks`.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, Sequence, Tuple

from mig.bitset import elements_of, iter_bits
from mig.relgraph import (
    AutomorphismGroup,
    RelColoredGraph,
    SearchStats,
    _close_orbit,
    preserves_adjacency,
)

Partition = Tuple[List[int], List[int]]  # (cells, open), positional
# per round, each touched cell's start -> its (count key, size) buckets in key order
Trace = List[Dict[int, List[Tuple[int, int]]]]


class ChainGroup(AutomorphismGroup):
    """A group with the base of its chain: the vertex each level fixes.

    The line-graph chain works on vertices, so it keeps no incidence
    permutations.
    """

    def __init__(self, generators: List[Tuple[int, ...]], order: int, base: List[int]):
        super().__init__(generators, order, [], None)
        self.base = base


_GROUPS: "weakref.WeakKeyDictionary[RelColoredGraph, ChainGroup]" = (
    weakref.WeakKeyDictionary()
)
_MASKS: "weakref.WeakKeyDictionary[RelColoredGraph, Tuple[List[int], List[int]]]" = (
    weakref.WeakKeyDictionary()
)


def line_masks(graph: RelColoredGraph) -> Tuple[List[int], List[int]]:
    """The graph's rows and columns as vertex masks, built once per graph.

    Row r is the mask of the vertices with one set, column p of those with
    point p; vertex v lies in row `row_of[v]` and column `point_of[v]`.
    """
    if graph not in _MASKS:
        rows = [0] * (max(graph.row_of, default=-1) + 1)
        cols = [0] * (max(graph.point_of, default=-1) + 1)
        for v, (r, p) in enumerate(zip(graph.row_of, graph.point_of)):
            rows[r] |= 1 << v
            cols[p] |= 1 << v
        _MASKS[graph] = rows, cols
    return _MASKS[graph]


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
    rows, cols = line_masks(graph)
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



def _stabilizer_chain(search: _PairSearch) -> ChainGroup:
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
        return ChainGroup([], 1, [])
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
    return ChainGroup(gens, order, base)


def find_isomorphism(
    g: RelColoredGraph, h: RelColoredGraph, stats: Optional[SearchStats] = None
) -> Optional[Tuple[int, ...]]:
    """The first rel-preserving vertex bijection g -> h in branch order, or None."""
    return _PairSearch(g, h, stats).run()


def automorphism_group(
    g: RelColoredGraph, stats: Optional[SearchStats] = None
) -> ChainGroup:
    """The stabilizer chain on g's vertices, computed once per graph."""
    if g not in _GROUPS:
        _GROUPS[g] = _stabilizer_chain(_PairSearch(g, g, stats))
    return _GROUPS[g]
