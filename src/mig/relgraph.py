"""Relation colored graphs and their isomorphism / automorphism search.

Vertices are the pointed sets of a (matroid, structure) pair; two
vertices are joined when their rel value is 1 (same point) or 2 (same
set), with that value as the edge color.  Vertex pairs with rel 3 are
non-edges, so a bijection preserves rel on all pairs exactly when it
preserves both colored adjacencies.

The search is equitable color refinement on aligned cell pairs followed
by individualize-and-refine backtracking on the first smallest
non-singleton cell, trying its candidates in ascending vertex index.
Automorphism groups come from a stabilizer chain on the same tree.
Refinement only counts edges into the cells that changed in the round
before, and only at the neighbours of those cells (Berkholz-Bonsma-Grohe,
ESA 2013): a vertex with no edge into a splitter has count zero there and
is bucketed by mask, not one by one.  This yields the same ordered
partition as counting every vertex into every cell.  An existence search
skips root candidates in the Aut(h)-orbit of a failed one (McKay-Piperno,
arXiv:1301.1493), which never skips a solution.  Results are
deterministic: the solution is the first verified leaf in branch order,
which need not be the least solution in lexicographic order.  Leaves are
verified against the full adjacency before being accepted.
"""

from __future__ import annotations

import warnings
from typing import Dict, List, Optional, Sequence, Tuple

from .bitset import iter_bits
from .errors import GuardExceeded, NotInduced
from .matroid import Matroid
from .structures import IsoStructure, PointedSet, covers, pointed_sets

GROUP_ENUM_CAP = 20_000


class RelColoredGraph:
    """Colored graph on pointed sets with per-color adjacency bitsets.

    The rows come from two masks, the vertices sharing a set and those
    sharing a point, so building is linear in the number of vertices.
    """

    def __init__(self, vertices: Sequence[PointedSet]):
        self.vertices = tuple(vertices)
        self.n = len(self.vertices)
        by_set: Dict[int, int] = {}
        by_point: Dict[int, int] = {}
        for i, (a, p) in enumerate(self.vertices):
            by_set[a] = by_set.get(a, 0) | 1 << i
            by_point[p] = by_point.get(p, 0) | 1 << i
        # same point, other set; same set, other point; either
        self.adj1 = [by_point[p] & ~by_set[a] for a, p in self.vertices]
        self.adj2 = [by_set[a] & ~by_point[p] for a, p in self.vertices]
        self.adj = [by_set[a] ^ by_point[p] for a, p in self.vertices]

    def edges(self, color: int) -> List[Tuple[int, int]]:
        adj = self.adj1 if color == 1 else self.adj2
        return [(i, j) for i in range(self.n) for j in iter_bits(adj[i]) if i < j]


def build_graph(
    m: Matroid, kind: IsoStructure, warn_uncovered: bool = True
) -> RelColoredGraph:
    """The relation colored graph of (m, kind)."""
    if warn_uncovered and not covers(m, kind).covered:
        warnings.warn(
            f"{kind.value} does not cover the matroid; the graph loses elements",
            stacklevel=2,
        )
    return RelColoredGraph(pointed_sets(m, kind))


# -- search ------------------------------------------------------------------

Cell = Tuple[int, int]  # (bitset of G-vertices, bitset of H-vertices)


class SearchStats:
    """Machine-independent work counts of one search.

    `refinements` counts `_refine` calls and `failed_refinements` those
    that returned None; `splitter_counts` counts the (vertex, splitter)
    edge counts evaluated by refinement, on both sides; `orbit_prunes`
    counts root candidates skipped as Aut(h)-images of failed ones;
    `leaves` counts discrete partitions checked against the full adjacency.
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


class _PairSearch:
    """Backtracking isomorphism search between two colored graphs."""

    def __init__(
        self,
        g: RelColoredGraph,
        h: RelColoredGraph,
        stats: Optional[SearchStats] = None,
    ):
        self.g = g
        self.h = h
        self.stats = SearchStats() if stats is None else stats

    def _refine(
        self, cells: List[Cell], splitters: Optional[Sequence[int]] = None
    ) -> Optional[List[Cell]]:
        """Equitable refinement of aligned cells, or None on a G/H mismatch.

        Each round buckets the vertices of every non-singleton cell by their
        edge counts into the splitter cells and orders the buckets by those
        counts.  `splitters` indexes `cells`; None means all of them.  When a
        cell splits, every piece but the last is a splitter of the next
        round.  The ordered partition is the one that counting into every
        cell gives: the vertices of a cell, on both sides, share their
        counts into each cell of the round before, so a cell that did not
        split adds the same component to all their signatures, and the
        count into a last piece follows from the counts into its siblings,
        which come before it in the signature.

        Only the neighbours of a splitter are counted.  A vertex's signature
        lists `(-j, count)` for each splitter j it has an edge into, in
        order of j (packed into one int, `count - j * base**2`); a missing
        j stands for a zero count.  These lists order as the dense count
        tuples do: up to the first j where two tuples differ the lists
        agree, and at j either both counts are listed and compare directly,
        or only the larger, positive one is, and the other list goes on
        with a smaller `-j'` or ends.  So the untouched vertices of a cell
        form the bucket `()`, first in order, taken as a mask, and a cell
        no splitter's neighbourhood meets on either side keeps its place.
        """
        g, h = self.g, self.h
        stats = self.stats
        stats.refinements += 1
        base = max(g.n, h.n) + 1  # counts (c1, c2) are packed as c1 * base + c2
        step = base * base  # larger than any packed count
        new: Sequence[int] = range(len(cells)) if splitters is None else splitters
        while True:
            live_g = live_h = 0  # the vertices of non-singleton cells
            for gm, hm in cells:
                size = gm.bit_count()
                if size != hm.bit_count():
                    stats.failed_refinements += 1
                    return None
                if size > 1:
                    live_g |= gm
                    live_h |= hm
            sigs_g: Dict[int, List[int]] = {}
            sigs_h: Dict[int, List[int]] = {}
            touched_g = touched_h = 0
            for j, ci in enumerate(new):
                cg, ch = cells[ci]
                tg = _count_into(g, cg, live_g, -j * step, base, sigs_g)
                th = _count_into(h, ch, live_h, -j * step, base, sigs_h)
                stats.splitter_counts += tg.bit_count() + th.bit_count()
                touched_g |= tg
                touched_h |= th
            next_cells: List[Cell] = []
            next_new: List[int] = []
            for gm, hm in cells:
                tg = gm & touched_g
                th = hm & touched_h
                if not (tg or th):
                    next_cells.append((gm, hm))
                    continue
                buckets: Dict[tuple, List[int]] = {}
                if gm != tg or hm != th:
                    buckets[()] = [gm ^ tg, hm ^ th]
                m = tg
                while m:
                    low = m & -m
                    key = tuple(sigs_g[low.bit_length() - 1])
                    slot = buckets.get(key)
                    if slot is None:
                        buckets[key] = [low, 0]
                    else:
                        slot[0] |= low
                    m ^= low
                m = th
                while m:
                    low = m & -m
                    key = tuple(sigs_h[low.bit_length() - 1])
                    slot = buckets.get(key)
                    if slot is None:
                        buckets[key] = [0, low]
                    else:
                        slot[1] |= low
                    m ^= low
                for bg, bh in buckets.values():
                    if bg.bit_count() != bh.bit_count():
                        stats.failed_refinements += 1
                        return None
                if len(buckets) == 1:
                    next_cells.append((gm, hm))
                    continue
                first = len(next_cells)
                next_new.extend(range(first, first + len(buckets) - 1))
                for key in sorted(buckets):
                    bg, bh = buckets[key]
                    next_cells.append((bg, bh))
            if not next_new:
                return next_cells
            cells, new = next_cells, next_new

    def _initial_cells(self) -> List[Cell]:
        return [((1 << self.g.n) - 1, (1 << self.h.n) - 1)]

    def _verify(self, mapping: List[int]) -> bool:
        self.stats.leaves += 1
        return preserves_adjacency(self.g, self.h, mapping)

    def _h_orbits(self) -> List[int]:
        """The Aut(h)-orbit of each vertex of h, as a bitset."""
        group = _stabilizer_chain(_PairSearch(self.h, self.h, self.stats))
        orbits = [0] * self.h.n
        for v in range(self.h.n):
            if not orbits[v]:
                orbit = _close_orbit(1 << v, group.generators)
                for u in iter_bits(orbit):
                    orbits[u] = orbit
        return orbits

    def _individualize(
        self, cells: List[Cell], ci: int, v: int, w: int
    ) -> Optional[List[Cell]]:
        """The equitable `cells` with v -> w split off cell ci, refined.

        The rest's counts follow from the singleton's, so the singleton is
        the only splitter.  None on a G/H mismatch.
        """
        gm, hm = cells[ci]
        trial = list(cells)
        trial[ci : ci + 1] = [(1 << v, 1 << w), (gm & ~(1 << v), hm & ~(1 << w))]
        return self._refine(trial, (ci,))

    def _descend(
        self, cells: Optional[List[Cell]], prune: bool
    ) -> Optional[Tuple[int, ...]]:
        """The first isomorphism below the equitable `cells`, or None.

        A failed refinement, None, has none.  `prune` skips every candidate
        in the Aut(h)-orbit of one that failed: if an isomorphism sent v to
        alpha(w), composing it with alpha^-1 would send v to w.  Aut(h) is
        computed at the first failed candidate, not before.
        """
        if cells is None:
            return None
        ci = _branch_cell(cells)
        if ci < 0:
            mapping = [0] * self.g.n
            for gm, hm in cells:
                mapping[gm.bit_length() - 1] = hm.bit_length() - 1
            return tuple(mapping) if self._verify(mapping) else None
        gm, hm = cells[ci]
        v = (gm & -gm).bit_length() - 1
        orbits: Optional[List[int]] = None
        failed = 0  # union of the Aut(h)-orbits of failed candidates
        for w in iter_bits(hm):
            if failed >> w & 1:
                self.stats.orbit_prunes += 1
                continue
            hit = self._descend(self._individualize(cells, ci, v, w), False)
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
        return self._descend(self._refine(self._initial_cells()), True)


def _branch_cell(cells: Sequence[Cell]) -> int:
    """Index of the first smallest non-singleton cell, or -1 if there is none."""
    branch_at = -1
    branch_size = 0
    for ci, (gm, _) in enumerate(cells):
        c = gm.bit_count()
        if c > 1 and (branch_at < 0 or c < branch_size):
            branch_at = ci
            branch_size = c
    return branch_at


def preserves_adjacency(
    g: RelColoredGraph, h: RelColoredGraph, mapping: Sequence[int]
) -> bool:
    """Whether the bijection `mapping` carries g's colored adjacencies onto h's."""
    for v in range(g.n):
        img1 = 0
        for u in iter_bits(g.adj1[v]):
            img1 |= 1 << mapping[u]
        if img1 != h.adj1[mapping[v]]:
            return False
        img2 = 0
        for u in iter_bits(g.adj2[v]):
            img2 |= 1 << mapping[u]
        if img2 != h.adj2[mapping[v]]:
            return False
    return True


def find_isomorphism(
    g: RelColoredGraph, h: RelColoredGraph
) -> Optional[Tuple[int, ...]]:
    """A rel-preserving vertex bijection g -> h, or None (exhaustive).

    The bijection is the first verified leaf in branch order.
    """
    return _PairSearch(g, h).run()


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
    m: Matroid, n: Matroid, kind: IsoStructure
) -> Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """Matroid isomorphism via graph search plus ground-map extraction.

    Returns (ground map, vertex map) or None.  The pointed game never
    sees the empty set, so when the two families differ exactly there
    (flats of an all-loop matroid versus a loop-free one) the graphs can
    agree while the matroids do not; the extraction step compares the
    full families and turns that into a clean negative.  Any other
    extraction failure is a real inconsistency and propagates.
    """
    from .structures import structure_sets

    gm = build_graph(m, kind, warn_uncovered=False)
    gn = build_graph(n, kind, warn_uncovered=False)
    mapping = find_isomorphism(gm, gn)
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

    def elements(self, cap: int = GROUP_ENUM_CAP) -> List[Tuple[int, ...]]:
        """Every group element via closure of the generators (guarded)."""
        if self.order > cap:
            raise GuardExceeded(f"group order {self.order} exceeds cap {cap}")
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
            raise GuardExceeded(
                f"generator closure gave {len(seen)} elements, chain said {self.order}"
            )
        return sorted(seen)

    def to_json(self) -> Dict[str, object]:
        return {
            "generators": [list(g) for g in self.generators],
            "order": str(self.order),
        }


def automorphism_group(g: RelColoredGraph) -> AutomorphismGroup:
    """Stabilizer chain over vertices in canonical order."""
    return _stabilizer_chain(_PairSearch(g, g))


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

    Each level keeps its equitable partition, and tests each image w of its
    base point b by individualizing b -> w on it; b -> b gives the next
    level.  As a set of cells that is the coarsest equitable partition with
    the base points so far as singletons, as refining from them would give.
    """
    g = search.g
    fixed: List[int] = []
    gens: List[Tuple[int, ...]] = []
    order = 1
    if g.n == 0:
        return AutomorphismGroup([], 1, [])
    cells = search._refine(search._initial_cells())
    while True:
        if cells is None:
            raise NotInduced("self-refinement failed; graph data is inconsistent")
        ci = _branch_cell(cells)
        if ci < 0:
            break
        gm, hm = cells[ci]
        b = (gm & -gm).bit_length() - 1
        orbit = 1 << b
        level_gens: List[Tuple[int, ...]] = []
        for w in iter_bits(hm):
            if orbit >> w & 1:
                continue
            res = search._descend(search._individualize(cells, ci, b, w), False)
            if res is not None:
                level_gens.append(res)
                orbit = _close_orbit(orbit | (1 << w), level_gens)
        order *= orbit.bit_count()
        gens.extend(level_gens)
        fixed.append(b)
        cells = search._individualize(cells, ci, b, b)
    return AutomorphismGroup(gens, order, fixed)


def disjoint_automorphism_pair(
    g: RelColoredGraph,
    group: Optional[AutomorphismGroup] = None,
    cap: int = GROUP_ENUM_CAP,
) -> Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """Two nontrivial automorphisms with disjoint moved-vertex supports.

    Scans the full group (guarded by `cap`), trying involution pairs
    first so that certificates compose to a Klein four-group when
    possible.  Returns the canonically least pair found, or None after
    an exhaustive scan.
    """
    if group is None:
        group = automorphism_group(g)
    if group.order == 1:
        return None
    elems = group.elements(cap)
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
