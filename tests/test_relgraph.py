"""Relation colored graphs, searches, automorphism groups.

`matroid_iso_from_graph_iso` is the ground-map extraction as it was before
`find_matroid_isomorphism` read the map off the vertex map: it collects
the point map of a vertex bijection, requires it to be total and
bijective, and checks the family against it.  It is the oracle for the
ground maps that `find_matroid_isomorphism` returns.
"""

import gc
import random
import types
import weakref
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

import pytest

from mig import (
    brute_force_isomorphic,
    matroid_from_bases,
    matroid_from_nonbases,
    uniform_matroid,
)
from mig.bitset import iter_bits, mask_of
from mig.derived import tutte_polynomial
from mig.lbcs_construct import (
    WITNESS_Y,
    SignAssignment,
    disjoint_triple_matroid,
    grid_matroid,
    m_s_matroid,
    minor_obstruction_certificate,
)
from mig.matroid import Matroid
from mig.errors import InvariantViolation
from mig import catalog, relgraph
from mig.cli import main
from mig.relgraph import (
    AutomorphismGroup,
    RelColoredGraph,
    SearchStats,
    _PairSearch,
    _stabilizer_chain,
    automorphism_group,
    build_graph,
    disjoint_automorphism_pair,
    find_isomorphism,
    find_matroid_isomorphism,
    induced_map,
    preserves_adjacency,
)
from mig.structures import (
    IsoStructure,
    PointedSet,
    covers,
    pointed_sets,
    structure_sets,
)
from oracles import brute_force_automorphism_count, indexed_map, rel


class NotInduced(Exception):
    """A vertex bijection that no ground map induces."""


def matroid_iso_from_graph_iso(
    m: Matroid, n: Matroid, kind: IsoStructure, mapping: Sequence[int]
) -> Tuple[int, ...]:
    """The ground bijection phi with (A, p) -> (phi(A), phi(p)), or NotInduced."""
    vm = pointed_sets(m, kind)
    vn = pointed_sets(n, kind)
    phi: Dict[int, int] = {}
    for i, ps in enumerate(vm):
        img = vn[mapping[i]]
        prev = phi.get(ps.point)
        if prev is None:
            phi[ps.point] = img.point
        elif prev != img.point:
            raise NotInduced(f"point {ps.point} maps to both {prev} and {img.point}")
    if len(phi) != m.n or m.n != n.n:
        raise NotInduced("vertex map does not determine a total ground map")
    if sorted(phi.values()) != list(range(n.n)):
        raise NotInduced("induced ground map is not a bijection")
    out = tuple(phi[e] for e in range(m.n))
    fam_n = set(structure_sets(n, kind))
    for a in structure_sets(m, kind):
        if mask_of(out[e] for e in iter_bits(a)) not in fam_n:
            raise NotInduced(f"family member {a:#x} maps outside the family")
    if len(structure_sets(m, kind)) != len(fam_n):
        raise NotInduced("family sizes differ")
    return out


@pytest.fixture(scope="module")
def g_u23():
    return build_graph(uniform_matroid(2, 3), IsoStructure.BASES)


def test_u23_graph_shape(g_u23):
    assert g_u23.n == 6
    assert len(g_u23.edges(1)) == 3  # same point, different set
    assert len(g_u23.edges(2)) == 3  # same set, different point


def test_empty_graph():
    g = build_graph(uniform_matroid(2, 3), IsoStructure.NONBASES)
    assert g.n == 0
    assert find_isomorphism(g, g) == ()
    assert automorphism_group(g).order == 1
    assert disjoint_automorphism_pair(g) is None


def test_self_isomorphism_is_identity_first(g_u23):
    assert find_isomorphism(g_u23, g_u23) == (0, 1, 2, 3, 4, 5)
    assert len(automorphism_group(g_u23).elements()) == 6


def test_found_isos_preserve_rel(g_u23):
    vs = g_u23.vertices
    for mapping in automorphism_group(g_u23).elements():
        for i in range(g_u23.n):
            for j in range(g_u23.n):
                assert rel(vs[i], vs[j]) == rel(vs[mapping[i]], vs[mapping[j]])


def test_nontrivial_pair_found_and_extracted():
    m = matroid_from_nonbases(5, 3, [[0, 1, 4], [2, 3, 4]])
    perm = [3, 2, 1, 0, 4]
    n = m.relabel(perm)
    hit = find_matroid_isomorphism(m, n, IsoStructure.NONBASES)
    assert hit is not None
    ground, mapping = hit
    assert m.relabel(ground) == n
    assert matroid_iso_from_graph_iso(m, n, IsoStructure.NONBASES, mapping) == ground


def test_paper_pair_search_counters(paper_pair):
    """P vs Q on the nonbasis graphs, the call `find_isomorphism` makes.

    The search runs on the incidence structures of 18 points and 24 sets
    and branches on cells of 18, 8, 4 and 2 points down g's first path.
    h's first candidate refines at each depth until the fourth, where the
    refinement fails; at each depth above it the automorphisms of Q that
    fix the points chosen higher up carry the failed candidate onto every
    other (17 + 7 + 3 + 1 = 28 prunes).  That tree takes 10 refinements
    (five down g's first path, five for h) and Aut(Q) 27 refinements and 8
    leaves, so 37 refinements in all.  The line-graph engine in
    `line_engine` takes 62 refinements, 71 prunes and 7402 counts against
    2254 here.  The graphs are those of fresh copies of P and Q, so that no
    automorphism group is already known.
    """
    kind = IsoStructure.NONBASES
    gp, gq = (build_graph(Matroid(*m.key), kind) for m in paper_pair)
    search = _PairSearch(gp, gq)
    assert search.run() is None
    assert search.stats.to_json() == {
        "refinements": 37,
        "failedRefinements": 1,
        "splitterCounts": 2254,
        "orbitPrunes": 28,
        "leaves": 8,
    }
    assert find_isomorphism(gp, gq) is None


GRID_LINES = ((0, 1, 2), (3, 4, 5), (6, 7, 8), (0, 3, 6), (1, 4, 7), (2, 5, 8))

# by sign pattern: SearchStats.to_json() values (refinements, failedRefinements,
# splitterCounts, orbitPrunes, leaves) of iso on nonbases, hyperplanes and
# flats, then of the own chains of sigma M's nonbases and hyperplanes graphs;
# every iso kind searches the nonbases graphs (72 vertices), the smallest that
# covers, and hyperplanes and flats reuse the answer kept by the nonbases
# query, doing no work
PINNED_WORK = {
    13: [
        (10, 0, 626, 0, 1),
        (0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0),
        (23, 0, 1357, 0, 7),
        (18, 0, 4023, 0, 5),
    ],
    40: [
        (10, 0, 626, 0, 1),
        (0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0),
        (17, 0, 947, 0, 5),
        (19, 0, 4324, 0, 6),
    ],
    3: [
        (10, 0, 626, 0, 1),
        (0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0),
        (17, 0, 947, 0, 5),
        (19, 0, 4324, 0, 6),
    ],
}


def test_search_work_pinned_on_doubled_grid_relabelings():
    """The search counts of iso M -> sigma M and of the stabilizer chains of
    sigma M's nonbases and hyperplanes graphs, each on its own graph.

    M is the doubled grid under a seeded sign pattern (bit i: grid line i
    carries sign -1) and sigma a seeded relabelling.  The refinement may
    change how it finds a partition but not the work the search does.
    """
    rng = random.Random(14)
    grid = grid_matroid()
    kinds = (IsoStructure.NONBASES, IsoStructure.HYPERPLANES, IsoStructure.FLATS)
    got = {}
    for _ in range(3):
        pattern = rng.randrange(1 << len(GRID_LINES))
        negatives = [line for i, line in enumerate(GRID_LINES) if pattern >> i & 1]
        m = m_s_matroid(grid, SignAssignment.with_negatives(grid, negatives))
        perm = list(range(m.n))
        rng.shuffle(perm)
        sm = m.relabel(perm)
        work = got[pattern] = []
        for kind in kinds:
            stats = SearchStats()
            assert find_matroid_isomorphism(m, sm, kind, stats) is not None
            work.append(tuple(stats.to_json().values()))
        for kind in kinds[:2]:
            stats = SearchStats()
            graph = build_graph(sm, kind)
            assert _stabilizer_chain(_PairSearch(graph, graph, stats)).order == 1152
            work.append(tuple(stats.to_json().values()))
    assert got == PINNED_WORK


def test_automorphism_group_on_large_graphs_of_p(paper_pair):
    """The own chains of P's bases (2376 vertices) and circuits (10 872) graphs.

    Their incidence structures have 810 and 2742 vertices, and branching on
    the 18 points never meets a failing candidate.  The line-graph engine
    in `line_engine` refines 453 times on the bases graph, 429 of them
    failing.
    """
    work = {}
    for kind in (IsoStructure.BASES, IsoStructure.CIRCUITS):
        g = build_graph(paper_pair[0], kind)
        stats = SearchStats()
        group = _stabilizer_chain(_PairSearch(g, g, stats))
        assert group.order == 1152
        assert all(preserves_adjacency(g, g, gen) for gen in group.generators)
        work[g.n] = stats.refinements, stats.failed_refinements
    assert work == {2376: (23, 0), 10872: (27, 0)}


def incidence_perm(g: RelColoredGraph, vertex_perm: Sequence[int]) -> List[int]:
    """The incidence permutation of an automorphism of g: the point node and
    the row node of each vertex go to those of its image."""
    npts, at = g.npts, g.at
    out = [0] * g.size
    for v, w in enumerate(vertex_perm):
        out[at[g.point_of[v]]] = at[g.point_of[w]]
        out[npts + g.row_of[v]] = npts + g.row_of[w]
    return out


def _check_strong_generators(g: RelColoredGraph) -> None:
    """At most floor(log2 |G|) generators, and they generate every level.

    The base b_0, b_1, ... is read off g's first path, so the group is that
    of g's own chain.  Over its levels, the orbit of b_k under the
    generators that fix b_0 .. b_{k-1} must multiply up to the group order.
    The incidence permutations that the group keeps are those of its
    vertex generators.
    """
    group = _stabilizer_chain(_PairSearch(g, g))
    assert len(group.generators) <= group.order.bit_length() - 1
    assert all(preserves_adjacency(g, g, gen) for gen in group.generators)
    search = _PairSearch(g, g)
    perms = [incidence_perm(g, gen) for gen in group.generators]
    assert perms == group.perms
    fixed = []
    product = 1
    depth = 0
    while g.n and search._node(depth)[2] >= 0:
        part, _, s = search._node(depth)
        cell = part[0][s]
        base = (cell & -cell).bit_length() - 1
        level = [p for p in perms if all(p[b] == b for b in fixed)]
        orbit, frontier = {base}, [base]
        while frontier:
            x = frontier.pop()
            for p in level:
                if p[x] not in orbit:
                    orbit.add(p[x])
                    frontier.append(p[x])
        product *= len(orbit)
        fixed.append(base)
        depth += 1
    assert product == group.order


def test_chain_generators_are_few_and_strong(catalog5, catalog6, paper_pair):
    """Each generator of the chain lies outside the group of those before it.

    The covering-kind graphs of every matroid on at most five elements,
    of every 25th on six, all six kinds of P and Q, and three seeded
    relabellings of the doubled grid.
    """
    mats = [m for n in sorted(catalog5) for m in catalog5[n]] + list(catalog6[::25])
    graphs = [
        build_graph(m, kind)
        for m in mats
        for kind in IsoStructure
        if covers(m, kind).covered
    ]
    graphs += [build_graph(m, kind) for m in paper_pair for kind in IsoStructure]
    rng = random.Random(20)
    grid = grid_matroid()
    for _ in range(3):
        pattern = rng.randrange(1 << len(GRID_LINES))
        negatives = [line for i, line in enumerate(GRID_LINES) if pattern >> i & 1]
        m = m_s_matroid(grid, SignAssignment.with_negatives(grid, negatives))
        perm = list(range(m.n))
        rng.shuffle(perm)
        sm = m.relabel(perm)
        graphs += [build_graph(sm, kind) for kind in IsoStructure]
    for g in graphs:
        _check_strong_generators(g)
    orders = [automorphism_group(g).order for g in graphs[-18:]]
    assert orders == [1152] * 18


def _ground_group(group: AutomorphismGroup, n: int) -> AutomorphismGroup:
    """The group's generators read as permutations of the n ground elements."""
    return AutomorphismGroup([tuple(p[:n]) for p in group.perms], group.order, [], None)


def _assert_lift_matches_own_chain(m: Matroid, kind: IsoStructure, by_elements: bool):
    """Aut of m's graph of `kind` is the group its own chain finds.

    With `by_elements` the two groups are compared as sets of vertex
    permutations.  Otherwise, for graphs too large to list, every
    generator of both must be the vertex map its ground permutation
    induces; the ground map is then a faithful homomorphism onto each
    group, so they agree when the ground groups do.
    """
    g = build_graph(m, kind)
    got, want = automorphism_group(g), _stabilizer_chain(_PairSearch(g, g))
    assert got.order == want.order, (m.key, kind)
    assert len(got.generators) <= max(got.order.bit_length() - 1, 0)
    if by_elements:
        assert got.elements() == want.elements(), (m.key, kind)
        return
    for group in (got, want):
        for gen, perm in zip(group.generators, group.perms):
            assert induced_map(m, m, kind, perm[: m.n]) == gen
    assert _ground_group(got, m.n).elements() == _ground_group(want, m.n).elements()


def test_lifted_group_matches_own_chain(catalog5, catalog6, paper_pair):
    """Every covering kind of the catalogs n <= 5 and of every 25th matroid at
    n = 6, as sets of vertex permutations, and all six kinds of P and Q."""
    mats = [m for n in sorted(catalog5) for m in catalog5[n]] + list(catalog6[::25])
    sources = set()
    for m in mats:
        for kind in IsoStructure:
            if covers(m, kind).covered:
                _assert_lift_matches_own_chain(m, kind, True)
                sources.add((kind, automorphism_group(build_graph(m, kind)).structure))
    # every kind has been lifted from the bases and from the nonbases graph
    lifted = {(k, s) for k, s in sources if k is not s}
    assert {s for _, s in lifted} == {IsoStructure.BASES, IsoStructure.NONBASES}
    assert {k for k, _ in lifted} == set(IsoStructure)
    for m in paper_pair:
        for kind in IsoStructure:
            _assert_lift_matches_own_chain(m, kind, False)
            assert automorphism_group(build_graph(m, kind)).structure is (
                IsoStructure.NONBASES
            )


def test_lifted_generators_do_not_depend_on_earlier_queries(paper_pair):
    """Aut of P's hyperplanes graph, alone, after the nonbases group, and on
    a fresh copy of P: the same generators each time."""
    key = paper_pair[0].key
    alone = Matroid(*key)
    first = automorphism_group(build_graph(alone, IsoStructure.HYPERPLANES))
    after = Matroid(*key)
    automorphism_group(build_graph(after, IsoStructure.NONBASES))
    second = automorphism_group(build_graph(after, IsoStructure.HYPERPLANES))
    fresh = automorphism_group(build_graph(Matroid(*key), IsoStructure.HYPERPLANES))
    assert first.generators == second.generators == fresh.generators
    assert first.perms == second.perms == fresh.perms
    assert first.order == 1152 and first.structure is IsoStructure.NONBASES


def test_hand_built_and_noncovering_graphs_keep_their_own_chain():
    """A graph of a kind that misses an element of its matroid is its own
    chain's source: its generators and counts are its own chain's, and the
    matroid keeps that group.  Every graph is some matroid's graph of some
    kind, so no other graph runs a chain of its own."""
    looped = matroid_from_bases(6, uniform_matroid(2, 4).bases)
    g = build_graph(looped, IsoStructure.BASES)
    stats = SearchStats()
    got = automorphism_group(g, stats)
    search = _PairSearch(g, g)
    want = _stabilizer_chain(search)
    assert got.generators == want.generators and got.order == want.order
    assert stats.to_json() == search.stats.to_json() and stats.refinements > 0
    assert got.structure is IsoStructure.BASES
    assert looped._cache["aut", IsoStructure.BASES] is got


def _reachable(root: object) -> List[object]:
    """The objects reachable from `root` through references, types and
    modules left out (every instance refers to its class)."""
    seen, todo, out = set(), [root], []
    while todo:
        x = todo.pop()
        if id(x) in seen or isinstance(x, (type, types.ModuleType)):
            continue
        seen.add(id(x))
        out.append(x)
        todo.extend(gc.get_referents(x))
    return out


def test_matroid_cache_holds_no_graph():
    """After iso and Aut queries on every kind, nothing that m keeps is a
    graph, so the graphs' references to m form no cycle: once they are
    dropped, m is freed without the garbage collector."""
    m = matroid_from_nonbases(5, 3, [[0, 1, 4], [2, 3, 4]])
    n = m.relabel([3, 2, 1, 0, 4])
    graphs = []
    for kind in IsoStructure:
        if not covers(m, kind).covered:
            continue
        assert find_matroid_isomorphism(m, n, kind) is not None
        graphs.append(build_graph(m, kind))
        assert automorphism_group(graphs[-1]).order == 8
    assert {k[0] for k in m._cache if isinstance(k, tuple)} >= {"aut", "iso", "search"}
    assert not any(isinstance(x, RelColoredGraph) for x in _reachable(m._cache))
    assert all(g.matroid is m for g in graphs)
    gone = weakref.ref(m)
    gc.disable()
    try:
        del m
        assert gone() is not None  # the graphs still point at it
        del graphs
        assert gone() is None
    finally:
        gc.enable()


def test_corrupted_source_generator_is_refused(paper_pair):
    """A source generator that is no automorphism fails its lift."""
    p = Matroid(*paper_pair[0].key)
    group = automorphism_group(build_graph(p, IsoStructure.NONBASES))
    hyperplanes = set(structure_sets(p, IsoStructure.HYPERPLANES))
    for e in range(1, p.n):  # a transposition (0 e) that moves a hyperplane off
        swap = list(range(p.n))
        swap[0], swap[e] = e, 0
        if {mask_of(swap[x] for x in iter_bits(a)) for a in hyperplanes} != hyperplanes:
            break
    group.perms[0][: p.n] = swap
    with pytest.raises(InvariantViolation):
        automorphism_group(build_graph(p, IsoStructure.HYPERPLANES))
    with pytest.raises(InvariantViolation):
        induced_map(p, p, IsoStructure.HYPERPLANES, swap)


def test_search_matches_brute_force_verdicts(catalog5):
    """Graph-route vs exhaustive ground-bijection search on a slice."""
    mats = catalog5[4][::6]
    kinds = list(IsoStructure)
    compared = 0
    for m in mats:
        for n in mats:
            truth = brute_force_isomorphic(m, n) is not None
            for kind in kinds:
                if not (covers(m, kind).covered and covers(n, kind).covered):
                    continue
                got = find_matroid_isomorphism(m, n, kind) is not None
                assert got == truth, (m, n, kind)
                compared += 1
    assert compared > 100


def test_flats_game_blind_spot():
    """The pointed game's blind spot: a loop versus a single coloop.

    Both flat families cover and their pointed-flat graphs coincide (the
    empty flat has no points), so the raw graph search reports an
    isomorphism; only the coloop's family holds the empty set.  The ranks
    differ, so `find_matroid_isomorphism` answers None before any search
    (`structure` stays None).  A ground map read off the graph map does not
    carry the family across, and the extraction oracle refuses it.
    """
    loop = matroid_from_bases(1, [[]])
    coloop = uniform_matroid(1, 1)
    kind = IsoStructure.FLATS
    g1 = build_graph(loop, kind)
    g2 = build_graph(coloop, kind)
    assert find_isomorphism(g1, g2) is not None  # the graphs really agree
    assert brute_force_isomorphic(loop, coloop) is None
    stats = SearchStats()
    assert find_matroid_isomorphism(loop, coloop, kind, stats) is None
    assert (stats.refinements, stats.structure) == (0, None)
    with pytest.raises(NotInduced):
        matroid_iso_from_graph_iso(loop, coloop, kind, (0,))


def _check_ground_map_pair(m: Matroid, n: Matroid, kinds=tuple(IsoStructure)) -> int:
    """Isomorphic m and n on each kind of `kinds` that covers both: the ground
    map is the oracle's, it induces the vertex map returned, and kinds that
    search the same graphs (`SearchStats.structure`) return the same ground
    map.  Returns the number of kinds checked.
    """
    by_searched: Dict[IsoStructure, Tuple[int, ...]] = {}
    checked = 0
    for kind in kinds:
        if not (covers(m, kind).covered and covers(n, kind).covered):
            continue
        stats = SearchStats()
        hit = find_matroid_isomorphism(m, n, kind, stats)
        assert hit is not None, (m.key, n.key, kind)
        ground, mapping = hit
        assert matroid_iso_from_graph_iso(m, n, kind, mapping) == ground
        g, h = build_graph(m, kind), build_graph(n, kind)
        assert indexed_map(g, h, ground) == mapping
        searched = by_searched.setdefault(stats.structure, ground)
        assert searched == ground, (m.key, n.key, kind)
        checked += 1
    return checked


def _check_ground_maps(mats) -> int:
    """`_check_ground_map_pair` on each isomorphic pair of `mats`.

    Isomorphic matroids share their Tutte polynomial, so pairs are drawn
    within its classes; up to n = 5 each class is one isomorphism class.
    Returns the number of (pair, kind) cases checked.
    """
    classes: Dict[object, list] = {}
    for m in mats:
        classes.setdefault(tutte_polynomial(m), []).append(m)
    return sum(
        _check_ground_map_pair(m, n)
        for cls in classes.values()
        for m in cls
        for n in cls
    )


def test_ground_maps_match_extraction_oracle(catalog5):
    assert sum(_check_ground_maps(catalog5[n]) for n in range(5)) == 1464


@pytest.mark.slow
def test_ground_maps_match_extraction_oracle_on_five(catalog5):
    assert _check_ground_maps(catalog5[5]) == 27275


def test_restriction_witness_matches_extraction_oracle(paper_pair):
    p, q = paper_pair
    kind = IsoStructure.NONBASES
    qy, target = q.restrict(mask_of(WITNESS_Y)), disjoint_triple_matroid()
    mapping = find_isomorphism(build_graph(qy, kind), build_graph(target, kind))
    ground = matroid_iso_from_graph_iso(qy, target, kind, mapping)
    witness = minor_obstruction_certificate(p, q)["restrictionWitness"]
    assert witness["iso"] == list(ground)
    assert qy.relabel(ground) == target


def test_doubled_grid_ground_maps_match_extraction_oracle():
    """Seeded relabelings of two doubled grids, on three kinds each."""
    grid = grid_matroid()
    rng = random.Random(5)
    kinds = (IsoStructure.NONBASES, IsoStructure.HYPERPLANES, IsoStructure.FLATS)
    for negatives in ([(0, 1, 2), (0, 3, 6)], [(2, 5, 8)]):
        m = m_s_matroid(grid, SignAssignment.with_negatives(grid, negatives))
        perm = list(range(m.n))
        rng.shuffle(perm)
        sm = m.relabel(perm)
        assert _check_ground_map_pair(m, sm, kinds) == 3
        assert m.relabel(find_matroid_isomorphism(m, sm, kinds[1])[0]) == sm


def test_kinds_of_p_share_the_nonbases_ground_map(paper_pair):
    """P against a seeded relabelling of itself: every kind covers P, each
    searches the nonbases graphs, and all return the same ground map."""
    p = paper_pair[0]
    perm = list(range(p.n))
    random.Random(23).shuffle(perm)
    sp = p.relabel(perm)
    kinds = {automorphism_group(build_graph(p, k)).structure for k in IsoStructure}
    assert kinds == {IsoStructure.NONBASES}
    assert _check_ground_map_pair(p, sp) == len(IsoStructure)


def test_second_matroid_outside_the_searched_kind():
    """m's flats search its nonbases graph, which n's nonbases do not cover.

    m is a triangle beside the loop 3, n a coloop beside three parallel
    elements: the same size, rank and number of bases, and both flat
    families cover, but n's nonbases miss the coloop 0, so there is no
    isomorphism and no search.
    """
    m = matroid_from_bases(4, [[0, 1], [0, 2], [1, 2]])  # masks 3, 5, 6
    n = matroid_from_bases(4, [[0, 1], [0, 2], [0, 3]])  # masks 3, 5, 9
    kind = IsoStructure.FLATS
    assert (m.n, m.rank, len(m.bases)) == (n.n, n.rank, len(n.bases))
    assert covers(m, kind).covered and covers(n, kind).covered
    assert automorphism_group(build_graph(m, kind)).structure is IsoStructure.NONBASES
    assert not covers(n, IsoStructure.NONBASES).covered
    stats = SearchStats()
    assert find_matroid_isomorphism(m, n, kind, stats) is None
    assert (stats.refinements, stats.structure) == (0, None)
    assert brute_force_isomorphic(m, n) is None


def test_differing_counts_answer_before_any_other_family():
    """Size, rank and number of bases decide before n's families are read.

    m, two parallel pairs, searches its nonbases graph (4 vertices against
    8 for its bases).  n is loop-free of rank 10 on 20 elements, with 11
    bases: a basis and the ten elements parallel to its element 0.  Its
    nonbases would be the other C(20, 10) - 11 ten-subsets; they are never
    enumerated, and neither are n's bases graph nor its covering.
    """
    m = matroid_from_bases(4, [[0, 2], [1, 2], [0, 3], [1, 3]])
    basis = list(range(10))
    n = matroid_from_bases(20, [basis] + [[e] + basis[1:] for e in range(10, 20)])
    kind = IsoStructure.BASES
    assert automorphism_group(build_graph(m, kind)).structure is IsoStructure.NONBASES
    assert covers(n, kind).covered
    before = set(n._cache)
    stats = SearchStats()
    assert find_matroid_isomorphism(m, n, kind, stats) is None
    assert (stats.refinements, stats.structure) == (0, None)
    assert set(n._cache) == before
    # on flats against a coloop beside three parallel elements: 4 bases to 3
    n3 = matroid_from_bases(4, [[0, 1], [0, 2], [0, 3]])
    assert find_matroid_isomorphism(m, n3, IsoStructure.FLATS) is None
    assert brute_force_isomorphic(m, n3) is None


P_VS_Q_WORK = (37, 1, 2254, 28, 8)  # `test_paper_pair_search_counters`


def test_p_vs_q_is_searched_once_for_every_kind(paper_pair):
    """Every kind of P vs Q searches the nonbases graphs, whose answer P
    keeps: the first query does the whole search, every later one no work,
    and each names the kind searched."""
    p, q = (Matroid(*m.key) for m in paper_pair)
    work = []
    for kind in IsoStructure:
        stats = SearchStats()
        assert find_matroid_isomorphism(p, q, kind, stats) is None
        assert stats.structure is IsoStructure.NONBASES
        work.append(tuple(stats.to_json().values()))
    assert work == [P_VS_Q_WORK] + [(0, 0, 0, 0, 0)] * (len(IsoStructure) - 1)


def _count_graphs_and_searches(monkeypatch) -> Dict[str, int]:
    """Counts, from now on, of graph constructions and graph searches."""
    counts = {"graphs": 0, "searches": 0}
    init, search = RelColoredGraph.__init__, relgraph.find_isomorphism

    def counted_init(self, *args):
        counts["graphs"] += 1
        init(self, *args)

    def counted_search(*args):
        counts["searches"] += 1
        return search(*args)

    monkeypatch.setattr(RelColoredGraph, "__init__", counted_init)
    monkeypatch.setattr(relgraph, "find_isomorphism", counted_search)
    return counts


def test_graph_builds_of_a_relabelling_round(monkeypatch):
    """Ten doubled grids M against seeded relabellings sigma M, asked as a
    `relabel_search` round asks: iso on nonbases, hyperplanes and flats,
    then Aut of sigma M's nonbases and hyperplanes graphs.  Four builds
    per pair: the nonbases query searches the two nonbases graphs, and
    each Aut query builds the one graph it asks about.  The hyperplanes
    and flats queries map the kept answer across the families, and the
    hyperplanes group is lifted from the nonbases group that sigma M
    keeps; neither builds a graph."""
    rng = random.Random(7)
    grid = grid_matroid()
    pairs = []
    for _ in range(10):
        pattern = rng.randrange(1 << len(GRID_LINES))
        negatives = [line for i, line in enumerate(GRID_LINES) if pattern >> i & 1]
        m = m_s_matroid(grid, SignAssignment.with_negatives(grid, negatives))
        perm = list(range(m.n))
        rng.shuffle(perm)
        pairs.append((m, m.relabel(perm)))
    counts = _count_graphs_and_searches(monkeypatch)
    for m, sm in pairs:
        for kind in (IsoStructure.NONBASES, IsoStructure.HYPERPLANES, IsoStructure.FLATS):
            assert find_matroid_isomorphism(m, sm, kind) is not None
        for kind in (IsoStructure.NONBASES, IsoStructure.HYPERPLANES):
            assert automorphism_group(build_graph(sm, kind)).order == 1152
    assert counts == {"graphs": 40, "searches": 10}


def test_graph_builds_of_paper_pair_verify_all(monkeypatch, capsys):
    """One `mig paper-pair --verify-all` on a fresh catalog, whose matroids
    keep no answer yet: 75 searches and 159 graph constructions.  Each
    search builds its two graphs (150); the rest are P's and Q's nonbases
    graphs for the strategy and for its sync check (4), for the Aut orders
    of the shared invariants (2), and the three graphs of the
    noncommutativity certificates.  Vertex maps are read off the
    families and build none."""
    fresh = lru_cache(maxsize=None)(catalog.all_matroids.__wrapped__)
    monkeypatch.setattr(catalog, "all_matroids", fresh)
    counts = _count_graphs_and_searches(monkeypatch)
    assert main(["paper-pair", "--verify-all"]) == 0
    capsys.readouterr()
    assert counts == {"graphs": 159, "searches": 75}


def test_kept_answers_equal_fresh_queries_on_p(paper_pair):
    """P against a seeded relabelling, every kind asked of the same two
    objects, returns what the query returns on fresh copies."""
    p = Matroid(*paper_pair[0].key)
    perm = list(range(p.n))
    random.Random(31).shuffle(perm)
    sp = p.relabel(perm)
    for kind in IsoStructure:
        fresh = find_matroid_isomorphism(Matroid(*p.key), Matroid(*sp.key), kind)
        assert fresh is not None
        assert find_matroid_isomorphism(p, sp, kind) == fresh, kind
    kept = [k for k in p._cache if isinstance(k, tuple) and k[0] == "iso"]
    assert kept == [("iso", IsoStructure.NONBASES, sp.key)]


def test_kept_answers_are_keyed_by_the_searched_kind():
    """Kinds that search different graphs keep different answers.

    For this rank-3 matroid on 7 elements and a relabelling, the nonbases
    search finds another ground map than the circuits, flats and
    hyperplanes searches do.  Asked on the same objects, nonbases first,
    each kind still returns its own search's map, as on fresh copies: the
    first kind asked does not decide the maps of later kinds.
    """
    bases = (7, 11, 13, 35, 37, 38, 42, 44, 67, 69, 70, 73, 74, 76, 97, 100, 104)
    m = Matroid(7, 3, bases)
    n = m.relabel([4, 0, 2, 3, 5, 6, 1])
    kinds = (IsoStructure.NONBASES, IsoStructure.CIRCUITS, IsoStructure.FLATS)
    grounds = []
    for kind in kinds:
        stats = SearchStats()
        hit = find_matroid_isomorphism(m, n, kind, stats)
        assert stats.structure is kind
        assert hit == find_matroid_isomorphism(Matroid(*m.key), Matroid(*n.key), kind)
        grounds.append(hit[0])
    assert grounds[0] != grounds[1] == grounds[2]
    assert all(m.relabel(ground) == n for ground in grounds)


def test_kept_answers_hold_no_reference_to_either_matroid():
    """m keeps its answers for n and for itself under their keys, not the
    matroids: n, then m, are freed without the garbage collector, and a
    copy of n asked later gets the kept answer with no search."""
    m = matroid_from_nonbases(5, 3, [[0, 1, 4], [2, 3, 4]])
    n = m.relabel([3, 2, 1, 0, 4])
    kind = IsoStructure.FLATS
    hit = find_matroid_isomorphism(m, n, kind)
    assert hit is not None
    assert find_matroid_isomorphism(m, m, kind) is not None
    key, kept = n.key, [k for k in m._cache if isinstance(k, tuple) and k[0] == "iso"]
    assert {k[2] for k in kept} == {m.key, n.key}
    gone_m, gone_n = weakref.ref(m), weakref.ref(n)
    gc.disable()
    try:
        del n
        assert gone_n() is None
        stats = SearchStats()
        assert find_matroid_isomorphism(m, Matroid(*key), kind, stats) == hit
        assert stats.refinements == 0
        del m
        assert gone_m() is None
    finally:
        gc.enable()


def test_kept_answer_is_checked_on_every_query():
    """A kept ground map is checked again on each query.  Corrupted into a
    map that swaps two images and so moves the nonbasis {0, 1, 4} off the
    family, it is refused by the family check on nonbases and on flats,
    which search the nonbases too; corrupted into a map that is no
    bijection, by the bijection check."""
    m = matroid_from_nonbases(5, 3, [[0, 1, 4], [2, 3, 4]])
    n = m.relabel([3, 2, 1, 0, 4])
    stats = SearchStats()
    ground, _ = find_matroid_isomorphism(m, n, IsoStructure.FLATS, stats)
    assert stats.structure is IsoStructure.NONBASES
    key = ("iso", IsoStructure.NONBASES, n.key)
    swapped = list(ground)
    swapped[0], swapped[2] = swapped[2], swapped[0]
    m._cache[key] = tuple(swapped)
    for kind in (IsoStructure.NONBASES, IsoStructure.FLATS):
        with pytest.raises(InvariantViolation, match="does not carry"):
            find_matroid_isomorphism(m, n, kind)
    m._cache[key] = (ground[0],) * m.n
    with pytest.raises(InvariantViolation, match="not a bijection"):
        find_matroid_isomorphism(m, n, IsoStructure.FLATS)


def test_induced_map_refuses_an_image_inside_a_larger_family():
    """U(2,4) less the basis {2, 3} keeps five of U(2,4)'s six bases.  The
    identity carries each of the five onto a basis of U(2,4), and the size
    check refuses it; the other way round, {2, 3} has no image."""
    m = matroid_from_bases(4, [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3]])
    n = uniform_matroid(2, 4)
    kind = IsoStructure.BASES
    assert set(structure_sets(m, kind)) < set(structure_sets(n, kind))
    for a, b in ((m, n), (n, m)):
        with pytest.raises(InvariantViolation, match="not carry the bases family"):
            induced_map(a, b, kind, range(4))


def test_induced_map_on_families_that_hold_the_empty_set(catalog5, paper_pair):
    """The independents, and the flats of a loopless matroid, hold the empty
    set, which has no vertex and no row of the graph.  Against seeded
    relabellings of the catalogs n <= 4 and of P, the map of those kinds
    is the one read vertex by vertex off freshly built graphs."""
    rng = random.Random(5)
    mats = [m for size in range(5) for m in catalog5[size]] + [paper_pair[0]]
    holding = 0
    for m in mats:
        perm = list(range(m.n))
        rng.shuffle(perm)
        n = m.relabel(perm)
        for kind in (IsoStructure.INDEPENDENT, IsoStructure.FLATS):
            holding += 0 in structure_sets(m, kind)
            g, h = build_graph(m, kind), build_graph(n, kind)
            assert induced_map(m, n, kind, perm) == indexed_map(g, h, perm)
    assert holding > len(mats)


def test_kept_answers_match_fresh_queries_on_small_catalogs(catalog5):
    """Every ordered pair of the catalogs n <= 4, asked every kind that
    covers both in `IsoStructure` order on the same objects, gets on each
    kind the answer of the query on fresh copies."""
    shared = [Matroid(*m.key) for n in range(5) for m in catalog5[n]]
    compared = 0
    for m in shared:
        for n in shared:
            for kind in IsoStructure:
                if not (covers(m, kind).covered and covers(n, kind).covered):
                    continue
                fresh = find_matroid_isomorphism(
                    Matroid(*m.key), Matroid(*n.key), kind
                )
                assert find_matroid_isomorphism(m, n, kind) == fresh
                compared += 1
    assert compared > 3000


def test_index_of_is_lazy_and_inverts_vertices(catalog5, paper_pair):
    """The index is computed when asked, from the row's start and the point's
    rank in the row, with no table kept on the graph; it inverts the
    vertices of every kind of the catalogs n <= 4 and of P, and a pointed
    set that is no vertex is a KeyError."""
    cases = [(m, kind) for n in range(5) for m in catalog5[n] for kind in IsoStructure]
    for m, kind in cases + [(m, kind) for m in paper_pair for kind in IsoStructure]:
        g = build_graph(m, kind)
        assert [g.index_of(v) for v in g.vertices] == list(range(g.n)), (m.key, kind)
    g = build_graph(paper_pair[0], IsoStructure.NONBASES)
    assert all(len(x) < g.n for x in vars(g).values() if isinstance(x, dict))
    a, p = g.vertices[0]
    outside = next(e for e in range(paper_pair[0].n) if not a >> e & 1)
    for v in (
        (0b1, 0),  # a rank-3 matroid has no one-element nonbasis
        (a, outside),  # a nonbasis and a covered point not in it
        (a, paper_pair[0].n),  # a point beyond the ground set
        (a, -1),  # no point is negative
    ):
        with pytest.raises(KeyError):
            g.index_of(PointedSet(*v))


def test_rel_table_matches_pairwise_rel(catalog5, paper_pair):
    """The matrix that the checker and the export read is rel, pair by pair."""
    cases = [(m, kind) for n in range(5) for m in catalog5[n] for kind in IsoStructure]
    for m, kind in cases + [(m, IsoStructure.NONBASES) for m in paper_pair]:
        g = build_graph(m, kind)
        want = [[rel(a, b) for b in g.vertices] for a in g.vertices]
        assert g.rel_table().tolist() == want, (m.key, kind)


def _faithful_on(mats):
    checked = 0
    for m in mats:
        truth = brute_force_automorphism_count(m)
        for kind in IsoStructure:
            if not covers(m, kind).covered:
                continue
            g = build_graph(m, kind)
            assert automorphism_group(g).order == truth, (m.key, kind)
            checked += 1
    return checked


def test_automorphism_group_faithful(catalog5, catalog6):
    """Graph group order equals the ground automorphism count (covering kinds)."""
    checked = 0
    for n in range(6):
        checked += _faithful_on(catalog5[n])
    checked += _faithful_on(catalog6[::25])
    assert checked > 1500


@pytest.mark.slow
def test_automorphism_group_faithful_on_six(catalog6):
    assert _faithful_on(catalog6) > 10_000


def test_automorphism_group_u23(g_u23):
    grp = automorphism_group(g_u23)
    assert grp.order == 6
    assert len(grp.elements()) == 6
    assert disjoint_automorphism_pair(g_u23) is None


def test_group_json(g_u23):
    data = automorphism_group(g_u23).to_json()
    assert data["order"] == "6"
    assert all(sorted(g) == list(range(6)) for g in data["generators"])


def test_disjoint_pair_on_two_line_matroid():
    m = matroid_from_nonbases(5, 3, [[0, 1, 4], [2, 3, 4]])
    g = build_graph(m, IsoStructure.NONBASES)
    pair = disjoint_automorphism_pair(g)
    assert pair is not None
    p1, p2 = pair
    moved1 = {v for v in range(g.n) if p1[v] != v}
    moved2 = {v for v in range(g.n) if p2[v] != v}
    assert moved1 and moved2 and not moved1 & moved2
    # disjoint supports commute; involution pairs span a Klein four-group
    comp = tuple(p1[p2[v]] for v in range(g.n))
    assert comp == tuple(p2[p1[v]] for v in range(g.n))
    assert all(p1[p1[v]] == v for v in range(g.n))
    assert all(p2[p2[v]] == v for v in range(g.n))
    assert len({tuple(range(g.n)), p1, p2, comp}) == 4


def test_determinism(g_u23):
    runs = [automorphism_group(g_u23).elements() for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]
    g2 = build_graph(uniform_matroid(2, 3), IsoStructure.BASES)
    assert find_isomorphism(g_u23, g2) == find_isomorphism(g_u23, g2)
