"""Relation colored graphs, searches, automorphism groups."""

import pytest

from mig import brute_force_isomorphic, matroid_from_nonbases, uniform_matroid
from mig.matroid import brute_force_automorphism_count
from mig.relgraph import (
    RelColoredGraph,
    _PairSearch,
    automorphism_group,
    build_graph,
    disjoint_automorphism_pair,
    find_isomorphism,
    matroid_iso_from_graph_iso,
)
from mig.structures import IsoStructure, pointed_sets, rel


@pytest.fixture(scope="module")
def g_u23():
    return build_graph(uniform_matroid(2, 3), IsoStructure.BASES)


def test_u23_graph_shape(g_u23):
    assert g_u23.n == 6
    assert len(g_u23.edges(1)) == 3  # same point, different set
    assert len(g_u23.edges(2)) == 3  # same set, different point


def test_empty_graph():
    g = build_graph(uniform_matroid(2, 3), IsoStructure.NONBASES, warn_uncovered=False)
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
    gm = build_graph(m, IsoStructure.NONBASES)
    gn = build_graph(n, IsoStructure.NONBASES)
    mapping = find_isomorphism(gm, gn)
    assert mapping is not None
    ground = matroid_iso_from_graph_iso(m, n, IsoStructure.NONBASES, mapping)
    assert m.relabel(ground) == n


def test_paper_pair_search_counters(paper_pair):
    """P vs Q on the nonbasis graphs, the call `find_isomorphism` makes.

    The initial refinement leaves one 72-vertex root cell.  The first root
    candidate fails, Aut(Q) is transitive, so the other 71 are pruned; the
    unpruned search needed 1081 refinements.  Refinement evaluates 7402
    (vertex, splitter) counts, only at neighbours of each splitter; Aut(Q)
    is found on one tree, and each node of g's first path is refined once,
    every candidate refining h alone against its trace (13334 when each
    candidate refined both sides, 20074 when the chain refined every
    candidate from the unit cell).  The graphs are built here, not taken
    from `build_graph`, so that no automorphism group is already known.
    """
    kind = IsoStructure.NONBASES
    gp, gq = (RelColoredGraph(pointed_sets(m, kind)) for m in paper_pair)
    search = _PairSearch(gp, gq)
    assert search.run() is None
    assert search.stats.orbit_prunes == 71
    assert search.stats.refinements <= 100
    assert search.stats.splitter_counts == 7402
    assert find_isomorphism(gp, gq) is None


def test_search_matches_brute_force_verdicts(catalog5):
    """Graph-route vs exhaustive ground-bijection search on a slice."""
    from mig.relgraph import find_matroid_isomorphism
    from mig.structures import covers

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
    """The documented degenerate case: a loop versus a single coloop.

    Their pointed-flat graphs coincide (the empty flat has no points), so
    the raw graph search reports an isomorphism; the ground-map extraction
    catches the family mismatch and the combined verdict stays negative.
    """
    from mig import matroid_from_bases
    from mig.relgraph import find_matroid_isomorphism

    loop = matroid_from_bases(1, [[]])
    coloop = uniform_matroid(1, 1)
    kind = IsoStructure.FLATS
    g1 = build_graph(loop, kind, warn_uncovered=False)
    g2 = build_graph(coloop, kind, warn_uncovered=False)
    assert find_isomorphism(g1, g2) is not None  # the graphs really agree
    assert brute_force_isomorphic(loop, coloop) is None
    assert find_matroid_isomorphism(loop, coloop, kind) is None
    with pytest.raises(Exception):
        matroid_iso_from_graph_iso(loop, coloop, kind, (0,))


def _faithful_on(mats):
    from mig.structures import covers

    checked = 0
    for m in mats:
        truth = brute_force_automorphism_count(m)
        for kind in IsoStructure:
            if not covers(m, kind).covered:
                continue
            g = build_graph(m, kind, warn_uncovered=False)
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


def test_warns_when_not_covering():
    with pytest.warns(UserWarning):
        build_graph(uniform_matroid(2, 3), IsoStructure.NONBASES)
