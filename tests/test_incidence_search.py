"""The incidence search against the line-graph engine it replaced.

`mig.relgraph` searches the set-point incidence structure of a relation
graph and branches on points; `line_engine` searches the graph's own
vertices.  The two must agree on every verdict and every group order, and
every map and generator the incidence search returns must preserve rel:
checked pair by pair with `rel` on graphs of up to `PAIRWISE_LIMIT`
vertices, and by the O(n) set/point-map check above that.
"""

import random

import pytest

import line_engine
from mig import matroid_from_bases, uniform_matroid
from mig.lbcs_construct import SignAssignment, grid_matroid, m_s_matroid
from mig.relgraph import (
    _PairSearch,
    _stabilizer_chain,
    automorphism_group,
    build_graph,
    find_isomorphism,
    preserves_adjacency,
)
from mig.structures import IsoStructure, covers
from oracles import rel

PAIRWISE_LIMIT = 300
DOUBLED_KINDS = (IsoStructure.NONBASES, IsoStructure.HYPERPLANES, IsoStructure.FLATS)


def _keeps_rel(g, h, mapping) -> bool:
    if g.n > PAIRWISE_LIMIT:
        return preserves_adjacency(g, h, mapping)
    gv, hv = g.vertices, h.vertices
    return all(
        rel(gv[i], gv[j]) == rel(hv[mapping[i]], hv[mapping[j]])
        for i in range(g.n)
        for j in range(i + 1, g.n)
    )


def _same_group(g, own: bool = False) -> int:
    """Aut(g) by both engines: the same order, generators that keep rel.
    With `own`, g's own chain rather than the group its matroid keeps."""
    group = _stabilizer_chain(_PairSearch(g, g)) if own else automorphism_group(g)
    assert group.order == line_engine.automorphism_group(g).order
    assert all(_keeps_rel(g, g, gen) for gen in group.generators)
    return group.order


def _same_verdict(g, h) -> bool:
    """g -> h by both engines: the same verdict, a map that keeps rel."""
    got = find_isomorphism(g, h)
    assert (got is None) == (line_engine.find_isomorphism(g, h) is None)
    assert got is None or _keeps_rel(g, h, got)
    return got is not None


def _covering_graphs(mats):
    return [
        (m, kind, build_graph(m, kind))
        for m in mats
        for kind in IsoStructure
        if covers(m, kind).covered
    ]


def test_matches_line_engine_on_catalogs(catalog5, catalog6):
    """Catalog n <= 5 on every covering kind, and every 25th matroid of n = 6."""
    graphs = _covering_graphs([m for n in range(6) for m in catalog5[n]])
    graphs += _covering_graphs(catalog6[::25])
    by_shape = {}
    for m, kind, g in graphs:
        _same_group(g)
        by_shape.setdefault((kind, m.n, g.n), []).append(g)
    verdicts = {True: 0, False: 0}
    for same in by_shape.values():
        for g in same[:6]:
            for h in same[:6]:
                verdicts[_same_verdict(g, h)] += 1
    assert len(graphs) > 1500
    assert verdicts[True] > 500 and verdicts[False] > 500


def test_matches_line_engine_on_paper_pair(paper_pair):
    """Aut of P on four kinds, and P vs Q on nonbases, hyperplanes and flats."""
    p, q = paper_pair
    for kind in (
        IsoStructure.NONBASES,
        IsoStructure.HYPERPLANES,
        IsoStructure.FLATS,
        IsoStructure.INDEPENDENT,
    ):
        assert _same_group(build_graph(p, kind), own=True) == 1152
    for kind in DOUBLED_KINDS:
        assert not _same_verdict(build_graph(p, kind), build_graph(q, kind))


@pytest.mark.slow
def test_matches_line_engine_on_bases_and_circuits_of_p(paper_pair):
    for kind in (IsoStructure.BASES, IsoStructure.CIRCUITS):
        assert _same_group(build_graph(paper_pair[0], kind), own=True) == 1152


def test_matches_line_engine_on_doubled_grid_relabelings():
    """Seeded sign patterns and relabelings, iso and Aut on three kinds."""
    grid = grid_matroid()
    rng = random.Random(17)
    for _ in range(3):
        negatives = [line for line in grid.cyclic_hyperplanes() if rng.random() < 0.5]
        m = m_s_matroid(grid, SignAssignment.with_negatives(grid, negatives))
        perm = list(range(m.n))
        rng.shuffle(perm)
        sm = m.relabel(perm)
        for kind in DOUBLED_KINDS:
            g, h = build_graph(m, kind), build_graph(sm, kind)
            assert _same_verdict(g, h)
            assert _same_group(h) == 1152


def test_matches_line_engine_on_a_noncovering_family(tmp_path, capsys):
    """U(2,4) plus two loops on bases: the loops have no vertex.

    The group is Sym(4) on the covered points; counting the two uncovered
    points as isolated incidence vertices would double it.  `graph aut`
    prints that group after its warning.
    """
    from mig.cli import main
    from mig.jsonio import dumps, matroid_to_json

    m = matroid_from_bases(6, uniform_matroid(2, 4).bases)
    g = build_graph(m, IsoStructure.BASES)
    assert not covers(m, IsoStructure.BASES).covered
    assert _same_group(g) == 24
    flipped = m.relabel([5, 4, 3, 2, 1, 0])
    assert _same_verdict(g, build_graph(flipped, IsoStructure.BASES))
    path = tmp_path / "m.json"
    path.write_text(dumps(matroid_to_json(m)))
    assert main(["graph", "aut", str(path), "--structure", "bases"]) == 0
    out = capsys.readouterr()
    assert '"order": "24"' in out.out and "misses element 4" in out.err
