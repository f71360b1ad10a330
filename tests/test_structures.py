"""Structure families, pointed sets, covering, and the rel oracle."""

import pytest

from mig import matroid_from_nonbases, uniform_matroid
from mig.bitset import elements_of
from mig.errors import NotCovering, UnsupportedKind
from mig.structures import (
    IsoStructure,
    PointedSet,
    _covered_by_characterization,
    covers,
    pointed_sets,
    require_covering,
    structure_sets,
)
from oracles import rel

ALL_KINDS = list(IsoStructure)


def test_structure_sets_u23():
    u23 = uniform_matroid(2, 3)
    assert [elements_of(a) for a in structure_sets(u23, IsoStructure.BASES)] == [
        [0, 1],
        [0, 2],
        [1, 2],
    ]
    assert structure_sets(u23, IsoStructure.NONBASES) == ()
    assert [elements_of(a) for a in structure_sets(u23, IsoStructure.FLATS)] == [
        [],
        [0],
        [1],
        [2],
        [0, 1, 2],
    ]
    assert len(structure_sets(u23, IsoStructure.INDEPENDENT)) == 7


def test_grid_matroid_hyperplanes():
    grid = matroid_from_nonbases(
        9, 3, [[0, 1, 2], [3, 4, 5], [6, 7, 8], [0, 3, 6], [1, 4, 7], [2, 5, 8]]
    )
    fam = structure_sets(grid, IsoStructure.HYPERPLANES)
    triples = [elements_of(h) for h in fam if h.bit_count() == 3]
    assert sorted(triples) == sorted(
        [[0, 1, 2], [3, 4, 5], [6, 7, 8], [0, 3, 6], [1, 4, 7], [2, 5, 8]]
    )
    assert sum(1 for h in fam if h.bit_count() == 2) == 18


def test_pointed_sets_order_and_count(paper_pair):
    u23 = uniform_matroid(2, 3)
    ps = pointed_sets(u23, IsoStructure.BASES)
    assert [p.to_json() for p in ps] == [
        {"set": [0, 1], "point": 0},
        {"set": [0, 1], "point": 1},
        {"set": [0, 2], "point": 0},
        {"set": [0, 2], "point": 2},
        {"set": [1, 2], "point": 1},
        {"set": [1, 2], "point": 2},
    ]
    p, _ = paper_pair
    assert len(pointed_sets(p, IsoStructure.NONBASES)) == 72
    assert pointed_sets(uniform_matroid(2, 3), IsoStructure.NONBASES) == ()


def test_pointed_count_matches_member_sizes(catalog5):
    for m in catalog5[4][::3]:
        for kind in ALL_KINDS:
            fam = structure_sets(m, kind)
            assert len(pointed_sets(m, kind)) == sum(a.bit_count() for a in fam)


def test_rel_values():
    a = PointedSet(0b011, 0)
    assert rel(a, a) == 0
    assert rel(a, PointedSet(0b101, 0)) == 1
    assert rel(a, PointedSet(0b011, 1)) == 2
    assert rel(a, PointedSet(0b110, 2)) == 3


def test_rel_properties(catalog5):
    for m in catalog5[4][::7]:
        ps = pointed_sets(m, IsoStructure.INDEPENDENT)
        for a in ps[::2]:
            for b in ps[::2]:
                assert rel(a, b) == rel(b, a)
                assert (rel(a, b) == 0) == (a == b)


def test_covers_examples():
    u23 = uniform_matroid(2, 3)
    assert covers(u23, IsoStructure.BASES).covered
    res = covers(u23, IsoStructure.NONBASES)
    assert not res.covered and res.witness == 0
    grid = matroid_from_nonbases(
        9, 3, [[0, 1, 2], [3, 4, 5], [6, 7, 8], [0, 3, 6], [1, 4, 7], [2, 5, 8]]
    )
    assert covers(grid, IsoStructure.NONBASES).covered
    # loops break basis covering; coloops break circuit covering
    from mig import matroid_from_bases

    loopy = matroid_from_bases(2, [[0]])
    assert not covers(loopy, IsoStructure.BASES).covered
    assert not covers(loopy, IsoStructure.CIRCUITS).covered  # 0 is a coloop
    assert covers(uniform_matroid(1, 2), IsoStructure.CIRCUITS).covered
    assert not covers(uniform_matroid(1, 1), IsoStructure.CIRCUITS).covered


CHARACTERIZED_KINDS = (
    IsoStructure.BASES,
    IsoStructure.CIRCUITS,
    IsoStructure.NONBASES,
)


def test_covers_characterization_agreement_small(catalog5, paper_pair):
    """The definition and the rank-function characterization agree."""
    mats = [m for n in range(6) for m in catalog5[n]] + list(paper_pair)
    for m in mats:
        for kind in CHARACTERIZED_KINDS:
            assert covers(m, kind).covered == _covered_by_characterization(m, kind)
    with pytest.raises(UnsupportedKind):
        _covered_by_characterization(uniform_matroid(2, 3), IsoStructure.FLATS)


def test_require_covering_names_element_and_side():
    u23 = uniform_matroid(2, 3)
    require_covering(IsoStructure.BASES, u23, u23)
    with pytest.raises(NotCovering, match="nonbases misses element 0 of the first"):
        require_covering(IsoStructure.NONBASES, u23, u23)
    grid = matroid_from_nonbases(
        9, 3, [[0, 1, 2], [3, 4, 5], [6, 7, 8], [0, 3, 6], [1, 4, 7], [2, 5, 8]]
    )
    with pytest.raises(NotCovering, match="nonbases misses element 0 of the second"):
        require_covering(IsoStructure.NONBASES, grid, u23)
