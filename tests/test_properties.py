"""Hypothesis properties of the matroid isomorphism and automorphism search.

M is drawn from the labelled catalog on n <= 6 elements or is a
doubled-grid matroid M_S for a drawn set of negative grid lines, and is
relabelled by a drawn permutation of its ground set.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from mig.catalog import all_matroids  # noqa: E402
from mig.lbcs_construct import SignAssignment, grid_matroid, m_s_matroid  # noqa: E402
from mig.relgraph import (  # noqa: E402
    automorphism_group,
    build_graph,
    find_matroid_isomorphism,
    induced_map,
)
from mig.structures import IsoStructure, covers  # noqa: E402

DOUBLED_KINDS = (IsoStructure.NONBASES, IsoStructure.HYPERPLANES, IsoStructure.FLATS)
SETTINGS = settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def relabelled(draw):
    """(M, kind, perm): a covering kind of M and a permutation of M's ground set."""
    if draw(st.booleans()):
        m = draw(st.sampled_from(all_matroids(draw(st.integers(0, 6)))))
        kinds = [k for k in IsoStructure if covers(m, k).covered]
        assume(kinds)
    else:
        grid = grid_matroid()
        lines = draw(st.sets(st.sampled_from(grid.cyclic_hyperplanes())))
        m = m_s_matroid(grid, SignAssignment.with_negatives(grid, sorted(lines)))
        kinds = list(DOUBLED_KINDS)
    kind = draw(st.sampled_from(kinds))
    return m, kind, draw(st.permutations(range(m.n)))


def _image(ground, mask):
    out = 0
    for e in range(len(ground)):
        if mask >> e & 1:
            out |= 1 << ground[e]
    return out


@SETTINGS
@given(relabelled())
def test_isomorphism_to_a_relabelling_carries_the_bases(case):
    m, kind, perm = case
    n = m.relabel(perm)
    hit = find_matroid_isomorphism(m, n, kind)
    assert hit is not None
    ground = hit[0]
    assert sorted(ground) == list(range(m.n))
    assert {_image(ground, b) for b in m.bases} == set(n.bases)


@SETTINGS
@given(relabelled())
def test_automorphism_order_is_invariant_under_relabelling(case):
    m, kind, perm = case
    order = automorphism_group(build_graph(m, kind)).order
    n = m.relabel(perm)
    assert automorphism_group(build_graph(n, kind)).order == order


@SETTINGS
@given(relabelled())
def test_isomorphism_vertex_map_is_induced_by_its_ground_map(case):
    m, kind, perm = case
    n = m.relabel(perm)
    ground, mapping = find_matroid_isomorphism(m, n, kind)
    assert induced_map(build_graph(m, kind), build_graph(n, kind), ground) == mapping
