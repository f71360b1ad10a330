"""A Hypothesis state machine over the answers that matroids keep.

The machine holds a pool of live matroids: copies of catalog matroids on
n <= 5 elements, relabellings of pool members, and doubled-grid matroids
M_S.  Its rules add matroids, drop them, and ask, in any order and on
any kind, `find_matroid_isomorphism`, `automorphism_group(build_graph(m,
kind))`, `covers` and the fields of `derive_sets`.  Every answer must
equal the same call on fresh `Matroid(*key)` copies, so nothing that an
earlier query kept on a matroid, or on a matroid since dropped, changes
a later answer.  For n <= 5 the verdicts also match
`brute_force_isomorphic` and the group orders of covering kinds
`brute_force_automorphism_count`.
"""

from typing import List

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.stateful import (  # noqa: E402
    RuleBasedStateMachine,
    precondition,
    rule,
)

from mig.catalog import all_matroids  # noqa: E402
from mig.derived import derive_sets  # noqa: E402
from mig.errors import NotCovering  # noqa: E402
from mig.lbcs_construct import SignAssignment, grid_matroid, m_s_matroid  # noqa: E402
from mig.matroid import Matroid, brute_force_isomorphic  # noqa: E402
from mig.relgraph import (  # noqa: E402
    SearchStats,
    automorphism_group,
    build_graph,
    find_matroid_isomorphism,
    preserves_adjacency,
)
from mig.structures import IsoStructure, covers  # noqa: E402
from oracles import brute_force_automorphism_count  # noqa: E402

ORACLE_N = 5  # the largest ground set checked against the brute-force oracles
MAX_GRIDS = 2  # doubled grids (18 elements) at once, to bound the run time
FIELDS = (
    "independents",
    "circuits",
    "flats",
    "flat_ranks",
    "hyperplanes",
    "cyclic_flats",
    "loops",
    "coloops",
    "girth",
)
KINDS = st.sampled_from(list(IsoStructure))


def _fresh(m: Matroid) -> Matroid:
    return Matroid(*m.key)


def _iso(m: Matroid, n: Matroid, kind: IsoStructure):
    """(answer, searched kind), or the refusal when a family does not cover."""
    stats = SearchStats()
    try:
        return find_matroid_isomorphism(m, n, kind, stats), stats.structure
    except NotCovering as exc:
        return str(exc), None


def _aut(m: Matroid, kind: IsoStructure):
    """Aut of m's graph of `kind`, whose generators must be automorphisms of it."""
    g = build_graph(m, kind)
    group = automorphism_group(g)
    assert all(len(p) == g.n and preserves_adjacency(g, g, p) for p in group.generators)
    return group.generators, group.order, group.structure


class CacheMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.live: List[Matroid] = []

    def _pick(self, data) -> Matroid:
        return self.live[data.draw(st.integers(0, len(self.live) - 1))]

    @rule(data=st.data())
    def add_catalog(self, data):
        n = data.draw(st.integers(0, ORACLE_N))
        self.live.append(_fresh(data.draw(st.sampled_from(all_matroids(n)))))

    @precondition(lambda self: sum(m.n > ORACLE_N for m in self.live) < MAX_GRIDS)
    @rule(negatives=st.sets(st.integers(0, 5)))
    def add_doubled_grid(self, negatives):
        grid = grid_matroid()
        lines = grid.cyclic_hyperplanes()
        signs = SignAssignment.with_negatives(grid, sorted(lines[i] for i in negatives))
        self.live.append(m_s_matroid(grid, signs))

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def add_relabelling(self, data):
        m = self._pick(data)
        if m.n > ORACLE_N and sum(x.n > ORACLE_N for x in self.live) >= MAX_GRIDS:
            return
        self.live.append(m.relabel(data.draw(st.permutations(range(m.n)))))

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def drop(self, data):
        del self.live[data.draw(st.integers(0, len(self.live) - 1))]

    @precondition(lambda self: self.live)
    @rule(data=st.data(), kind=KINDS)
    def iso(self, data, kind):
        m, n = self._pick(data), self._pick(data)
        got = _iso(m, n, kind)
        assert got == _iso(_fresh(m), _fresh(n), kind), (m.key, n.key, kind)
        hit = got[0]
        if isinstance(hit, str) or max(m.n, n.n) > ORACLE_N:
            return
        assert (hit is None) == (brute_force_isomorphic(m, n) is None)
        if hit is not None:
            assert m.relabel(hit[0]) == n

    @precondition(lambda self: self.live)
    @rule(data=st.data(), kind=KINDS)
    def aut(self, data, kind):
        m = self._pick(data)
        got = _aut(m, kind)
        assert got == _aut(_fresh(m), kind), (m.key, kind)
        if m.n <= ORACLE_N and covers(m, kind).covered:
            assert got[1] == brute_force_automorphism_count(m)

    @precondition(lambda self: self.live)
    @rule(data=st.data(), kind=KINDS)
    def covering(self, data, kind):
        m = self._pick(data)
        assert covers(m, kind) == covers(_fresh(m), kind)

    @precondition(lambda self: self.live)
    @rule(data=st.data(), field=st.sampled_from(FIELDS))
    def derived_field(self, data, field):
        m = self._pick(data)
        want = getattr(derive_sets(_fresh(m)), field)
        assert getattr(derive_sets(m), field) == want, (m.key, field)


CacheMachine.TestCase.settings = settings(
    max_examples=60,
    stateful_step_count=30,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
test_cache_machine = CacheMachine.TestCase
