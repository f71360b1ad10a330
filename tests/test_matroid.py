"""Core matroid type: constructors, rank/closure, operations, predicates."""

import pytest

from mig import (
    Matroid,
    brute_force_isomorphic,
    matroid_from_bases,
    matroid_from_graph,
    matroid_from_nonbases,
    matroid_from_vectors,
    uniform_matroid,
)
from mig.bitset import iter_bits, mask_of, subsets_of_size
from mig.derived import derive_sets
from mig.errors import (
    CardinalityMismatch,
    EmptyFamily,
    ExchangeAxiomViolation,
    GuardExceeded,
    OutOfRange,
    RankDeficient,
)

GRID_LINES = [[0, 1, 2], [3, 4, 5], [6, 7, 8], [0, 3, 6], [1, 4, 7], [2, 5, 8]]


@pytest.fixture(scope="module")
def grid():
    return matroid_from_nonbases(9, 3, GRID_LINES)


def test_from_bases_u23():
    m = matroid_from_bases(3, [[0, 1], [0, 2], [1, 2]])
    assert m == uniform_matroid(2, 3)
    assert m.rank == 2 and m.n == 3


def test_from_bases_rank_zero_with_loop():
    m = matroid_from_bases(1, [[]])
    assert m.rank == 0
    assert derive_sets(m).loops == 0b1


def test_from_bases_exchange_violation_has_witness():
    with pytest.raises(ExchangeAxiomViolation) as exc:
        matroid_from_bases(4, [[0, 1], [2, 3]])
    a_mask, b_mask, a = exc.value.witness
    assert a_mask in (0b0011, 0b1100) and b_mask in (0b0011, 0b1100)
    assert a_mask != b_mask and (a_mask >> a) & 1


def test_from_bases_rejects_bad_families():
    with pytest.raises(EmptyFamily):
        matroid_from_bases(3, [])
    with pytest.raises(CardinalityMismatch):
        matroid_from_bases(3, [[0], [1, 2]])
    with pytest.raises(OutOfRange):
        matroid_from_bases(2, [[0, 5]])
    with pytest.raises(GuardExceeded):
        matroid_from_bases(65, [[0]])


def test_from_nonbases(grid):
    assert len(grid.bases) == 84 - 6
    assert matroid_from_nonbases(3, 2, []) == uniform_matroid(2, 3)
    # worked example with two crossing nonbases on five elements
    m = matroid_from_nonbases(5, 3, [[0, 1, 4], [2, 3, 4]])
    assert m.rank == 3 and len(m.nonbases()) == 2


def test_from_vectors_matches_nonbases(grid):
    matrix = [
        [1, 0, 1, 0, 2, 2, 1, 1, 1],
        [0, 1, 1, 0, 5, 5, 0, 3, 2],
        [0, 0, 0, 1, 2, 6, 4, 1, 2],
    ]
    assert matroid_from_vectors(matrix) == grid


def test_from_vectors_small_cases():
    assert matroid_from_vectors([[1, 0, 1], [0, 1, 1]]) == uniform_matroid(2, 3)
    assert matroid_from_vectors([[1, 0], [0, 1]]) == uniform_matroid(2, 2)
    with pytest.raises(RankDeficient):
        matroid_from_vectors([[1, 1], [1, 1]])


def test_from_graph():
    triangle = matroid_from_graph([("a", "b"), ("b", "c"), ("c", "a")])
    assert triangle == uniform_matroid(2, 3)
    two_parallel = matroid_from_graph([("a", "b"), ("a", "b")])
    assert two_parallel == uniform_matroid(1, 2)
    with_loop = matroid_from_graph([("a", "a"), ("a", "b")])
    assert derive_sets(with_loop).loops == 0b01
    # complete graph on four vertices minus one edge: rank 3, 5 edges,
    # two triangles sharing an edge
    k4_minus = matroid_from_graph(
        [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]
    )
    assert k4_minus.n == 5 and k4_minus.rank == 3
    assert k4_minus.girth() == 3
    # same matroid as two 3-element nonbases sharing a single element
    two_lines = matroid_from_nonbases(5, 3, [[0, 1, 4], [2, 3, 4]])
    assert brute_force_isomorphic(k4_minus, two_lines) is not None


def test_rank_and_closure(grid):
    assert grid.subset_rank(mask_of([0, 1, 2])) == 2
    assert grid.subset_rank(mask_of([0, 1, 3])) == 3
    assert grid.subset_rank(0) == 0
    u23 = uniform_matroid(2, 3)
    assert u23.closure(0b001) == 0b001
    assert u23.closure(0) == 0  # no loops
    loopy = matroid_from_bases(2, [[0]])
    assert loopy.closure(0) == 0b10  # the loop sits in every closure
    assert grid.closure(mask_of([0, 1])) == mask_of([0, 1, 2])
    with pytest.raises(OutOfRange):
        u23.subset_rank(0b1000)


def test_rank_against_definition(catalog5):
    """Oracle: rank = size of the largest independent subset (by definition)."""
    for m in catalog5[4]:
        ind = {s for b in m.bases for s in _subsets(b)}
        for a in range(1 << m.n):
            want = max(
                (bin(s).count("1") for s in _subsets(a) if s in ind), default=0
            )
            assert m.subset_rank(a) == want


def _subsets(mask):
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def test_dual_and_minors():
    u23 = uniform_matroid(2, 3)
    assert u23.dual() == uniform_matroid(1, 3)
    assert u23.dual().dual() == u23
    # restriction of the uniform matroid is uniform
    assert u23.restrict(0b011) == uniform_matroid(2, 2)
    assert u23.delete(0b001) == uniform_matroid(2, 2)
    assert u23.contract(0b001) == uniform_matroid(1, 2)


def test_restrict_bases_are_basis_traces(catalog5):
    """Oracle: the bases of M|A are the r(A)-subsets of A independent in M.

    Every such subset extends to a basis B of M whose trace B & A it then
    equals, so the traces alone give every basis of the restriction.
    """
    pairs = 0
    below_rank = 0
    for n in range(6):
        for m in catalog5[n]:
            for a in range(1 << n):
                keep = [e for e in range(n) if a >> e & 1]
                rk = m.subset_rank(a)
                want = tuple(
                    cand
                    for cand in subsets_of_size(len(keep), rk)
                    if m.subset_rank(mask_of(keep[i] for i in iter_bits(cand))) == rk
                )
                assert m.restrict(a) == Matroid(len(keep), rk, want)
                pairs += 1
                below_rank += rk < m.rank
    assert (pairs, below_rank) == (14233, 8117)


def test_minor_rank_formulas(catalog5):
    """Oracle: restriction/contraction ranks from the parent rank function."""
    for m in catalog5[4][::7]:
        for a in range(1 << m.n):
            keep = [e for e in range(m.n) if not a >> e & 1]
            sub = m.restrict(a ^ m.ground_mask())
            quo = m.contract(a)
            rk_a = m.subset_rank(a)
            for x in range(1 << len(keep)):
                orig = mask_of(keep[i] for i in range(len(keep)) if x >> i & 1)
                assert sub.subset_rank(x) == m.subset_rank(orig)
                assert quo.subset_rank(x) == m.subset_rank(orig | a) - rk_a


def test_direct_sum_and_free_extension():
    u11 = uniform_matroid(1, 1)
    u12 = uniform_matroid(1, 2)
    s = u11.direct_sum(u12)
    assert s.n == 3 and s.rank == 2 and len(s.bases) == 2
    assert uniform_matroid(2, 2).free_extension() == uniform_matroid(2, 3)
    # free extension keeps rank and adds the new element to corank-1 sets
    m = matroid_from_nonbases(5, 3, [[0, 1, 4], [2, 3, 4]])
    ext = m.free_extension()
    assert ext.rank == 3 and ext.n == 6
    assert set(m.bases) <= set(ext.bases)


def test_predicates(grid):
    p = grid.predicates()
    assert p == {
        "is_simple": True,
        "is_paving": True,
        "is_sparse_paving": True,
        "girth": 3,
        "connectivity": 3,
    }
    u24 = uniform_matroid(2, 4)
    assert u24.is_paving() and u24.is_sparse_paving()
    assert uniform_matroid(2, 3).connectivity() is None
    assert uniform_matroid(1, 1).girth() is None


def test_rank3_sparse_paving_criterion(catalog5, catalog6, grid, paper_pair):
    """At rank 3, sparse paving is "simple, every cyclic hyperplane a triple"."""
    mats = [m for n in range(6) for m in catalog5[n] if m.rank == 3]
    mats += [m for m in catalog6 if m.rank == 3] + [grid, *paper_pair]
    seen = set()
    for m in mats:
        criterion = m.is_simple() and all(
            h.bit_count() == 3 for h in m.cyclic_hyperplanes()
        )
        assert criterion == m.is_sparse_paving()
        seen.add(criterion)
    assert seen == {True, False}


def test_connectivity_guard():
    with pytest.raises(GuardExceeded):
        uniform_matroid(3, 21).connectivity()
    # predicates() meets that guard before it builds any 2^n table
    wide = uniform_matroid(1, 22)
    with pytest.raises(GuardExceeded, match="CONNECTIVITY_GUARD = 20"):
        wide.predicates()
    assert "rank_table" not in wide._cache


def _scan_girth(m):
    """Smallest dependent subset, by basis scans (the oracle for `girth`)."""
    for k in range(1, min(m.rank + 1, m.n) + 1):
        for a in subsets_of_size(m.n, k):
            if m.subset_rank(a) < k:
                return k
    return None


def _scan_is_simple(m):
    if any(m.subset_rank(1 << e) == 0 for e in range(m.n)):
        return False
    return all(
        m.subset_rank((1 << a) | (1 << b)) == 2
        for a in range(m.n)
        for b in range(a + 1, m.n)
    )


def _scan_is_paving(m):
    return m.rank <= 1 or all(
        m.subset_rank(a) == a.bit_count() for a in subsets_of_size(m.n, m.rank - 1)
    )


def _scan_is_sparse_paving(m):
    return _scan_is_paving(m) and _scan_is_paving(m.dual())


def test_predicates_match_basis_scans(catalog5, catalog6, grid, paper_pair):
    """The lattice route (girth and hyperplanes) against the basis scans."""
    mats = [m for n in range(6) for m in catalog5[n]] + list(catalog6)
    mats += [grid, *paper_pair]
    for m in mats:
        assert m.girth() == _scan_girth(m)
        assert m.is_simple() == _scan_is_simple(m)
        assert m.is_paving() == _scan_is_paving(m)
        assert m.is_sparse_paving() == _scan_is_sparse_paving(m)
    assert len(mats) == 4305 + 3


def test_labels_and_relabel(grid):
    m = matroid_from_bases(3, [[0, 1], [0, 2], [1, 2]], labels=["a", "b", "c"])
    assert m.label_of(2) == "c"
    r = m.relabel([2, 0, 1])
    assert r.label_of(2) == "a"
    assert r == m.relabel([2, 0, 1])
    perm = [1, 2, 0, 4, 5, 3, 7, 8, 6]  # cycle the three grid rows
    assert brute_force_isomorphic(grid, grid.relabel(perm)) is not None


def test_brute_force_isomorphic():
    u23 = uniform_matroid(2, 3)
    assert brute_force_isomorphic(u23, u23) == (0, 1, 2)
    assert brute_force_isomorphic(u23, uniform_matroid(1, 3)) is None
    with pytest.raises(GuardExceeded):
        brute_force_isomorphic(uniform_matroid(2, 10), uniform_matroid(2, 10))


def test_validate_catches_corruption():
    """`matroid_from_bases` is the one validating route: it refuses a family
    that breaks the exchange axiom even when every size matches."""
    assert matroid_from_bases(3, [0b011, 0b110, 0b101]) == uniform_matroid(2, 3)
    with pytest.raises(ExchangeAxiomViolation):
        matroid_from_bases(4, [0b0011, 0b0110, 0b1100])
