"""Matroid <-> constraint system pipeline and the 18-element pair."""

from itertools import combinations

import pytest

from mig import uniform_matroid
from mig.bitset import elements_of, mask_of, subsets_of_size
from mig.errors import NotSparsePavingRank3, SignDomainMismatch
from mig.lbcs_construct import (
    BOTTOM_ROW,
    WITNESS_Y,
    SignAssignment,
    _lifted_nonbases,
    _triple_scan,
    build_paper_pair,
    disjoint_triple_matroid,
    grid_matroid,
    lbcs_from_matroid,
    lifted_element,
    m_s_matroid,
    minor_obstruction_certificate,
    shared_invariant_report,
)


def test_lbcs_from_grid_matroid():
    m = grid_matroid()
    lbcs = lbcs_from_matroid(m, SignAssignment.homogeneous(m))
    assert lbcs.num_vars == 9
    assert sorted(c.variables for c in lbcs.constraints) == [
        (0, 1, 2),
        (0, 3, 6),
        (1, 4, 7),
        (2, 5, 8),
        (3, 4, 5),
        (6, 7, 8),
    ]
    assert all(c.sign == 1 for c in lbcs.constraints)
    signed = lbcs_from_matroid(m, SignAssignment.with_negatives(m, [BOTTOM_ROW]))
    assert sum(1 for c in signed.constraints if c.sign == -1) == 1


def test_lbcs_no_cyclic_hyperplanes():
    u23 = uniform_matroid(2, 3)
    lbcs = lbcs_from_matroid(u23, SignAssignment.homogeneous(u23))
    assert lbcs.num_vars == 3 and lbcs.constraints == ()


def test_sign_domain_checked():
    m = grid_matroid()
    with pytest.raises(SignDomainMismatch):
        SignAssignment.with_negatives(m, [[0, 1, 3]])
    with pytest.raises(SignDomainMismatch):
        lbcs_from_matroid(m, SignAssignment({}))


def test_m_s_requires_rank3_sparse_paving():
    u24 = uniform_matroid(2, 4)
    with pytest.raises(NotSparsePavingRank3):
        m_s_matroid(u24, SignAssignment.homogeneous(u24))


def test_paper_pair_shape(paper_pair):
    p, q = paper_pair
    assert p.n == q.n == 18
    assert p.rank == q.rank == 3
    assert len(p.nonbases()) == len(q.nonbases()) == 24
    assert p != q


def label_sets(m, masks):
    return sorted(sorted(m.labels[e] for e in elements_of(x)) for x in masks)


def test_paper_pair_explicit_bottom_row_lists(paper_pair):
    p, q = paper_pair
    bottom_p = [
        nb
        for nb in p.nonbases()
        if all(e // 2 in BOTTOM_ROW for e in elements_of(nb))
    ]
    bottom_q = [
        nb
        for nb in q.nonbases()
        if all(e // 2 in BOTTOM_ROW for e in elements_of(nb))
    ]
    assert label_sets(p, bottom_p) == [
        ["7+", "8+", "9+"],
        ["7+", "8-", "9-"],
        ["7-", "8+", "9-"],
        ["7-", "8-", "9+"],
    ]
    assert label_sets(q, bottom_q) == [
        ["7+", "8+", "9-"],
        ["7+", "8-", "9+"],
        ["7-", "8+", "9+"],
        ["7-", "8-", "9-"],
    ]
    # the separating triples
    all_plus = mask_of(lifted_element(a, 1) for a in BOTTOM_ROW)
    assert all_plus in p.nonbases() and all_plus not in q.nonbases()
    flipped = mask_of(
        lifted_element(a, -1 if a == 8 else 1) for a in BOTTOM_ROW
    )
    assert flipped in q.nonbases() and flipped not in p.nonbases()


def test_nonbasis_count_is_four_per_hyperplane(paper_pair):
    base = grid_matroid()
    for mat in paper_pair:
        assert len(mat.nonbases()) == 4 * len(base.cyclic_hyperplanes())


def test_projection_maps_nonbases_onto_hyperplanes(paper_pair):
    base = grid_matroid()
    hyper = set(base.cyclic_hyperplanes())
    for mat in paper_pair:
        for nb in mat.nonbases():
            downstairs = [e // 2 for e in elements_of(nb)]
            assert len(set(downstairs)) == 3
            assert mask_of(downstairs) in hyper


def test_sign_products(paper_pair):
    p, q = paper_pair
    for mat, bottom_sign in ((p, 1), (q, -1)):
        for nb in mat.nonbases():
            prod = 1
            for e in elements_of(nb):
                prod *= 1 if e % 2 == 0 else -1
            line = mask_of(e // 2 for e in elements_of(nb))
            expected = bottom_sign if line == mask_of(BOTTOM_ROW) else 1
            assert prod == expected


def test_m_s_on_other_sign_choices():
    """Any sign choice yields a valid doubled matroid with 24 nonbases."""
    m = grid_matroid()
    signs = SignAssignment.with_negatives(m, [(0, 1, 2), (0, 3, 6)])
    out = m_s_matroid(m, signs)
    assert out.n == 18 and out.rank == 3 and len(out.nonbases()) == 24


def test_m_s_matches_direct_lifting_on_all_sign_patterns():
    """The cyclic-flat route yields exactly the lifted nonbases, all 64 signs."""
    m = grid_matroid()
    hyper = m.cyclic_hyperplanes()
    assert len(hyper) == 6
    for pattern in range(1 << len(hyper)):
        signs = SignAssignment(
            {h: -1 if pattern >> i & 1 else 1 for i, h in enumerate(hyper)}
        )
        out = m_s_matroid(m, signs)
        assert list(out.nonbases()) == _lifted_nonbases(hyper, signs)


def test_restriction_witness(paper_pair):
    _, q = paper_pair
    qy = q.restrict(mask_of(WITNESS_Y))
    n = disjoint_triple_matroid()
    from mig import brute_force_isomorphic

    assert brute_force_isomorphic(qy, n) is not None


def test_minor_obstruction_certificate(paper_pair):
    p, q = paper_pair
    cert = minor_obstruction_certificate(p, q)
    assert cert["pSideScan"] == {"subsets": 48620, "matches": 0}
    assert cert["restrictionWitness"]["Y"] == [0, 2, 4, 6, 8, 10, 13, 15, 17]
    assert sorted(cert["restrictionWitness"]["iso"]) == list(range(9))


def test_scan_filter_matches_brute_force(paper_pair):
    """Spot-check the disjoint-triple filter against full isomorphism search."""
    from mig import brute_force_isomorphic

    p, q = paper_pair
    n = disjoint_triple_matroid()
    samples = [
        mask_of(WITNESS_Y),
        mask_of(range(9)),
        mask_of(range(0, 18, 2)),
        mask_of([0, 1, 2, 3, 4, 5, 6, 7, 8]),
        mask_of([0, 2, 4, 6, 8, 10, 12, 14, 16]),
        mask_of([1, 3, 5, 7, 9, 11, 13, 15, 17]),
    ]
    for mat in (p, q):
        nbs = mat.nonbases()
        for x in samples:
            inside = [nb for nb in nbs if nb & x == nb]
            filt = len(inside) == 3 and not (
                inside[0] & inside[1]
                or inside[0] & inside[2]
                or inside[1] & inside[2]
            )
            truth = brute_force_isomorphic(mat.restrict(x), n) is not None
            assert filt == truth


def _scan_oracle(m, k):
    """The scan one subset at a time: Gosper's hack over the k-subsets."""
    nbs = m.nonbases()
    scanned, matches = 0, []
    for x in subsets_of_size(m.n, k):
        scanned += 1
        inside = [nb for nb in nbs if nb & x == nb]
        if len(inside) == 3 and not (
            inside[0] & inside[1] or inside[0] & inside[2] or inside[1] & inside[2]
        ):
            matches.append(x)
    return scanned, matches


def _disjoint_triple_unions(m):
    """Unions of three pairwise disjoint nonbases holding no other nonbasis."""
    nbs = m.nonbases()
    out = []
    for a, b, c in combinations(nbs, 3):
        if a & b or a & c or b & c:
            continue
        u = a | b | c
        if sum(1 for nb in nbs if nb & u == nb) == 3:
            out.append(u)
    return sorted(out)


def test_vectorized_scan_matches_oracles(paper_pair):
    """Three routes to the 9-subset matches agree; Q's 32 are all genuine."""
    from mig import brute_force_isomorphic

    n = disjoint_triple_matroid()
    p, q = paper_pair
    for mat, expected in ((p, 0), (q, 32)):
        scanned, matches = _triple_scan(mat, 9)
        assert scanned == 48620 and len(matches) == expected
        assert (scanned, matches) == _scan_oracle(mat, 9)
        assert matches == _disjoint_triple_unions(mat)
        for x in matches:
            assert brute_force_isomorphic(mat.restrict(x), n) is not None
    assert mask_of(WITNESS_Y) in _triple_scan(q, 9)[1]


def test_shared_invariants(paper_pair):
    rep = shared_invariant_report(*paper_pair)
    assert rep["allCountsEqual"] and rep["tutteEqual"]
    assert rep["relationGraphAutOrders"] == ["1152", "1152"]
    assert rep["connectivity"] == [3, 3]
    assert rep["bases"] == [792, 792]
