"""Relation bundles, screeners, and noncommutativity certificates."""

import io

import pytest

from mig import matroid_from_nonbases, uniform_matroid
from mig.algebra import (
    export_comparison_substitution,
    export_groundset_relations,
    export_pointed_relations,
    noncommutativity_certificate,
    parse_bundle,
    screen_quantum_iso,
)
from mig.errors import NotCovering, UnsupportedKind
from mig.structures import IsoStructure, pointed_sets
from oracles import rel


def two_line_matroid(r):
    """Rank r on r+2 elements; nonbases are the complements of {0,1}, {2,3}."""
    n = r + 2
    full = (1 << n) - 1
    return matroid_from_nonbases(n, r, [full ^ 0b0011, full ^ 0b1100])


def test_pointed_bundle_u23():
    u23 = uniform_matroid(2, 3)
    bundle = export_pointed_relations(u23, u23, IsoStructure.BASES)
    assert (bundle.rows, bundle.cols) == (6, 6)
    counts = bundle.group_counts()
    ps = pointed_sets(u23, IsoStructure.BASES)
    direct = sum(
        1 for a in ps for b in ps for x in ps for y in ps if rel(a, b) != rel(x, y)
    )
    assert counts["relMismatch"] == direct == 864
    assert counts["rowSums"] == 6 and counts["idempotent"] == 36


def test_pointed_bundle_refuses_noncovering():
    with pytest.raises(NotCovering):
        export_pointed_relations(
            uniform_matroid(2, 3), uniform_matroid(2, 3), IsoStructure.NONBASES
        )


def test_pair_grid_dimensions(paper_pair):
    p, q = paper_pair
    bundle = export_pointed_relations(p, q, IsoStructure.NONBASES)
    assert (bundle.rows, bundle.cols) == (72, 72)


def test_bundle_round_trip():
    u23 = uniform_matroid(2, 3)
    bundle = export_pointed_relations(u23, u23, IsoStructure.BASES)
    text = io.StringIO()
    bundle.write(text)
    parsed = parse_bundle(text.getvalue())
    assert parsed["kind"] == "POINTED"
    assert (parsed["rows"], parsed["cols"]) == (6, 6)
    assert len(parsed["relations"]) == sum(bundle.group_counts().values())
    assert parsed["relations"] == list(bundle.iter_relations())
    assert parsed["legends"][0]["row"] == {"set": [0, 1], "point": 0}


def test_groundset_bases_equals_nonbases():
    u23 = uniform_matroid(2, 3)
    texts = []
    for kind in (IsoStructure.BASES, IsoStructure.NONBASES):
        bundle = export_groundset_relations(u23, u23, kind)
        texts.append(sorted(bundle.relation_text(r) for r in bundle.iter_relations()))
    assert texts[0] == texts[1]


def test_groundset_circuit_tuples_include_repeats():
    u23 = uniform_matroid(2, 3)
    from mig.algebra import _is_tuple_member

    for a in range(3):
        assert _is_tuple_member(u23, IsoStructure.CIRCUITS, (a, a))
    assert _is_tuple_member(u23, IsoStructure.CIRCUITS, (0, 1, 2))
    assert not _is_tuple_member(u23, IsoStructure.CIRCUITS, (0, 0, 1))
    loopy = matroid_from_nonbases(1, 0, [])  # single loop
    assert not _is_tuple_member(loopy, IsoStructure.CIRCUITS, (0, 0))
    assert _is_tuple_member(loopy, IsoStructure.CIRCUITS, (0,))


def test_groundset_rank_mismatch_tuples():
    u23, u13 = uniform_matroid(2, 3), uniform_matroid(1, 3)
    bundle = export_groundset_relations(u23, u13, IsoStructure.BASES)
    tp = bundle.group_counts()
    # length-1: N-side basis tuples against the three non-basis singles of M
    # length-2: M-side basis tuples (6) against every length-2 tuple of N (9)
    assert tp["tupleProducts"] == 3 * 3 + 6 * 9


def test_groundset_flats_unsupported():
    with pytest.raises(UnsupportedKind):
        export_groundset_relations(
            uniform_matroid(2, 3), uniform_matroid(2, 3), IsoStructure.FLATS
        )


def test_substitution_table():
    u23 = uniform_matroid(2, 3)
    table = export_comparison_substitution(u23, u23, IsoStructure.BASES)
    assert len(table) == 9
    # element 0 sits first in pointed sets (0,1) and (0,2): row 0
    assert table["w[0][0]"] == ["u[0][0]", "u[0][2]"]
    assert all(len(v) == 2 for v in table.values())


def test_screen_pair_passes(paper_pair):
    report = screen_quantum_iso(*paper_pair, IsoStructure.NONBASES)
    assert report.verdict == "possibly quantum isomorphic"
    assert all(passed for _, passed, _ in report.checks)


def test_screen_ground_size_mismatch():
    report = screen_quantum_iso(
        uniform_matroid(2, 3), uniform_matroid(2, 4), IsoStructure.BASES
    )
    assert report.verdict == "not quantum isomorphic"
    assert dict((n, p) for n, p, _ in report.checks)["groundSetSizesEqual"] is False


def test_screen_rank_mismatch():
    report = screen_quantum_iso(
        uniform_matroid(2, 4), uniform_matroid(3, 4), IsoStructure.BASES
    )
    assert report.verdict == "not quantum isomorphic"
    assert dict((n, p) for n, p, _ in report.checks)["ranksEqual"] is False


def test_screen_noncovering_refused(paper_pair):
    p, _ = paper_pair
    u318 = uniform_matroid(3, 18)
    with pytest.raises(NotCovering, match="element 0 of the second matroid"):
        screen_quantum_iso(p, u318, IsoStructure.NONBASES)


def test_screen_circuit_paving_check():
    # same rank, same circuit size profile needed; engineered mismatch fails
    m = uniform_matroid(2, 4)  # paving, circuits all size 3
    n = matroid_from_nonbases(4, 2, [[0, 1]])  # has a 2-circuit: not paving
    report = screen_quantum_iso(m, n, IsoStructure.CIRCUITS)
    names = dict((nm, p) for nm, p, _ in report.checks)
    assert report.verdict == "not quantum isomorphic"
    assert names["memberCountsBySize"] is False or names["pavingAgrees"] is False


def test_screen_never_rejects_isomorphic_pairs(catalog5):
    for m in catalog5[5][::17]:
        relabeled = m.relabel([m.n - 1 - i for i in range(m.n)])
        for kind in IsoStructure:
            from mig.structures import covers

            if not covers(m, kind).covered:
                continue
            report = screen_quantum_iso(m, relabeled, kind)
            assert report.verdict == "possibly quantum isomorphic"


@pytest.mark.parametrize("r", [3, 4, 5])
def test_noncomm_certificates_for_two_line_family(r):
    m = two_line_matroid(r)
    cert = noncommutativity_certificate(m, IsoStructure.NONBASES)
    assert cert is not None
    assert cert["method"] == "membership-pattern"
    assert cert["groundTranspositions"] == [[0, 1], [2, 3]]
    v = cert["verification"]
    assert v["valid"] and v["disjoint"] and v["nontrivial"]
    assert v["relPreserving"] == [True, True]
    p1, p2 = (tuple(x) for x in cert["vertexPermutations"])
    assert all(p1[p1[i]] == i for i in range(len(p1)))
    assert all(p2[p2[i]] == i for i in range(len(p2)))


def test_no_certificate_for_u23():
    assert (
        noncommutativity_certificate(uniform_matroid(2, 3), IsoStructure.BASES)
        is None
    )


def test_certificate_group_scan_route():
    """Disjoint automorphisms exist but no element has unique membership."""
    # two parallel triples: every element lies in two 2-circuits, so the
    # membership pattern cannot fire; swapping two parallel elements on
    # each side still gives disjoint automorphisms via the group scan
    m = uniform_matroid(1, 3).direct_sum(uniform_matroid(1, 3))
    cert = noncommutativity_certificate(m, IsoStructure.CIRCUITS)
    assert cert is not None
    assert cert["method"] == "group-scan"
    assert cert["verification"]["valid"]


def test_pair_reports_no_certificate(paper_pair):
    for mat in paper_pair:
        assert (
            noncommutativity_certificate(mat, IsoStructure.NONBASES) is None
        )
