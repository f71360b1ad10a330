"""Acceptance criteria, one test per criterion, timed at stated bounds.

Each test prints a single pass/fail line (visible with `pytest -s`).
"""

import time
from contextlib import contextmanager
from itertools import product

import pytest

from mig import brute_force_isomorphic, matroid_from_nonbases, uniform_matroid
from mig.bitset import mask_of
from mig.structures import IsoStructure, covers

GRID_LINES = [(0, 1, 2), (3, 4, 5), (6, 7, 8), (0, 3, 6), (1, 4, 7), (2, 5, 8)]


@contextmanager
def criterion(num: int, desc: str, bound_s=None):
    state = {"ok": False}
    t0 = time.perf_counter()
    try:
        yield state
        state["ok"] = True
    finally:
        dt = time.perf_counter() - t0
        verdict = "PASS" if state["ok"] else "FAIL"
        print(f"criterion {num}: {verdict} - {desc} ({dt:.1f}s)")
    if bound_s is not None:
        assert dt < bound_s, f"criterion {num} exceeded {bound_s}s ({dt:.1f}s)"


def expected_doubled_nonbases(negated_line):
    """The published nonbasis lists, reconstructed sign pattern by sign pattern."""
    out = set()
    for line in GRID_LINES:
        target = -1 if line == negated_line else 1
        for signs in product((1, -1), repeat=3):
            if signs[0] * signs[1] * signs[2] != target:
                continue
            out.add(
                mask_of(
                    2 * a + (0 if s == 1 else 1) for a, s in zip(line, signs)
                )
            )
    return out


def test_criterion_1_pair_reconstruction():
    from mig.lbcs_construct import build_paper_pair

    with criterion(1, "18-element pair rebuilt bitwise", bound_s=1.0):
        p, q = build_paper_pair()
        assert p.n == q.n == 18 and p.rank == q.rank == 3
        assert set(p.nonbases()) == expected_doubled_nonbases(None)
        assert set(q.nonbases()) == expected_doubled_nonbases((6, 7, 8))
        assert len(p.nonbases()) == len(q.nonbases()) == 24


def test_criterion_2_non_isomorphism(paper_pair, tmp_path, capsys):
    from mig.cli import main
    from mig.jsonio import dumps, matroid_to_json
    from mig.relgraph import build_graph, find_isomorphism

    p, q = paper_pair
    with criterion(2, "72-vertex search certifies non-isomorphism", bound_s=60.0):
        gp = build_graph(p, IsoStructure.NONBASES)
        gq = build_graph(q, IsoStructure.NONBASES)
        assert find_isomorphism(gp, gq) is None
        pf, qf = tmp_path / "P.json", tmp_path / "Q.json"
        pf.write_text(dumps(matroid_to_json(p)))
        qf.write_text(dumps(matroid_to_json(q)))
        code = main(["iso", str(pf), str(qf), "--structure", "nonbases"])
        capsys.readouterr()
        assert code == 1


def test_criterion_3_minor_obstruction(paper_pair):
    from mig.lbcs_construct import minor_obstruction_certificate

    p, q = paper_pair
    with criterion(3, "restriction witness + 48620-subset scan", bound_s=600.0):
        cert = minor_obstruction_certificate(p, q)
        assert cert["pSideScan"] == {"subsets": 48620, "matches": 0}
        assert cert["restrictionWitness"]["Y"] == [0, 2, 4, 6, 8, 10, 13, 15, 17]


def test_criterion_4_shared_invariants(paper_pair):
    from mig.lbcs_construct import shared_invariant_report

    with criterion(4, "identical classical invariants, both orders 1152"):
        rep = shared_invariant_report(*paper_pair)
        assert rep["bases"][0] == rep["bases"][1]
        assert rep["circuits"][0] == rep["circuits"][1]
        assert rep["flats"][0] == rep["flats"][1]
        assert rep["hyperplanes"][0] == rep["hyperplanes"][1]
        assert rep["tutteEqual"] is True
        assert rep["relationGraphAutOrders"] == ["1152", "1152"]


def test_criterion_5_classical_quantum_gap(capsys):
    from mig.cli import main
    from mig.game import lbcs_solutions
    from mig.lbcs_construct import (
        BOTTOM_ROW,
        SignAssignment,
        grid_matroid,
        lbcs_from_matroid,
    )

    with criterion(5, "16 vs 0 solutions; quantum strategy perfect", bound_s=5.0):
        base = grid_matroid()
        hom = lbcs_from_matroid(base, SignAssignment.homogeneous(base))
        signed = lbcs_from_matroid(
            base, SignAssignment.with_negatives(base, [BOTTOM_ROW])
        )
        assert len(lbcs_solutions(hom)) == 16
        assert len(lbcs_solutions(signed)) == 0
        code = main(["quantum", "magic-square"])
        out = capsys.readouterr().out
        import json

        report = json.loads(out)
        assert code == 0 and report["perfect"]
        assert report["minPairProb"] == 1.0


def test_criterion_6_quantum_isomorphism_witness(paper_pair, pauli_grid):
    from mig.lbcs_construct import (
        BOTTOM_ROW,
        SignAssignment,
        grid_matroid,
        lbcs_from_matroid,
    )
    from mig.quantum import iso_game_pvms, verify_sync_conditions

    p, q = paper_pair
    base = grid_matroid()
    signed = lbcs_from_matroid(base, SignAssignment.with_negatives(base, [BOTTOM_ROW]))
    with criterion(6, "72x72 projection family passes all conditions", bound_s=300.0):
        strat = iso_game_pvms(p, q, signed, pauli_grid)
        assert strat.projections.shape == (72, 72, 4, 4)
        report = verify_sync_conditions(strat, p, q, IsoStructure.NONBASES)
        assert report["perfect"]
        assert max(report["conditions"].values()) == 0


def test_criterion_7_oracle_equivalence(catalog5):
    from mig.relgraph import find_matroid_isomorphism

    def pairs():
        for n in range(5):
            for m in catalog5[n]:
                for nmat in catalog5[n]:
                    yield m, nmat, list(IsoStructure)
        # a deterministic slice of the 5-element catalog on top
        mats5 = catalog5[5][::29]
        for m in mats5:
            for nmat in mats5:
                yield m, nmat, [IsoStructure.BASES, IsoStructure.FLATS]

    with criterion(7, "graph search matches brute force on >= 1000 pairs"):
        compared = 0
        mismatches = 0
        for m, nmat, kinds in pairs():
            truth = brute_force_isomorphic(m, nmat) is not None
            for kind in kinds:
                if not (covers(m, kind).covered and covers(nmat, kind).covered):
                    continue
                got = find_matroid_isomorphism(m, nmat, kind) is not None
                compared += 1
                if got != truth:
                    mismatches += 1
        assert compared >= 1000, compared
        assert mismatches == 0


def test_criterion_8_covering_characterization(catalog5, catalog6, paper_pair):
    with criterion(8, "covering definition == characterization through n=6"):
        from mig.structures import _covered_by_characterization

        kinds = (IsoStructure.BASES, IsoStructure.CIRCUITS, IsoStructure.NONBASES)
        mats = [m for n in range(6) for m in catalog5[n]]
        mats += list(catalog6) + list(paper_pair)
        count = 0
        for m in mats:
            for kind in kinds:
                assert covers(m, kind).covered == _covered_by_characterization(m, kind)
                count += 1
        assert count == 3 * (1 + 2 + 5 + 16 + 68 + 406 + 3807 + 2)


@pytest.mark.parametrize("r", [3, 4, 5])
def test_criterion_9_noncommutativity_certificates(r):
    from mig.algebra import noncommutativity_certificate

    n = r + 2
    full = (1 << n) - 1
    m = matroid_from_nonbases(n, r, [full ^ 0b0011, full ^ 0b1100])
    with criterion(9, f"disjoint-transposition certificate at rank {r}", bound_s=5.0):
        cert = noncommutativity_certificate(m, IsoStructure.NONBASES)
        assert cert is not None
        v = cert["verification"]
        assert v["valid"] and v["disjoint"] and v["nontrivial"]
        assert v["relPreserving"] == [True, True]


def test_criterion_10_screener_soundness(paper_pair, catalog5):
    from mig.algebra import screen_quantum_iso

    p, q = paper_pair
    with criterion(10, "screeners: pair passes, mismatches fail, isos never fail"):
        assert (
            screen_quantum_iso(p, q, IsoStructure.NONBASES).verdict
            == "possibly quantum isomorphic"
        )
        assert (
            screen_quantum_iso(
                uniform_matroid(2, 3), uniform_matroid(2, 4), IsoStructure.BASES
            ).verdict
            == "not quantum isomorphic"
        )
        assert (
            screen_quantum_iso(
                uniform_matroid(2, 4), uniform_matroid(3, 4), IsoStructure.BASES
            ).verdict
            == "not quantum isomorphic"
        )
        # isomorphic pairs from the catalog never fail the screen
        checked = 0
        for n in range(6):
            for m in catalog5[n][::3]:
                flipped = m.relabel([m.n - 1 - i for i in range(m.n)])
                for kind in IsoStructure:
                    if not covers(m, kind).covered:
                        continue
                    rep = screen_quantum_iso(m, flipped, kind)
                    assert rep.verdict == "possibly quantum isomorphic"
                    checked += 1
        assert checked > 100
