"""Observable grid, joint projections, and strategy verification."""

from typing import Sequence

import numpy as np
import pytest

from mig import uniform_matroid
from mig.bitset import elements_of, mask_of
from mig.errors import ConstructionInconsistency, DimensionMismatch, InvariantViolation
from mig.game import LBCS, Constraint
from mig.lbcs_construct import (
    BOTTOM_ROW,
    SignAssignment,
    grid_matroid,
    lbcs_from_matroid,
    lifted_element,
)
from mig.matroid import Matroid
from mig.quantum import (
    ObservableGrid,
    SyncStrategyPVM,
    _constraint_projections,
    _spectral_projections,
    iso_game_pvms,
    magic_square_observables,
    verify_lbcs_quantum_strategy,
    verify_sync_conditions,
)
from mig.relgraph import build_graph, induced_map
from mig.structures import IsoStructure, pointed_sets


def signed_system():
    m = grid_matroid()
    return lbcs_from_matroid(m, SignAssignment.with_negatives(m, [BOTTOM_ROW]))


def homogeneous_system():
    m = grid_matroid()
    return lbcs_from_matroid(m, SignAssignment.homogeneous(m))


def test_grid_invariants(pauli_grid):
    eye = np.eye(4)
    for i in range(3):
        for j in range(3):
            o = pauli_grid.cells[i][j]
            assert np.abs(o @ o - eye).max() < 1e-12
            assert np.abs(o - o.conj().T).max() < 1e-12
    for i in range(3):
        obs, sign = pauli_grid.line(i)
        assert sign == 1
        assert np.abs(obs[0] @ obs[1] @ obs[2] - eye).max() < 1e-12
    col_signs = []
    for j in range(3, 6):
        obs, sign = pauli_grid.line(j)
        prod = obs[0] @ obs[1] @ obs[2]
        assert np.abs(prod - sign * eye).max() < 1e-12
        col_signs.append(sign)
    assert col_signs.count(-1) == 1


def test_grid_validation_rejects_broken_cells(pauli_grid):
    broken = ObservableGrid(
        [list(row) for row in pauli_grid.cells],
        pauli_grid.row_signs,
        pauli_grid.col_signs,
    )
    broken.cells[0][0] = broken.cells[0][0] * 0.5
    with pytest.raises(InvariantViolation):
        broken.validate()


def test_joint_projections(pauli_grid):
    eye = np.eye(4)
    for idx in range(6):
        obs, sign = pauli_grid.line(idx)
        projs = _spectral_projections(obs, sign, pauli_grid.dim)
        assert len(projs) == 4
        total = np.zeros((4, 4), dtype=complex)
        for k, proj in projs:
            assert k[0] * k[1] * k[2] == sign
            assert np.abs(proj @ proj - proj).max() < 1e-12
            assert np.abs(proj - proj.conj().T).max() < 1e-12
            assert abs(np.trace(proj).real - 1) < 1e-12
            total += proj
        assert np.abs(total - eye).max() < 1e-12
        for i, (_, p1) in enumerate(projs):
            for _, p2 in projs[i + 1 :]:
                assert np.abs(p1 @ p2).max() < 1e-12


def test_noncommuting_line_rejected(pauli_grid):
    # a diagonal of the grid does not commute; construction validates
    cells = pauli_grid.cells
    diagonal = [cells[0][0], cells[1][1], cells[2][2]]
    with pytest.raises(InvariantViolation, match="line 0 does not commute"):
        ObservableGrid([diagonal, cells[1], cells[2]], (1, 1, 1), (1, 1, -1))


def test_grid_validation_rejects_non_gaussian_integer_entries(pauli_grid):
    """A Hermitian involution that is not a Gaussian-integer matrix is refused."""
    c, s = 0.6, 0.8  # cos and sin of a rotation: c X + s Z squares to 1
    tilted = c * pauli_grid.cells[1][0] + s * pauli_grid.cells[0][1]
    assert np.allclose(tilted @ tilted, np.eye(4))
    broken = ObservableGrid(
        [list(row) for row in pauli_grid.cells],
        pauli_grid.row_signs,
        pauli_grid.col_signs,
    )
    broken.cells[1][1] = tilted
    with pytest.raises(InvariantViolation, match=r"cell \(1,1\) has an entry"):
        broken.validate()


def _is_gaussian_integer(a):
    return np.array_equal(a, np.round(a))


def test_projections_are_gaussian_integers_over_eight(pauli_grid, paper_pair):
    """The condition that makes every float check exact: 8 P is in Z[i]^(d x d)."""
    tables = [
        proj
        for system in (signed_system(), homogeneous_system())
        for table in _constraint_projections(system, pauli_grid)[0]
        for proj in table.values()
    ]
    assert len(tables) == 2 * 6 * 4
    assert all(_is_gaussian_integer(8 * proj) for proj in tables)
    assert not all(_is_gaussian_integer(proj) for proj in tables)
    fam = iso_game_pvms(*paper_pair, signed_system(), pauli_grid).projections
    assert fam.shape == (72, 72, 4, 4)
    assert _is_gaussian_integer(8 * fam)
    # the family holds each projection of the signed system, not only zeros
    assert {proj.tobytes() for proj in tables[:24]} <= {
        fam[i, j].tobytes() for i in range(72) for j in range(72)
    }


def test_signs_consistent_flag(pauli_grid):
    """The signed system's bottom row lies on the grid's -1 column."""
    assert _constraint_projections(signed_system(), pauli_grid)[1]
    assert not _constraint_projections(homogeneous_system(), pauli_grid)[1]


def _replace_line(system, old, new):
    """The system with constraint `old`'s variables replaced by `new`."""
    return LBCS(
        system.num_vars,
        tuple(
            Constraint(new, c.sign) if c.variables == old else c
            for c in system.constraints
        ),
    )


def test_matching_rejects_non_magic_shapes(pauli_grid):
    """Only the six lines of the fixed layout are placed on the grid."""
    signed = signed_system()
    swap = (1, 0, 2, 3, 4, 5, 6, 7, 8)  # the grid system with 0 and 1 exchanged
    relabelled = LBCS(
        9,
        tuple(
            Constraint(tuple(sorted(swap[v] for v in c.variables)), c.sign)
            for c in signed.constraints
        ),
    )
    refused = [
        LBCS(4, (Constraint((0, 1), 1),)),
        relabelled,
        _replace_line(signed, (0, 1, 2), (0, 4, 8)),  # a diagonal for a line
        _replace_line(signed, (0, 1, 2), (0, 3, 6)),  # a line twice
        LBCS(10, signed.constraints),
    ]
    for system in refused:
        with pytest.raises(DimensionMismatch, match="not the lines of the 3x3 grid"):
            verify_lbcs_quantum_strategy(system, pauli_grid)


def test_lbcs_strategy_perfect_on_signed_system(pauli_grid):
    report = verify_lbcs_quantum_strategy(signed_system(), pauli_grid)
    assert report["perfect"] and report["minPairProb"] == 1.0


def test_lbcs_strategy_fails_on_homogeneous_system(pauli_grid):
    report = verify_lbcs_quantum_strategy(homogeneous_system(), pauli_grid)
    assert report == {"perfect": False, "minPairProb": 0.0, "signsConsistent": False}


def test_single_constraint_probability_one(pauli_grid):
    """Identical questions agree with probability 1 under any line."""
    tables, _ = _constraint_projections(signed_system(), pauli_grid)
    for table in tables:
        prob = sum(float(np.trace(p @ p).real) / 4 for p in table.values())
        assert abs(prob - 1) < 1e-12


def test_iso_game_pvms_conditions(paper_pair, pauli_grid):
    p, q = paper_pair
    strat = iso_game_pvms(p, q, signed_system(), pauli_grid)
    assert strat.dim == 4 and strat.projections.shape == (72, 72, 4, 4)
    # every entry is Hermitian idempotent; 4 live answers per question
    fam = strat.projections
    for qi in range(0, 72, 7):
        live = [ai for ai in range(72) if np.abs(fam[qi, ai]).max() > 0]
        assert len(live) == 4
        for ai in live:
            f = fam[qi, ai]
            assert np.abs(f @ f - f).max() < 1e-12
            assert np.abs(f - f.conj().T).max() < 1e-12
    report = verify_sync_conditions(strat, p, q, IsoStructure.NONBASES)
    assert report["perfect"] and report["conditions"]["selfAdjoint"] == 0.0
    assert max(report["conditions"].values()) == 0


def _decode_lifted_set(mask):
    """Split a doubled-ground subset into base variables and their signs."""
    pairs = sorted((e // 2, 1 if e % 2 == 0 else -1) for e in elements_of(mask))
    return tuple(v for v, _ in pairs), tuple(s for _, s in pairs)


def _decoded_pvms(p, q, grid):
    """The family built backwards: decode every pointed nonbasis into signs.

    Reads the sign of each grid line off the nonbases of Q, then gives
    question (H, t) pointed at x the projection of t * t' for every
    answer (H, t') pointed at x.
    """
    base = grid_matroid()
    signs = {}
    for h in base.cyclic_hyperplanes():
        products = set()
        for nb in q.nonbases():
            variables, t = _decode_lifted_set(nb)
            if variables == tuple(elements_of(h)):
                products.add(int(np.prod(t)))
        (signs[h],) = products
    system = lbcs_from_matroid(base, SignAssignment(signs))
    tables, _ = _constraint_projections(system, grid)
    var_index = {c.variables: i for i, c in enumerate(system.constraints)}
    qs = pointed_sets(p, IsoStructure.NONBASES)
    ans = pointed_sets(q, IsoStructure.NONBASES)
    fam = np.zeros((len(qs), len(ans), grid.dim, grid.dim), dtype=complex)
    for qi, ps_q in enumerate(qs):
        variables, t = _decode_lifted_set(ps_q.members)
        for ai, ps_a in enumerate(ans):
            variables2, t2 = _decode_lifted_set(ps_a.members)
            if variables2 != variables or ps_a.point // 2 != ps_q.point // 2:
                continue
            k = tuple(u * v for u, v in zip(t, t2))
            fam[qi, ai] = tables[var_index[variables]][k]
    return SyncStrategyPVM(grid.dim, fam, qs, ans)


def test_forward_family_matches_decoded_oracle(paper_pair, pauli_grid):
    p, q = paper_pair
    got = iso_game_pvms(p, q, signed_system(), pauli_grid)
    want = _decoded_pvms(p, q, pauli_grid)
    assert got.dim == want.dim == 4
    assert got.questions == want.questions and got.answers == want.answers
    assert got.projections.tobytes() == want.projections.tobytes()


def test_forward_family_refuses_mismatched_sides(paper_pair, pauli_grid):
    p, q = paper_pair
    with pytest.raises(ConstructionInconsistency, match="first matroid"):
        iso_game_pvms(q, p, signed_system(), pauli_grid)
    swapped = q.relabel([2, 1, 0] + list(range(3, q.n)))
    with pytest.raises(ConstructionInconsistency, match="second matroid"):
        iso_game_pvms(p, swapped, signed_system(), pauli_grid)


def test_forward_family_refuses_an_unanswered_question(paper_pair, pauli_grid):
    """A diagonal nonbasis added to P is a question no constraint answers."""
    p, q = paper_pair
    diagonal = mask_of(lifted_element(a, 1) for a in (0, 4, 8))
    extended = Matroid(p.n, p.rank, tuple(b for b in p.bases if b != diagonal))
    assert len(extended.nonbases()) == len(p.nonbases()) + 1
    with pytest.raises(ConstructionInconsistency, match="no projection"):
        iso_game_pvms(extended, q, signed_system(), pauli_grid)


def test_forward_family_refuses_an_unrealizable_system(paper_pair, pauli_grid):
    with pytest.raises(ConstructionInconsistency, match="cannot realize"):
        iso_game_pvms(*paper_pair, homogeneous_system(), pauli_grid)


def sync_strategy_from_ground_iso(
    m: Matroid, n: Matroid, kind: IsoStructure, ground_map: Sequence[int]
) -> SyncStrategyPVM:
    """Rank-one (dimension 1) strategy of a genuine ground isomorphism."""
    g, h = build_graph(m, kind), build_graph(n, kind)
    fam = np.zeros((g.n, h.n, 1, 1), dtype=complex)
    for qi, ai in enumerate(induced_map(m, n, kind, ground_map)):
        fam[qi, ai, 0, 0] = 1.0
    return SyncStrategyPVM(1, fam, g.vertices, h.vertices)


def pair_probabilities(strategy: SyncStrategyPVM, qi: int, qj: int) -> np.ndarray:
    """p(x, y | qi, qj) = Tr(F[qi,x] F[qj,y]) / dim over all answer pairs."""
    fam = strategy.projections
    vals = np.einsum("xij,yji->xy", fam[qi], fam[qj]) / strategy.dim
    return vals


def test_pair_probabilities_normalized(paper_pair, pauli_grid):
    p, q = paper_pair
    strat = iso_game_pvms(p, q, signed_system(), pauli_grid)
    for qi, qj in ((0, 0), (0, 1), (3, 40), (71, 5)):
        vals = pair_probabilities(strat, qi, qj)
        assert np.abs(vals.imag).max() < 1e-12
        assert vals.real.min() > -1e-12 and vals.real.max() <= 1 + 1e-12
        assert abs(vals.real.sum() - 1) < 1e-9


def test_perturbation_breaks_conditions(paper_pair, pauli_grid):
    p, q = paper_pair
    strat = iso_game_pvms(p, q, signed_system(), pauli_grid)
    rng = np.random.default_rng(7)
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = (h + h.conj().T) / 2
    live = np.argwhere(np.abs(strat.projections).max(axis=(2, 3)) > 0)
    qi, ai = live[0]
    strat.projections[qi, ai] += 0.01 * h
    report = verify_sync_conditions(strat, p, q, IsoStructure.NONBASES)
    assert not report["perfect"]
    assert report["conditions"]["rowSums"] > 1e-9


def test_classical_strategy_is_quantum():
    u23 = uniform_matroid(2, 3)
    strat = sync_strategy_from_ground_iso(
        u23, u23, IsoStructure.BASES, (1, 2, 0)
    )
    assert strat.dim == 1
    report = verify_sync_conditions(strat, u23, u23, IsoStructure.BASES)
    assert report["perfect"]


def test_shape_mismatch_rejected(paper_pair, pauli_grid):
    p, q = paper_pair
    strat = iso_game_pvms(p, q, signed_system(), pauli_grid)
    u23 = uniform_matroid(2, 3)
    with pytest.raises(DimensionMismatch):
        verify_sync_conditions(strat, u23, u23, IsoStructure.BASES)


def _oblique_u12_strategy(answers=None):
    """F = [[A, I - A], [I - A, A]] on the bases game of U(1,2), with A an
    oblique idempotent: every sum and rel product holds, but no F[q, a]
    is a projection."""
    u12 = uniform_matroid(1, 2)
    qs = pointed_sets(u12, IsoStructure.BASES)
    a = np.array([[1, 1], [0, 0]], dtype=complex)
    b = np.eye(2) - a
    fam = np.array([[a, b], [b, a]])
    return u12, SyncStrategyPVM(2, fam, qs, qs if answers is None else answers)


def test_oblique_idempotents_are_not_perfect():
    u12, strat = _oblique_u12_strategy()
    report = verify_sync_conditions(strat, u12, u12, IsoStructure.BASES)
    assert not report["perfect"]
    assert report["conditions"] == {
        "rowSums": 0.0,
        "colSums": 0.0,
        "relOrthogonality": 0.0,
        "selfAdjoint": 1.0,
    }


def test_answer_alphabet_mismatch_rejected():
    u12, strat = _oblique_u12_strategy(answers=())
    with pytest.raises(DimensionMismatch):
        verify_sync_conditions(strat, u12, u12, IsoStructure.BASES)
