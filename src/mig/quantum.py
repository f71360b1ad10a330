"""Finite-dimensional verification of perfect quantum strategies.

The constraint-system side uses the standard 3x3 grid of two-qubit Pauli
observables (row products +I, column products +I, +I, -I).  Measuring a
line's joint eigenprojections answers that constraint; shared variables
sit on shared observables, which makes cross-line projection products
vanish at the operator level whenever assignments disagree.  The grid
system's variable 3i + j sits on cell (j, i), a fixed layout that puts
the signed system's bottom row on the -1 column.

Conventions fixed here: Bob's measurement operators are the entrywise
complex conjugates of Alice's, and the shared state is the maximally
entangled unit vector on C^4 (x) C^4, so every pair probability reduces
to Tr(A B) / 4 for Hermitian A, B.  The synchronous verification uses
the same normalized trace, which keeps the two routes numerically
identical.

The (P, Q) projection family is built forward from the signed system's
strategy: each constraint's projections are placed at the pointed
nonbases that `lbcs_construct` encodes for it on the two doubled ground
sets, so this module never decodes a doubled element.

Every check is an exact comparison.  `ObservableGrid.validate` refuses a
cell whose entries are not Gaussian integers; a Hermitian involution is
unitary, so such a cell has entries in {0, +-1, +-i}.  Each projection
prod_i (1 + k_i O_i) / 2 then has entries in Z[i]/8 of modulus at most 1,
and every product, sum and trace the verifiers take is a Gaussian
rational with a power-of-two denominator and a small numerator.
complex128 stores all of these exactly, so comparing with `==` decides
the conditions themselves, not a rounded copy of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .errors import ConstructionInconsistency, DimensionMismatch, InvariantViolation
from .game import LBCS
from .lbcs_construct import lifted_pointed_sets
from .matroid import Matroid
from .relgraph import RelColoredGraph, build_graph
from .structures import IsoStructure, PointedSet

I2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass
class ObservableGrid:
    """3x3 Hermitian involutions with prescribed row/column sign targets.

    Construction runs `validate`, so the verifiers can rely on it.
    """

    cells: List[List[np.ndarray]]
    row_signs: Tuple[int, int, int]
    col_signs: Tuple[int, int, int]

    def __post_init__(self) -> None:
        self.validate()

    @property
    def dim(self) -> int:
        return self.cells[0][0].shape[0]

    def line(self, idx: int) -> Tuple[List[np.ndarray], int]:
        """Observables and target sign of line idx (0-2 rows, 3-5 columns)."""
        if idx < 3:
            return list(self.cells[idx]), self.row_signs[idx]
        j = idx - 3
        return [self.cells[i][j] for i in range(3)], self.col_signs[j]

    def validate(self) -> None:
        d = self.dim
        eye = np.eye(d)
        for i in range(3):
            for j in range(3):
                o = self.cells[i][j]
                if o.shape != (d, d):
                    raise InvariantViolation("ragged observable grid")
                if not np.array_equal(o, np.round(o)):
                    raise InvariantViolation(
                        f"cell ({i},{j}) has an entry that is not a Gaussian integer"
                    )
                if not np.array_equal(o, o.conj().T):
                    raise InvariantViolation(f"cell ({i},{j}) is not Hermitian")
                if not np.array_equal(o @ o, eye):
                    raise InvariantViolation(f"cell ({i},{j}) does not square to 1")
        for idx in range(6):
            obs, sign = self.line(idx)
            for a in range(3):
                for b in range(a + 1, 3):
                    if not np.array_equal(obs[a] @ obs[b], obs[b] @ obs[a]):
                        raise InvariantViolation(f"line {idx} does not commute")
            if not np.array_equal(obs[0] @ obs[1] @ obs[2], sign * eye):
                raise InvariantViolation(f"line {idx} misses its sign target")


def magic_square_observables() -> ObservableGrid:
    """The standard two-qubit Pauli grid; all checks run at construction."""
    z, x, y = PAULI_Z, PAULI_X, PAULI_Y
    return ObservableGrid(
        cells=[
            [np.kron(z, I2), np.kron(I2, z), np.kron(z, z)],
            [np.kron(I2, x), np.kron(x, I2), np.kron(x, x)],
            [np.kron(z, x), np.kron(x, z), np.kron(y, y)],
        ],
        row_signs=(1, 1, 1),
        col_signs=(1, 1, -1),
    )


def _spectral_projections(
    obs: Sequence[np.ndarray], sign: int, dim: int
) -> List[Tuple[Tuple[int, int, int], np.ndarray]]:
    """prod_i (1 + k_i O_i) / 2 for each sign pattern k multiplying to `sign`."""
    eye = np.eye(dim)
    out = []
    for k in product((1, -1), repeat=3):
        if k[0] * k[1] * k[2] != sign:
            continue
        proj = eye
        for kv, o in zip(k, obs):
            proj = proj @ (eye + kv * o) / 2
        out.append((k, proj))
    return out


# -- the grid system on the observable grid -----------------------------------

# the variables of grid lines 0-5 (rows, then columns): variable 3i + j sits
# on cell (j, i), so the system's rows lie on the grid's columns
_GRID_LINES = ((0, 3, 6), (1, 4, 7), (2, 5, 8), (0, 1, 2), (3, 4, 5), (6, 7, 8))


def _constraint_projections(
    lbcs: LBCS, grid: ObservableGrid
) -> Tuple[List[Dict[Tuple[int, ...], np.ndarray]], bool]:
    """Per constraint: fulfilling assignment (over its variables) -> projection.

    The constraints must be the six lines of the grid system, in any order
    and with any signs; the flag says whether every sign is its line's.
    """
    lines = sorted(c.variables for c in lbcs.constraints)  # each one ascending
    if lbcs.num_vars != 9 or lines != sorted(_GRID_LINES):
        raise DimensionMismatch("the constraints are not the lines of the 3x3 grid")
    tables = []
    consistent = True
    for c in lbcs.constraints:
        consistent &= c.sign == grid.line(_GRID_LINES.index(c.variables))[1]
        obs = [grid.cells[v % 3][v // 3] for v in c.variables]
        tables.append(dict(_spectral_projections(obs, c.sign, grid.dim)))
    return tables, consistent


def verify_lbcs_quantum_strategy(lbcs: LBCS, grid: ObservableGrid) -> Dict[str, object]:
    """Score the grid strategy on every ordered constraint pair.

    The winning probability of a pair is the sum of Tr(P_A P_B) / dim
    over consistent pairs of fulfilling assignments; perfect means every
    pair reaches exactly 1.  The traces are summed before the one
    division, so the sum is exact for any dimension; a sum short of dim
    misses it by at least 1/64, far more than the rounding of the quotient.
    """
    tables, consistent = _constraint_projections(lbcs, grid)
    cs = lbcs.constraints
    dim = grid.dim
    min_prob = 1.0
    for ia, ca in enumerate(cs):
        for ib, cb in enumerate(cs):
            shared = set(ca.variables) & set(cb.variables)
            total = 0.0
            for ka, pa in tables[ia].items():
                va = dict(zip(ca.variables, ka))
                for kb, pb in tables[ib].items():
                    vb = dict(zip(cb.variables, kb))
                    if any(va[s] != vb[s] for s in shared):
                        continue
                    total += float(np.trace(pa @ pb).real)
            min_prob = min(min_prob, total / dim)
    return {
        "perfect": min_prob == 1,
        "minPairProb": min_prob,
        "signsConsistent": consistent,
    }


# -- synchronous strategies for the isomorphism game ---------------------------


@dataclass
class SyncStrategyPVM:
    """Projection family over (question, answer) pairs plus vertex metadata.

    projections[i, j] is the operator for question i (pointed sets of the
    first matroid) and answer j (pointed sets of the second); the trace
    state is the normalized matrix trace.
    """

    dim: int
    projections: np.ndarray  # shape (q, a, dim, dim)
    questions: Tuple[PointedSet, ...]
    answers: Tuple[PointedSet, ...]


def iso_game_pvms(
    p: Matroid, q: Matroid, signed: LBCS, grid: ObservableGrid
) -> SyncStrategyPVM:
    """The projection family the grid strategy for `signed` induces on the (P,Q) game.

    Built forward from the signed system, whose doubling is Q; P doubles
    its homogeneous version.  For constraint H, each assignment t of H
    with sign product +1 and each fulfilling assignment k of H in
    `signed`, question (H, t) pointed at x gets answer (H, t * k) pointed
    at x with the projection of k.  All other entries are 0.  A pointed
    set missing from P or Q, or a question or answer left without an
    entry, raises ConstructionInconsistency.
    """
    tables, consistent = _constraint_projections(signed, grid)
    if not consistent:
        raise ConstructionInconsistency("grid cannot realize the signed system")
    g = build_graph(p, IsoStructure.NONBASES)
    h = build_graph(q, IsoStructure.NONBASES)

    def lookup(graph: RelColoredGraph, ps: PointedSet, side: str) -> int:
        try:
            return graph.index_of(ps)
        except KeyError:
            raise ConstructionInconsistency(
                f"the {side} matroid has no pointed nonbasis {ps.to_json()}"
            ) from None

    dim = grid.dim
    fam = np.zeros((g.n, h.n, dim, dim), dtype=complex)
    for c, table in zip(signed.constraints, tables):
        for t in product((1, -1), repeat=len(c.variables)):
            if prod(t) != 1:
                continue
            asked = lifted_pointed_sets(c.variables, t)
            for k, proj in table.items():
                u = [a * b for a, b in zip(t, k)]
                for x, y in zip(asked, lifted_pointed_sets(c.variables, u)):
                    qi, ai = lookup(g, x, "first"), lookup(h, y, "second")
                    fam[qi, ai] = proj
    live = fam.any(axis=(2, 3))
    if not (live.any(axis=1).all() and live.any(axis=0).all()):
        raise ConstructionInconsistency("a question or an answer gets no projection")
    return SyncStrategyPVM(dim, fam, g.vertices, h.vertices)


def verify_sync_conditions(
    strategy: SyncStrategyPVM, m: Matroid, n: Matroid, kind: IsoStructure
) -> Dict[str, object]:
    """Check the four perfect-strategy conditions under the normalized trace.

    (1) answer sums are the identity per question, (2) question sums are
    the identity per answer, (3) mismatched rel pairs have vanishing
    operator products, (4) every operator is self-adjoint.  (1) and (3)
    make each operator idempotent, so with (4) each is a projection.
    Reports the largest defect of each; perfect means all four are
    exactly 0.
    """
    fam = strategy.projections
    nq, na, dim, _ = fam.shape
    g, h = build_graph(m, kind), build_graph(n, kind)
    alphabets = (strategy.questions, strategy.answers)
    if alphabets != (g.vertices, h.vertices) or (nq, na) != (g.n, h.n):
        raise DimensionMismatch("strategy shape does not match the game alphabets")
    eye = np.eye(dim)
    adjoint_defect = float(np.abs(fam - fam.conj().swapaxes(2, 3)).max(initial=0))
    row_defect = float(np.abs(fam.sum(axis=1) - eye).max()) if nq else 0.0
    col_defect = float(np.abs(fam.sum(axis=0) - eye).max()) if na else 0.0

    norms = np.abs(fam).max(axis=(2, 3))
    live = np.argwhere(norms != 0)
    rel_q, rel_a = g.rel_table(), h.rel_table()
    mismatch_defect = 0.0
    if len(live):
        lhs = fam[live[:, 0], live[:, 1]]
        for qj in range(nq):
            rq = rel_q[live[:, 0], qj]
            for aj in range(na):
                if norms[qj, aj] == 0:
                    continue
                bad = rq != rel_a[live[:, 1], aj]
                if not bad.any():
                    continue
                prods = np.einsum("nij,jk->nik", lhs[bad], fam[qj, aj])
                mismatch_defect = max(mismatch_defect, float(np.abs(prods).max()))
    return {
        "conditions": {
            "rowSums": row_defect,
            "colSums": col_defect,
            "relOrthogonality": mismatch_defect,
            "selfAdjoint": adjoint_defect,
        },
        "perfect": max(row_defect, col_defect, mismatch_defect, adjoint_defect) == 0,
    }
