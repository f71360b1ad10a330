"""From matroids to constraint systems and back: the doubled-pair pipeline.

A rank-3 sparse paving matroid turns into an LBCS (one +/-1 variable per
element, one signed parity constraint per cyclic hyperplane).  Given a
sign choice S, the doubling construction builds a matroid on E x {+1,-1}
whose nonbases are the constraint equations paired with their fulfilling
assignments; it is realized once, through its axiom-checked cyclic-flat
presentation.  The direct nonbasis formula (`_lifted_nonbases`) supplies
the flats of that presentation and serves the tests as the oracle for
the reconstruction.

`build_paper_pair` instantiates this at the 3x3 grid matroid: P from the
homogeneous system, Q from the system with the bottom-line sign flipped.
The two are the standard example of matroids that share every classical
invariant yet admit no isomorphism.

`lifted_element`, `lifted_set` and `lifted_pointed_sets` are the one
encoding of E x {+1,-1} as 0..2n-1; `quantum` places its projections
through them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .bitset import elements_of, mask_of
from .cyclic import CyclicFlatPresentation, matroid_from_cyclic_flats
from .derived import derive_sets, popcount_table, tutte_polynomial
from .errors import (
    ConstructionInconsistency,
    NotSparsePavingRank3,
    SignDomainMismatch,
)
from .game import LBCS, Constraint
from .matroid import Matroid, brute_force_isomorphic, matroid_from_nonbases
from .relgraph import build_graph, find_matroid_isomorphism
from .structures import IsoStructure, PointedSet


@dataclass(frozen=True)
class SignAssignment:
    """A +/-1 value per cyclic hyperplane (keyed by subset mask)."""

    signs: Dict[int, int]

    @classmethod
    def homogeneous(cls, m: Matroid) -> "SignAssignment":
        return cls({h: 1 for h in m.cyclic_hyperplanes()})

    @classmethod
    def with_negatives(
        cls, m: Matroid, negatives: Sequence[Sequence[int] | int]
    ) -> "SignAssignment":
        signs = {h: 1 for h in m.cyclic_hyperplanes()}
        for neg in negatives:
            mask = neg if isinstance(neg, int) else mask_of(neg)
            if mask not in signs:
                raise SignDomainMismatch(
                    f"{sorted(elements_of(mask))} is not a cyclic hyperplane"
                )
            signs[mask] = -1
        return cls(signs)


def _check_sign_domain(m: Matroid, signs: SignAssignment) -> Tuple[int, ...]:
    hyper = m.cyclic_hyperplanes()
    if set(signs.signs) != set(hyper):
        raise SignDomainMismatch(
            "sign assignment domain differs from the cyclic hyperplanes"
        )
    for v in signs.signs.values():
        if v not in (+1, -1):
            raise SignDomainMismatch(f"sign {v} is not +/-1")
    return hyper


def lbcs_from_matroid(m: Matroid, signs: SignAssignment) -> LBCS:
    """One variable per element, one signed constraint per cyclic hyperplane."""
    hyper = _check_sign_domain(m, signs)
    constraints = tuple(
        Constraint(tuple(elements_of(h)), signs.signs[h]) for h in hyper
    )
    return LBCS(m.n, constraints)


def lifted_element(a: int, sign: int) -> int:
    """Index of (a, sign) in the doubled ground set: (a,+1), (a,-1) interleaved."""
    return 2 * a + (0 if sign == 1 else 1)


def lifted_set(variables: Sequence[int], signs: Sequence[int]) -> int:
    """Mask of the doubled elements (variables[i], signs[i])."""
    return mask_of(lifted_element(a, s) for a, s in zip(variables, signs))


def lifted_pointed_sets(
    variables: Sequence[int], signs: Sequence[int]
) -> Tuple[PointedSet, ...]:
    """The lifted set of an assignment, pointed at each of its elements in turn."""
    members = lifted_set(variables, signs)
    return tuple(
        PointedSet(members, lifted_element(a, s)) for a, s in zip(variables, signs)
    )


def _lifted_nonbases(hyper: Sequence[int], signs: SignAssignment) -> List[int]:
    out = []
    for h in hyper:
        elems = elements_of(h)
        for t in product((1, -1), repeat=len(elems)):
            if prod(t) == signs.signs[h]:
                out.append(lifted_set(elems, t))
    return sorted(out)


def doubled_labels(m: Matroid) -> Tuple[str, ...]:
    return tuple(f"{m.label_of(a)}{s}" for a in range(m.n) for s in "+-")


def m_s_matroid(m: Matroid, signs: SignAssignment) -> Matroid:
    """The doubled matroid of (m, signs) on E x {+1, -1}.

    Built from its cyclic-flat presentation: the empty set, the ground set,
    and one rank-2 flat per constraint with a fulfilling assignment.
    """
    if m.rank != 3 or not m.is_sparse_paving():
        raise NotSparsePavingRank3(
            "the doubling construction needs a rank-3 sparse paving matroid"
        )
    hyper = _check_sign_domain(m, signs)
    nn = 2 * m.n
    lifted = _lifted_nonbases(hyper, signs)
    ground = (1 << nn) - 1
    flats = [0, ground] + lifted
    rho = {0: 0, ground: 3}
    for k in lifted:
        rho[k] = 2
    pres = CyclicFlatPresentation(nn, tuple(flats), rho)
    out = matroid_from_cyclic_flats(pres)
    return Matroid(out.n, out.rank, out.bases, doubled_labels(m))


def grid_matroid() -> Matroid:
    """The 3x3 grid matroid: 9 points, nonbases = grid lines (rows, columns)."""
    lines = [[0, 1, 2], [3, 4, 5], [6, 7, 8], [0, 3, 6], [1, 4, 7], [2, 5, 8]]
    return matroid_from_nonbases(
        9, 3, lines, labels=tuple(str(i + 1) for i in range(9))
    )


BOTTOM_ROW = (6, 7, 8)  # elements 7, 8, 9 in display labels


def build_paper_pair() -> Tuple[Matroid, Matroid]:
    """The quantum-isomorphic, non-isomorphic pair (P, Q) on 18 elements.

    P doubles the grid matroid with the homogeneous sign choice; Q flips
    the sign of the bottom-row constraint.
    """
    m = grid_matroid()
    p = m_s_matroid(m, SignAssignment.homogeneous(m))
    q = m_s_matroid(m, SignAssignment.with_negatives(m, [BOTTOM_ROW]))
    return p, q


# -- the minor obstruction certificate ---------------------------------------


def disjoint_triple_matroid() -> Matroid:
    """Rank 3 on 9 elements with three pairwise disjoint nonbasis triples."""
    return matroid_from_nonbases(9, 3, [[0, 1, 2], [3, 4, 5], [6, 7, 8]])


WITNESS_Y = tuple(
    [lifted_element(a, 1) for a in range(6)]
    + [lifted_element(a, -1) for a in range(6, 9)]
)


def _triple_scan(m: Matroid, k: int) -> Tuple[int, List[int]]:
    """Scan every k-subset in colex order; return (number scanned, matches).

    A match holds exactly three nonbases, pairwise disjoint: their union has
    3 * rank elements.  One numpy pass per nonbasis."""
    pc = popcount_table(m.n)
    xs = np.flatnonzero(pc == k)
    inside = np.empty(len(xs), dtype=bool)
    count = np.zeros(len(xs), dtype=np.uint8)
    union = np.zeros_like(xs)
    for nb in m.nonbases():
        np.equal(xs & nb, nb, out=inside)
        count += inside
        np.bitwise_or(union, nb, out=union, where=inside)
    hit = (count == 3) & (pc[union] == 3 * m.rank)
    return len(xs), xs[hit].tolist()


def minor_obstruction_certificate(p: Matroid, q: Matroid) -> Dict[str, object]:
    """Restriction witness on the Q side, exhaustive absence on the P side.

    A 9-element restriction is isomorphic to the disjoint-triple matroid
    exactly when it contains exactly three nonbasis triples and they are
    pairwise disjoint (they then partition the restriction, and any
    triple-aligned bijection is an isomorphism).
    """
    n_target = disjoint_triple_matroid()

    y_mask = mask_of(WITNESS_Y)
    qy = q.restrict(y_mask)
    hit = find_matroid_isomorphism(qy, n_target, IsoStructure.NONBASES)
    if hit is None:
        raise ConstructionInconsistency("expected restriction witness failed")
    ground_iso = hit[0]

    scanned, matches = _triple_scan(p, n_target.n)
    # anything surviving the filter gets the full isomorphism treatment
    confirmed = [
        x
        for x in matches
        if brute_force_isomorphic(p.restrict(x), n_target) is not None
    ]
    return {
        "pair": "P,Q",
        "restrictionWitness": {
            "Y": sorted(WITNESS_Y),
            "iso": list(ground_iso),
        },
        "pSideScan": {"subsets": scanned, "matches": len(confirmed)},
    }


# -- shared-invariant comparison ----------------------------------------------


def shared_invariant_report(p: Matroid, q: Matroid) -> Dict[str, object]:
    """Classical invariants of the two matroids, side by side."""
    from .relgraph import automorphism_group

    out: Dict[str, object] = {
        "groundSize": [p.n, q.n],
        "rank": [p.rank, q.rank],
        "bases": [len(p.bases), len(q.bases)],
    }
    reps = [derive_sets(m) for m in (p, q)]
    for name, attr in (
        ("independents", "independents"),
        ("circuits", "circuits"),
        ("flats", "flats"),
        ("hyperplanes", "hyperplanes"),
        ("cyclicFlats", "cyclic_flats"),
    ):
        out[name] = [len(getattr(r, attr)) for r in reps]
    out["connectivity"] = [p.connectivity(), q.connectivity()]
    out["tutteEqual"] = tutte_polynomial(p) == tutte_polynomial(q)
    orders = [
        automorphism_group(build_graph(m, IsoStructure.NONBASES)).order
        for m in (p, q)
    ]
    out["relationGraphAutOrders"] = [str(o) for o in orders]
    out["allCountsEqual"] = all(
        v[0] == v[1] for k, v in out.items() if isinstance(v, list) and len(v) == 2
    )
    return out
