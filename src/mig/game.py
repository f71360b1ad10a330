"""The matroid isomorphism game and linear binary constraint systems.

Game instance: the question/answer alphabet is the vertices of M's
relation graph g (the M side) followed by those of N's graph h (the N
side), so letter i < |g| is g's vertex i and letter |g| + j is h's vertex
j.  A round is won when each player answers on the side opposite to their
question and the two M-side pointed sets relate exactly as the two N-side
pointed sets do, rel being (rows differ) + 2 * (points differ) as in
`RelColoredGraph.rel_table`.  `evaluate_strategy` checks one question row
at a time against all others, so it needs O(k) memory on an alphabet of k.

LBCS: +/-1 variables with signed parity constraints, played by assigning
values to the variables of the received constraint; a pair of answers
wins when both constraints are satisfied and shared variables agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .bitset import mask_of
from .errors import GuardExceeded, MalformedAssignment, OutOfAlphabet
from .matroid import Matroid
from .relgraph import build_graph
from .structures import IsoStructure, require_covering

LBCS_VARS_GUARD = 24  # most variables whose 2^v assignments are scanned


class IsoGameInstance:
    """The isomorphism game for (M, N, structure) on their relation graphs."""

    def __init__(self, m: Matroid, n: Matroid, kind: IsoStructure):
        require_covering(kind, m, n)
        self.g, self.h = build_graph(m, kind), build_graph(n, kind)

    def size(self) -> int:
        return self.g.n + self.h.n


@dataclass(frozen=True)
class DeterministicStrategy:
    """A single answer function over the joint alphabet."""

    mapping: Tuple[int, ...]

    def __call__(self, idx: int) -> int:
        return self.mapping[idx]


def evaluate_strategy(
    inst: IsoGameInstance, strategy: DeterministicStrategy
) -> Dict[str, object]:
    """Check every question pair; report the least counterexample if any.

    Each letter a and its answer f(a) give one M-side vertex and one N-side
    vertex.  Row a loses at column 0 when f(a) sits on a's own side, and
    otherwise at each b whose answer does, or whose pair of vertices
    differs from a's in row equality or in point equality between the two
    sides.  Rows are scanned in order, so the counterexample is the least
    (a, b) in row-major order.
    """
    g, h = inst.g, inst.h
    k = g.n + h.n
    if len(strategy.mapping) != k:
        raise OutOfAlphabet("strategy is not total on the alphabet")
    for a, x in enumerate(strategy.mapping):
        if not 0 <= x < k:
            raise OutOfAlphabet(
                f"strategy maps letter {a} to {x}, outside the alphabet of size {k}"
            )
    answer = np.array(strategy.mapping, dtype=np.int64)
    letter = np.arange(k)
    asked_m = letter < g.n
    lost = asked_m == (answer < g.n)
    # each letter's M-side and N-side vertex; a lost letter, whose row and
    # column fail anyway, reads the -1 appended past each graph's vertices
    vm = np.where(lost, g.n, np.where(asked_m, letter, answer))
    vn = np.where(lost, h.n, np.where(asked_m, answer, letter) - g.n)
    row_m, point_m = (np.append(c, -1)[vm] for c in (g.row_of, g.point_of))
    row_n, point_n = (np.append(c, -1)[vn] for c in (h.row_of, h.point_of))
    for a in range(k):
        if lost[a]:
            return {"perfect": False, "counterexample": (a, 0)}
        bad = lost | ((row_m != row_m[a]) != (row_n != row_n[a]))
        bad |= (point_m != point_m[a]) != (point_n != point_n[a])
        if bad.any():
            return {"perfect": False, "counterexample": (a, int(bad.argmax()))}
    return {"perfect": True, "counterexample": None}


# -- linear binary constraint systems ----------------------------------------


@dataclass(frozen=True)
class Constraint:
    variables: Tuple[int, ...]  # ascending variable indices
    sign: int  # +1 or -1

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(sorted(self.variables)))


@dataclass(frozen=True)
class LBCS:
    """Binary variables with signed parity constraints, multiplicative form."""

    num_vars: int
    constraints: Tuple[Constraint, ...]

    def __post_init__(self):
        for c in self.constraints:
            if not c.variables:
                raise MalformedAssignment("empty constraint")
            if c.sign not in (+1, -1):
                raise MalformedAssignment(f"sign {c.sign} is not +/-1")
            if c.variables[0] < 0 or c.variables[-1] >= self.num_vars:
                raise MalformedAssignment("constraint variable out of range")

    def to_json(self) -> Dict[str, object]:
        return {
            "vars": self.num_vars,
            "constraints": [
                {"vars": list(c.variables), "sign": c.sign} for c in self.constraints
            ],
        }


def _check_assignment(c: Constraint, assignment: Sequence[int]) -> None:
    if len(assignment) != len(c.variables):
        raise MalformedAssignment(
            f"assignment length {len(assignment)} for {len(c.variables)} variables"
        )
    for v in assignment:
        if v not in (+1, -1):
            raise MalformedAssignment(f"value {v} is not +/-1")


def lbcs_predicate(
    lbcs: LBCS,
    ha: int,
    hb: int,
    ka: Sequence[int],
    kb: Sequence[int],
) -> int:
    """1 when both assignments satisfy their constraints and agree on overlap.

    Assignments align with the ascending variable order of each constraint.
    """
    ca, cb = lbcs.constraints[ha], lbcs.constraints[hb]
    _check_assignment(ca, ka)
    _check_assignment(cb, kb)
    pa = 1
    for v in ka:
        pa *= v
    pb = 1
    for v in kb:
        pb *= v
    if pa != ca.sign or pb != cb.sign:
        return 0
    val_a = dict(zip(ca.variables, ka))
    for var, vb in zip(cb.variables, kb):
        if var in val_a and val_a[var] != vb:
            return 0
    return 1


def lbcs_solutions(lbcs: LBCS) -> List[Tuple[int, ...]]:
    """All global +/-1 assignments satisfying every constraint (brute force)."""
    v = lbcs.num_vars
    if v > LBCS_VARS_GUARD:
        raise GuardExceeded(
            f"{v} variables exceed the solution-scan guard"
            f" LBCS_VARS_GUARD = {LBCS_VARS_GUARD}"
        )
    codes = np.arange(1 << v, dtype=np.uint32)
    good = np.ones(1 << v, dtype=bool)
    for c in lbcs.constraints:
        m = np.uint32(mask_of(c.variables))
        bits = codes & m
        # parity of set bits; a set bit encodes value -1
        bits = bits ^ (bits >> np.uint32(16))
        bits = bits ^ (bits >> np.uint32(8))
        bits = bits ^ (bits >> np.uint32(4))
        bits = bits ^ (bits >> np.uint32(2))
        bits = bits ^ (bits >> np.uint32(1))
        parity = bits & np.uint32(1)
        want = 0 if c.sign == 1 else 1
        good &= parity == want
    out = []
    for code in np.nonzero(good)[0]:
        code = int(code)
        out.append(tuple(-1 if code >> i & 1 else 1 for i in range(v)))
    return out
