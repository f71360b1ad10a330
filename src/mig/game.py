"""The matroid isomorphism game and linear binary constraint systems.

Game instance: both players share the question/answer alphabet made of
the pointed sets of both matroids (tagged by side).  A round is won when
each player answers on the side opposite to their question and the two
M-side pointed sets relate exactly as the two N-side pointed sets do.

LBCS: +/-1 variables with signed parity constraints, played by assigning
values to the variables of the received constraint; a pair of answers
wins when both constraints are satisfied and shared variables agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .bitset import iter_bits, mask_of
from .errors import (
    GuardExceeded,
    MalformedAssignment,
    NotAnIsomorphism,
    OutOfAlphabet,
)
from .matroid import Matroid
from .relgraph import build_graph, induced_map
from .structures import IsoStructure, PointedSet, pointed_sets, rel, require_covering

FUNCTIONAL_SEARCH_CAP = 8  # largest alphabet the exhaustive strategy scan takes
LBCS_VARS_GUARD = 24  # most variables whose 2^v assignments are scanned


class IsoGameInstance:
    """The isomorphism game for (M, N, structure)."""

    def __init__(self, m: Matroid, n: Matroid, kind: IsoStructure):
        require_covering(kind, m, n)
        self.m = m
        self.n = n
        self.kind = kind
        self.m_points = pointed_sets(m, kind)
        self.n_points = pointed_sets(n, kind)
        # alphabet: M-side pointed sets first, then N-side
        self.alphabet: Tuple[Tuple[int, PointedSet], ...] = tuple(
            [(0, p) for p in self.m_points] + [(1, p) for p in self.n_points]
        )
        self.split = len(self.m_points)
        self._sides = tuple(s for s, _ in self.alphabet)
        self._points = tuple(p for _, p in self.alphabet)

    def size(self) -> int:
        return len(self.alphabet)

    def predicate(self, a: int, b: int, x: int, y: int) -> int:
        """1 when answers (x, y) win against questions (a, b)."""
        k = len(self.alphabet)
        for idx in (a, b, x, y):
            if not 0 <= idx < k:
                raise OutOfAlphabet(
                    f"index {idx} outside alphabet of size {k}"
                )
        sides, points = self._sides, self._points
        sa, sb = sides[a], sides[b]
        if sides[x] == sa or sides[y] == sb:
            return 0
        pa, pb = points[a], points[b]
        px, py = points[x], points[y]
        c, v = (pa, px) if sa == 0 else (px, pa)
        d, w = (pb, py) if sb == 0 else (py, pb)
        return int(rel(c, d) == rel(v, w))


def check_bisynchronous(inst: IsoGameInstance) -> bool:
    """Equal questions force equal answers; distinct ones forbid them.

    Both diagonal conditions reduce to one fact about the alphabet.  The
    predicate compares (same set?, same point?) of two pointed sets, which
    is rel, and rel is 0 exactly when the two pointed sets are equal.  So
    predicate(a, a, x, y) wins exactly when x and y sit on the side
    opposite a and carry the same pointed set, and predicate(a, b, x, x)
    wins exactly when a and b sit on the side opposite x and carry the
    same pointed set.  A violation therefore needs two distinct letters
    on one side with the same pointed set, and a letter on the other side.
    """
    sides = (inst.m_points, inst.n_points)
    if not all(sides):
        return True
    return all(len(set(points)) == len(points) for points in sides)


@dataclass(frozen=True)
class DeterministicStrategy:
    """A single answer function over the joint alphabet."""

    mapping: Tuple[int, ...]

    def __call__(self, idx: int) -> int:
        return self.mapping[idx]


def evaluate_strategy(
    inst: IsoGameInstance, strategy: DeterministicStrategy
) -> Dict[str, object]:
    """Scan every question pair; report the least counterexample if any."""
    k = inst.size()
    if len(strategy.mapping) != k:
        raise OutOfAlphabet("strategy is not total on the alphabet")
    for a in range(k):
        fa = strategy(a)
        for b in range(k):
            if not inst.predicate(a, b, fa, strategy(b)):
                return {"perfect": False, "counterexample": (a, b)}
    return {"perfect": True, "counterexample": None}


def strategy_from_iso(
    inst: IsoGameInstance, ground_map: Sequence[int]
) -> DeterministicStrategy:
    """The strategy induced by a ground-set isomorphism of the two matroids."""
    m, n = inst.m, inst.n
    if sorted(ground_map) != list(range(n.n)) or m.n != n.n:
        raise NotAnIsomorphism("not a bijection between the ground sets")
    bset = set(n.bases)
    for b in m.bases:
        if mask_of(ground_map[e] for e in iter_bits(b)) not in bset:
            raise NotAnIsomorphism(f"basis {b:#x} is not carried to a basis")
    if len(m.bases) != len(n.bases):
        raise NotAnIsomorphism("basis counts differ")
    inverse = [0] * n.n
    for e in range(m.n):
        inverse[ground_map[e]] = e
    g, h = build_graph(m, inst.kind), build_graph(n, inst.kind)
    forward = tuple(inst.split + w for w in induced_map(g, h, ground_map))
    return DeterministicStrategy(forward + induced_map(h, g, inverse))


def exhaustive_perfect_strategy(
    inst: IsoGameInstance,
) -> Optional[DeterministicStrategy]:
    """Backtracking scan over all answer functions (test oracle only)."""
    k = inst.size()
    if k > FUNCTIONAL_SEARCH_CAP:
        raise GuardExceeded(
            f"alphabet of {k} exceeds the functional-search guard"
            f" FUNCTIONAL_SEARCH_CAP = {FUNCTIONAL_SEARCH_CAP}"
        )
    choice: List[int] = []

    def extend(a: int) -> bool:
        if a == k:
            return True
        for x in range(k):
            ok = True
            for b in range(a):
                if not inst.predicate(a, b, x, choice[b]) or not inst.predicate(
                    b, a, choice[b], x
                ):
                    ok = False
                    break
            if ok and inst.predicate(a, a, x, x):
                choice.append(x)
                if extend(a + 1):
                    return True
                choice.pop()
        return False

    if extend(0):
        return DeterministicStrategy(tuple(choice))
    return None


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
    import numpy as np

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
