"""Reference routes that the tests compare the library against.

`rel` compares two pointed sets directly, `OracleGame` scores the
isomorphism game one predicate call at a time over its own copy of the
alphabet, and `strategy_from_iso` and `brute_force_automorphism_count`
build the classical strategy of a ground isomorphism and count ground
automorphisms outright.
"""

from itertools import permutations
from typing import Dict, Sequence

from mig.bitset import iter_bits, mask_of
from mig.errors import GuardExceeded, OutOfAlphabet
from mig.game import DeterministicStrategy
from mig.matroid import BRUTE_ISO_GUARD, Matroid
from mig.relgraph import build_graph, induced_map
from mig.structures import IsoStructure, PointedSet, pointed_sets


def rel(a: PointedSet, b: PointedSet) -> int:
    """Four-valued comparison: 0 equal, 1 same point, 2 same set, 3 neither."""
    if a.members == b.members:
        return 0 if a.point == b.point else 2
    return 1 if a.point == b.point else 3


class OracleGame:
    """The isomorphism game over explicit pointed-set lists, M side first."""

    def __init__(self, m_points: Sequence[PointedSet], n_points: Sequence[PointedSet]):
        self.split = len(m_points)
        self._sides = (0,) * len(m_points) + (1,) * len(n_points)
        self._points = tuple(m_points) + tuple(n_points)

    @classmethod
    def of(cls, m: Matroid, n: Matroid, kind: IsoStructure) -> "OracleGame":
        return cls(pointed_sets(m, kind), pointed_sets(n, kind))

    def size(self) -> int:
        return len(self._points)

    def predicate(self, a: int, b: int, x: int, y: int) -> int:
        """1 when answers (x, y) win against questions (a, b)."""
        k = self.size()
        for idx in (a, b, x, y):
            if not 0 <= idx < k:
                raise OutOfAlphabet(f"index {idx} outside alphabet of size {k}")
        sides, points = self._sides, self._points
        sa, sb = sides[a], sides[b]
        if sides[x] == sa or sides[y] == sb:
            return 0
        pa, pb = points[a], points[b]
        px, py = points[x], points[y]
        c, v = (pa, px) if sa == 0 else (px, pa)
        d, w = (pb, py) if sb == 0 else (py, pb)
        return int(rel(c, d) == rel(v, w))

    def evaluate(self, mapping: Sequence[int]) -> Dict[str, object]:
        """Scan every question pair; report the least counterexample if any."""
        k = self.size()
        if len(mapping) != k:
            raise OutOfAlphabet("strategy is not total on the alphabet")
        for a in range(k):
            for b in range(k):
                if not self.predicate(a, b, mapping[a], mapping[b]):
                    return {"perfect": False, "counterexample": (a, b)}
        return {"perfect": True, "counterexample": None}


def strategy_from_iso(
    m: Matroid, n: Matroid, kind: IsoStructure, ground_map: Sequence[int]
) -> DeterministicStrategy:
    """The strategy induced by a ground-set isomorphism of the two matroids.

    ValueError when the map is not an isomorphism.
    """
    if sorted(ground_map) != list(range(n.n)) or m.n != n.n:
        raise ValueError("not a bijection between the ground sets")
    bset = set(n.bases)
    for b in m.bases:
        if mask_of(ground_map[e] for e in iter_bits(b)) not in bset:
            raise ValueError(f"basis {b:#x} is not carried to a basis")
    if len(m.bases) != len(n.bases):
        raise ValueError("basis counts differ")
    inverse = [0] * n.n
    for e in range(m.n):
        inverse[ground_map[e]] = e
    g, h = build_graph(m, kind), build_graph(n, kind)
    forward = tuple(g.n + w for w in induced_map(g, h, ground_map))
    return DeterministicStrategy(forward + induced_map(h, g, inverse))


def brute_force_automorphism_count(m: Matroid) -> int:
    """Count all basis-preserving ground permutations (oracle-scale)."""
    if m.n > BRUTE_ISO_GUARD:
        raise GuardExceeded(
            f"brute-force automorphism count on n={m.n} exceeds the guard"
            f" BRUTE_ISO_GUARD = {BRUTE_ISO_GUARD}"
        )
    bset = set(m.bases)
    count = 0
    for perm in permutations(range(m.n)):
        ok = True
        for b in m.bases:
            if mask_of(perm[e] for e in iter_bits(b)) not in bset:
                ok = False
                break
        if ok:
            count += 1
    return count
