"""The six isomorphism structures, pointed sets, and covering.

A structure kind maps a matroid to a subset family (bases, nonbases,
independent sets, circuits, flats, or hyperplanes).  A pointed set is a
(member set, chosen element) pair; two pointed sets compare into rel
{0,1,2,3} by (same set?, same point?), which the relation graphs compute
(`RelColoredGraph.rel_table`).

`covers` evaluates the definition (every ground element lies in some
member), and `require_covering` is the one gate that turns a negative
answer into `NotCovering`.  An independent rank-function
characterization for the bases / circuits / nonbases kinds is kept as a
private oracle (`_covered_by_characterization`) for the tests and the
CLI spot check; it never runs on the production path.
"""

from __future__ import annotations

from enum import Enum
from math import comb
from typing import Dict, NamedTuple, Optional, Tuple

from .bitset import elements_of, full_mask, iter_bits
from .derived import derive_sets
from .errors import NotCovering, UnsupportedKind
from .matroid import Matroid


class IsoStructure(str, Enum):
    BASES = "bases"
    NONBASES = "nonbases"
    INDEPENDENT = "independent"
    CIRCUITS = "circuits"
    FLATS = "flats"
    HYPERPLANES = "hyperplanes"


class PointedSet(NamedTuple):
    members: int  # subset mask
    point: int  # element of the subset

    def to_json(self) -> Dict[str, object]:
        return {"set": elements_of(self.members), "point": self.point}


def structure_sets(m: Matroid, kind: IsoStructure) -> Tuple[int, ...]:
    """The subset family of the given kind, canonically ordered (cached)."""
    return m.cached(("structure", kind), lambda: _structure_sets(m, kind))


# the `derive_sets` field of each kind; a report derives only what is read
_FAMILY = {
    IsoStructure.INDEPENDENT: "independents",
    IsoStructure.CIRCUITS: "circuits",
    IsoStructure.FLATS: "flats",
    IsoStructure.HYPERPLANES: "hyperplanes",
}


def _structure_sets(m: Matroid, kind: IsoStructure) -> Tuple[int, ...]:
    if kind is IsoStructure.BASES:
        return m.bases
    if kind is IsoStructure.NONBASES:
        return m.nonbases()
    return getattr(derive_sets(m), _FAMILY[kind])


def pointed_sets(m: Matroid, kind: IsoStructure) -> Tuple[PointedSet, ...]:
    """All (member set, point) pairs, ordered by set (colex) then point (cached)."""
    return m.cached(
        ("pointed", kind),
        lambda: tuple(
            PointedSet(a, p) for a in structure_sets(m, kind) for p in iter_bits(a)
        ),
    )


class CoverResult(NamedTuple):
    covered: bool
    witness: Optional[int]  # an uncovered element when covered is False


def covers(m: Matroid, kind: IsoStructure) -> CoverResult:
    """Does every ground element lie in some member of the family? (cached)"""
    return m.cached(("covers", kind), lambda: _covers(m, kind))


def _covers(m: Matroid, kind: IsoStructure) -> CoverResult:
    union = 0
    for a in structure_sets(m, kind):
        union |= a
    missing = full_mask(m.n) & ~union
    if missing == 0:
        return CoverResult(True, None)
    return CoverResult(False, (missing & -missing).bit_length() - 1)


def require_covering(kind: IsoStructure, *matroids: Matroid) -> None:
    """Raise NotCovering naming the first uncovered element and its side."""
    for side, m in zip(("first", "second"), matroids):
        res = covers(m, kind)
        if not res.covered:
            raise NotCovering(
                f"{kind.value} misses element {res.witness} of the {side} matroid"
            )


def _covered_by_characterization(m: Matroid, kind: IsoStructure) -> bool:
    """Covering through the rank function, independent of the family.

    Bases cover iff there is no loop, circuits iff there is no coloop, and
    nonbases iff no element falls under one of the two structural cases of
    `_nonbases_miss`.  The tests use it as the oracle for `covers`.
    """
    if kind is IsoStructure.BASES:
        return all(m.subset_rank(1 << e) == 1 for e in range(m.n))
    if kind is IsoStructure.CIRCUITS:
        ground = full_mask(m.n)
        return all(
            m.subset_rank(ground ^ (1 << e)) == m.rank for e in range(m.n)
        )
    if kind is IsoStructure.NONBASES:
        return not any(_nonbases_miss(m, e) for e in range(m.n))
    raise UnsupportedKind(f"{kind.value} has no covering characterization")


def _nonbases_miss(m: Matroid, e: int) -> bool:
    """Is element e outside every nonbasis, per the two structural cases?

    Either deleting e leaves a paving matroid of full rank whose free
    extension by e recovers m, or e is a coloop over a uniform remainder.
    When m is that free extension, the deletion is paving exactly when m
    is, so the paving test is made once per m, on m.
    """
    rest = m.delete(1 << e)
    if rest.rank == m.rank:
        # the deletion re-indexes the rest; its free extension adds e last
        keep = [x for x in range(m.n) if x != e]
        freed = rest.free_extension().relabel(keep + [e])
        return freed.bases == m.bases and m.is_paving()
    if rest.rank == m.rank - 1:
        # e lies in every basis; remainder must be uniform
        return len(rest.bases) == comb(rest.n, rest.rank)
    return False
