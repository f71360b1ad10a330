"""Build a matroid from its lattice of cyclic flats and their ranks.

A presentation is a family of flats (masks) that must form a lattice
under inclusion, plus a rank value per flat.  The three presentation
axioms are checked with explicit witnesses before reconstruction.  The
reconstructed rank function is

    rk(A) = min over presented flats F of  rho(F) + |A \\ F|.

Nothing is re-derived here.  The tests hold the oracle for this route:
every catalog matroid through n = 6 is rebuilt from its own cyclic flats,
and the doubled-grid reconstructions give back their presentations when
their cyclic flats are re-derived.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Dict, Tuple

import numpy as np

from .bitset import subsets_of_size
from .derived import popcount
from .errors import AxiomViolation, ConstructionInconsistency
from .matroid import MAX_GROUND, Matroid, _ground_guard, check_basis_scan


@dataclass(frozen=True)
class CyclicFlatPresentation:
    n: int
    flats: Tuple[int, ...]
    rho: Dict[int, int]

    def __post_init__(self):
        object.__setattr__(self, "flats", tuple(sorted(set(self.flats))))


def _lattice_join(flats, x: int, y: int):
    ubs = [f for f in flats if (f & x) == x and (f & y) == y]
    if not ubs:
        return None
    least = ubs[0]
    for f in ubs[1:]:
        least &= f
    return least if least in ubs else None


def _lattice_meet(flats, x: int, y: int):
    lbs = [f for f in flats if (f | x) == x and (f | y) == y]
    if not lbs:
        return None
    greatest = 0
    for f in lbs:
        greatest |= f
    return greatest if greatest in lbs else None


def check_presentation(pres: CyclicFlatPresentation) -> None:
    """Verify the lattice structure and the three rank axioms."""
    flats = pres.flats
    rho = pres.rho
    if not flats:
        raise AxiomViolation(0, 0, 0, "empty family is not a lattice")
    if set(rho) != set(flats):
        raise AxiomViolation(0, 0, 0, "rank map domain differs from the family")
    joins = {}
    meets = {}
    for i, x in enumerate(flats):  # join and meet are symmetric
        for y in flats[i:]:
            j = _lattice_join(flats, x, y)
            w = _lattice_meet(flats, x, y)
            if j is None or w is None:
                raise AxiomViolation(0, x, y, "pair has no join or no meet")
            joins[(x, y)] = joins[(y, x)] = j
            meets[(x, y)] = meets[(y, x)] = w
    bottom = flats[0]
    for f in flats[1:]:
        bottom = meets[(bottom, f)]
    if rho[bottom] != 0:
        raise AxiomViolation(1, bottom, bottom, "minimal flat must have rank 0")
    for x in flats:
        for y in flats:
            if x != y and (x & y) == x:  # x strictly inside y
                d = rho[y] - rho[x]
                if not (0 < d < (y & ~x).bit_count()):
                    raise AxiomViolation(2, x, y)
    for i, x in enumerate(flats):
        for y in flats[i:]:
            lhs = rho[x] + rho[y]
            rhs = (
                rho[joins[(x, y)]]
                + rho[meets[(x, y)]]
                + (x & y & ~meets[(x, y)]).bit_count()
            )
            if lhs < rhs:
                raise AxiomViolation(3, x, y)


def matroid_from_cyclic_flats(pres: CyclicFlatPresentation) -> Matroid:
    """Reconstruct the unique matroid with the presented cyclic flats."""
    check_presentation(pres)
    n = pres.n
    if n > MAX_GROUND:  # the r-subsets are held as uint64
        raise _ground_guard(n)
    full = (1 << n) - 1
    r = min(pres.rho[f] + (full & ~f).bit_count() for f in pres.flats)
    check_basis_scan(n, r)
    subsets = np.fromiter(subsets_of_size(n, r), dtype=np.uint64, count=comb(n, r))
    keep = np.ones(len(subsets), dtype=bool)  # rk(A) = r: every flat's term >= r
    for f in pres.flats:
        keep &= popcount(subsets & (full & ~f), n) >= r - pres.rho[f]
    if not keep.any():
        raise ConstructionInconsistency("presentation produced no bases")
    return Matroid(n, r, tuple(subsets[keep].tolist()))
