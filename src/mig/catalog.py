"""Exhaustive catalogs of all labeled matroids on small ground sets.

Two generation routes:

- brute force over all basis families of r-subsets (only feasible for
  n <= 5, where the largest candidate space is 2^10 families);
- single-element extensions: every matroid on [n] is either a coloop
  extension of its deletion M' on [n-1] or is determined by a modular
  cut of M' (an up-closed family of flats, closed under meets of modular
  pairs, containing the full ground set).  Enumerating modular cuts per
  parent yields each matroid on [n] exactly once.

Neither route re-validates its output.  The brute-force route admits
only exchange-checked families; the tests compare the two routes for
n <= 5, run the exchange check over every matroid through n = 6 and over
a fixed sample at n = 7.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Tuple

from .bitset import iter_bits, subsets_of_size
from .derived import derive_sets
from .errors import ExchangeAxiomViolation, GuardExceeded
from .matroid import Matroid, check_exchange_axiom

CATALOG_GUARD = 7
BRUTE_FAMILY_GUARD = 15  # most candidate bases whose 2^k families are scanned


def _is_basis_family(masks: List[int]) -> bool:
    try:
        check_exchange_axiom(masks)
        return True
    except ExchangeAxiomViolation:
        return False


def brute_force_matroids(n: int, r: int) -> List[Matroid]:
    """All matroids of rank r on [n] by scanning every basis family."""
    candidates = list(subsets_of_size(n, r))
    k = len(candidates)
    if k > BRUTE_FAMILY_GUARD:
        raise GuardExceeded(
            f"2^{k} families of {k} candidate bases exceed the guard"
            f" BRUTE_FAMILY_GUARD = {BRUTE_FAMILY_GUARD} candidates"
        )
    out = []
    for pick in range(1, 1 << k):
        fam = [candidates[i] for i in iter_bits(pick)]
        if _is_basis_family(fam):
            out.append(Matroid(n, r, tuple(fam)))
    return out


def _flat_data(m: Matroid):
    """Flats, their ranks, and lattice tables used for modular cuts."""
    rep = derive_sets(m)
    flats = list(rep.flats)
    idx = {f: i for i, f in enumerate(flats)}
    t = len(flats)
    franks = [m.subset_rank(f) for f in flats]
    up_mask = [0] * t
    for i, f in enumerate(flats):
        for j, g in enumerate(flats):
            if (g & f) == f:
                up_mask[i] |= 1 << j
    # force[i][j]: flats forced into a cut containing both i and j
    force = [[0] * t for _ in range(t)]
    union_rank = [[0] * t for _ in range(t)]
    for i, f in enumerate(flats):
        for j, g in enumerate(flats):
            union_rank[i][j] = m.subset_rank(f | g)
            meet = idx[f & g]  # intersection of flats is a flat
            if franks[i] + franks[j] == union_rank[i][j] + franks[meet]:
                force[i][j] = up_mask[meet]
    return flats, idx, franks, up_mask, force


def _modular_cuts(m: Matroid, flat_data=None) -> List[int]:
    """All modular cuts containing E, as bitmasks over the flat list."""
    flats, idx, franks, up_mask, force = flat_data or _flat_data(m)
    t = len(flats)
    top = idx[m.ground_mask()]

    def close_over(closed: int, new_flats: int) -> int:
        # `closed` is already a modular cut; extend it by the given flats.
        # Only pairs touching a new member can force anything further.
        seen = closed
        m = new_flats
        while m:
            low = m & -m
            m ^= low
            seen |= up_mask[low.bit_length() - 1]
        work = seen & ~closed
        pending = []
        while work:
            low = work & -work
            work ^= low
            pending.append(low.bit_length() - 1)
        while pending:
            x = pending.pop()
            row = force[x]
            before = seen
            mm = before
            while mm:
                low = mm & -mm
                mm ^= low
                seen |= row[low.bit_length() - 1]
            added = seen & ~before
            while added:
                low = added & -added
                added ^= low
                pending.append(low.bit_length() - 1)
        return seen

    start = close_over(0, 1 << top)
    found = {start}
    frontier = [start]
    while frontier:
        cut = frontier.pop()
        rest = ((1 << t) - 1) & ~cut
        while rest:
            low = rest & -rest
            rest ^= low
            bigger = close_over(cut, low)
            if bigger not in found:
                found.add(bigger)
                frontier.append(bigger)
    return sorted(found)


def extensions(m: Matroid) -> List[Matroid]:
    """All matroids on [n+1] whose deletion of element n equals `m`."""
    n, r = m.n, m.rank
    new_bit = 1 << n
    out = [Matroid(n + 1, r + 1, tuple(sorted(b | new_bit for b in m.bases)))]

    flat_data = _flat_data(m)
    flats, idx, franks, up_mask, force = flat_data
    # group the (r-1)-element independents by their closure: whether the
    # new element completes one to a basis depends only on that flat
    corank1 = {b ^ (1 << e) for b in m.bases for e in iter_bits(b)}
    by_flat: Dict[int, List[int]] = {}
    for a in corank1:
        by_flat.setdefault(idx[m.closure(a)], []).append(a)

    for cut in _modular_cuts(m, flat_data):
        fam = list(m.bases)
        for fi, members in by_flat.items():
            if not (cut >> fi) & 1:
                fam.extend(a | new_bit for a in members)
        out.append(Matroid(n + 1, r, tuple(sorted(fam))))
    return out


@lru_cache(maxsize=None)
def all_matroids(n: int) -> Tuple[Matroid, ...]:
    """Every labeled matroid on ground set [n], canonically ordered."""
    if n > CATALOG_GUARD:
        raise GuardExceeded(
            f"catalog generation on n={n} exceeds the guard"
            f" CATALOG_GUARD = {CATALOG_GUARD}"
        )
    if n == 0:
        return (Matroid(0, 0, (0,)),)
    if n <= 5:
        out: List[Matroid] = []
        for r in range(n + 1):
            out.extend(brute_force_matroids(n, r))
    else:
        # build ranks <= n/2 by extension, the rest as duals; this skips
        # cut enumeration over the flat-heavy high-rank parents
        half = n // 2
        low = []
        for parent in all_matroids(n - 1):
            if parent.rank > half:
                continue
            low.extend(m for m in extensions(parent) if m.rank <= half)
        out = list(low)
        out.extend(m.dual() for m in low if 2 * m.rank < n)
    return tuple(out)


def catalog_counts(n: int) -> Dict[int, int]:
    """Number of labeled matroids on [n] by rank."""
    counts: Dict[int, int] = {}
    for m in all_matroids(n):
        counts[m.rank] = counts.get(m.rank, 0) + 1
    return counts
