"""Exhaustive catalogs of all labeled matroids on small ground sets.

Two generation routes:

- brute force over all basis families of r-subsets (only feasible for
  n <= 5, where the largest candidate space is 2^10 families);
- single-element extensions: every matroid on [n] is either a coloop
  extension of its deletion M' on [n-1] or is fixed by a linear subclass
  of the hyperplanes of M': a set that holds every hyperplane on a coline
  (a flat of rank r - 2) once it holds two of them (Oxley, *Matroid
  Theory*, Sec. 7.2).  The new element completes an (r-1)-element
  independent set to a basis iff the set's closure, a hyperplane, lies
  outside the subclass, so each subclass gives one matroid on [n].

Neither route re-validates its output.  The brute-force route admits
only exchange-checked families; the tests compare the two routes for
n <= 5, compare the extensions with a modular-cut enumeration over the
whole flat lattice through n = 6, run the exchange check over every
matroid through n = 6 and over a fixed sample at n = 7.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Tuple

from .bitset import iter_bits, subsets_of_size
from .derived import derive_sets, rank_table
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


def _linear_subclasses(k: int, lines: List[int]) -> List[int]:
    """Every linear subclass of k hyperplanes, as bitmasks over them, sorted.

    `lines[j]` marks the hyperplanes on coline j; a subclass holding two
    of them holds all.  Grown one member at a time from the empty one.
    """

    def close(s: int) -> int:
        for line in lines:
            on = s & line
            if on != line and on & (on - 1):
                return close(s | line)
        return s

    found = {0}
    frontier = [0]
    while frontier:
        s = frontier.pop()
        for i in iter_bits(((1 << k) - 1) & ~s):
            bigger = close(s | 1 << i)
            if bigger not in found:
                found.add(bigger)
                frontier.append(bigger)
    return sorted(found)


def extensions(m: Matroid) -> List[Matroid]:
    """All matroids on [n+1] whose deletion of element n equals `m`.

    The coloop extension first, then one per linear subclass S, sorted as
    a bitmask over the hyperplanes.  That is the order of S's modular cut
    as a bitmask over `derive_sets(m).flats`: any other flat where two cuts
    differ lies in a hyperplane where they differ, whose mask is larger.
    """
    n, r = m.n, m.rank
    new_bit = 1 << n
    out = [Matroid(n + 1, r + 1, tuple(sorted(b | new_bit for b in m.bases)))]

    rep = derive_sets(m)
    hyps, rk = rep.hyperplanes, rank_table(m)

    def over(f: int) -> int:
        """The hyperplanes that contain f, as a bitmask."""
        return sum(1 << i for i, h in enumerate(hyps) if f & ~h == 0)

    lines = [over(f) for f in rep.flats if rk[f] == r - 2]
    # an (r-1)-element independent set lies in one hyperplane, its closure
    completed: List[List[int]] = [[] for _ in hyps]
    for a in {b ^ (1 << e) for b in m.bases for e in iter_bits(b)}:
        completed[over(a).bit_length() - 1].append(a | new_bit)

    for s in _linear_subclasses(len(hyps), lines):
        fam = [*m.bases]
        for i, members in enumerate(completed):
            if not s >> i & 1:
                fam.extend(members)
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
