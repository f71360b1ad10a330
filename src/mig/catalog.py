"""Exhaustive catalogs of all labeled matroids on small ground sets.

The catalog is built by single-element extensions: every matroid on [n]
is either a coloop extension of its deletion M' on [n-1] or is fixed by a
linear subclass of the hyperplanes of M': a set that holds every
hyperplane on a coline (a flat of rank r - 2) once it holds two of them
(Oxley, *Matroid Theory*, Sec. 7.2).  The new element completes an
(r-1)-element independent set to a basis iff the set's closure, a
hyperplane, lies outside the subclass, so each subclass gives one
matroid on [n].

The route does not re-validate its output.  The tests compare it with a
brute-force scan of every basis family for n <= 5, compare the
extensions with a modular-cut enumeration over the whole flat lattice
through n = 6, run the exchange check over every matroid through n = 6
and over a fixed sample at n = 7.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import List, Tuple

from .bitset import iter_bits
from .derived import derive_sets
from .errors import GuardExceeded
from .matroid import Matroid

CATALOG_GUARD = 7


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
    hyps = rep.hyperplanes

    def over(f: int) -> int:
        """The hyperplanes that contain f, as a bitmask."""
        return sum(1 << i for i, h in enumerate(hyps) if f & ~h == 0)

    lines = [over(f) for f, k in zip(rep.flats, rep.flat_ranks) if k == r - 2]
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


def _colex_index(mask: int) -> int:
    """The position of `mask` among the subsets of its size in colex order."""
    return sum(comb(c, i + 1) for i, c in enumerate(iter_bits(mask)))


@lru_cache(maxsize=None)
def all_matroids(n: int) -> Tuple[Matroid, ...]:
    """Every labeled matroid on ground set [n], canonically ordered.

    Ranks <= n/2 come by extension, the rest as duals; this skips cut
    enumeration over the flat-heavy high-rank parents.  For n <= 5 the
    catalog is then sorted by rank and by its basis family read as a
    bitmask over the colex-ordered r-subsets, the order of a scan over
    every basis family; from n = 6 on it stays in construction order.
    """
    if n > CATALOG_GUARD:
        raise GuardExceeded(
            f"catalog generation on n={n} exceeds the guard"
            f" CATALOG_GUARD = {CATALOG_GUARD}"
        )
    if n == 0:
        return (Matroid(0, 0, (0,)),)
    half = n // 2
    low: List[Matroid] = []
    for parent in all_matroids(n - 1):
        if parent.rank > half:
            continue
        low.extend(m for m in extensions(parent) if m.rank <= half)
    out = low + [m.dual() for m in low if 2 * m.rank < n]
    if n <= 5:
        out.sort(key=lambda m: (m.rank, sum(1 << _colex_index(b) for b in m.bases)))
    return tuple(out)
