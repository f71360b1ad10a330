"""Exhaustive derived data: independents, circuits, flats, Tutte polynomial.

The rank and independence tables run over the full 2^n subset lattice,
vectorized with numpy tables indexed by mask: one sweep per bit position,
O(n * 2^n) total.  The Tutte polynomial and the connectivity scan read
them.  `derive_sets` walks only the independent sets instead, down from
the bases, and reads every family off them and their closures (the flats
are exactly the closures of the independent sets), so its cost follows
|Ind| * n; the 2^n bool tables it marks only deduplicate and order.
Ground sets are guarded (n <= DERIVE_GUARD = 24); exceeding the guard
raises rather than truncating.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import comb
from typing import Dict, Optional, Tuple

import numpy as np

from .errors import GuardExceeded, InvariantViolation

DERIVE_GUARD = 24
ROWS = 1 << 12  # rows per (sets x n) temporary of derive_sets


@lru_cache(maxsize=None)
def popcount_table(n: int) -> np.ndarray:
    """uint8 t with t[mask] = popcount(mask) for masks < 2^n (shared, read-only)."""
    t = np.zeros(1 << n, dtype=np.uint8)
    for i in range(n):
        t[1 << i : 1 << (i + 1)] = t[: 1 << i] + 1
    t.flags.writeable = False
    return t


def popcount(masks: np.ndarray, n: int) -> np.ndarray:
    """Bit counts of an array of masks below 2^n (n <= 64), 16 bits at a time."""
    t = popcount_table(16)
    out = t[masks & 0xFFFF]
    for shift in range(16, n, 16):
        out = out + t[masks >> shift & 0xFFFF]
    return out


def _bit_passes(table: np.ndarray, n: int, visit) -> np.ndarray:
    """Call visit(view) once per bit i on a copy of `table`, with the view of
    shape (-1, 2, 2^i); return the swept copy.

    numpy is slow over runs shorter than 32 entries, so the low
    h = min(n // 2, 5) bits run first on a copy with those index bits moved
    to the top.
    """
    h = min(n // 2, 5)
    low = table.reshape(-1, 1 << h).T.flatten()
    for i in range(n - h, n):
        visit(low.reshape(-1, 2, 1 << i))
    high = low.reshape(-1, 1 << (n - h)).T.flatten()
    for i in range(h, n):
        visit(high.reshape(-1, 2, 1 << i))
    return high


def _guard(m) -> None:
    if m.n > DERIVE_GUARD:
        raise GuardExceeded(
            f"full-lattice enumeration on n={m.n} exceeds the guard"
            f" DERIVE_GUARD = {DERIVE_GUARD}"
        )


def independence_table(m) -> np.ndarray:
    """uint8 table: 1 iff the mask is an independent set of `m` (cached)."""
    _guard(m)

    def build() -> np.ndarray:  # OR over supersets of the bases
        t = np.zeros(1 << m.n, dtype=np.uint8)
        t[list(m.bases)] = 1
        return _bit_passes(
            t, m.n, lambda v: np.bitwise_or(v[:, 0], v[:, 1], out=v[:, 0])
        )

    return m.cached("independence_table", build)


def rank_table(m) -> np.ndarray:
    """uint8 table of subset ranks (cached on the matroid)."""
    _guard(m)
    return m.cached(
        "rank_table",
        lambda: _bit_passes(  # max over subsets of the independent sizes
            popcount_table(m.n) * independence_table(m),
            m.n,
            lambda v: np.maximum(v[:, 1], v[:, 0], out=v[:, 1]),
        ),
    )


@dataclass(frozen=True)
class SubsetReport:
    """Full derived-set listing of a matroid, all families canonical."""

    independents: Tuple[int, ...]
    circuits: Tuple[int, ...]
    flats: Tuple[int, ...]
    hyperplanes: Tuple[int, ...]
    cyclic_flats: Tuple[int, ...]
    loops: int
    coloops: int
    girth: Optional[int]


def derive_sets(m) -> SubsetReport:
    """Enumerate independents, circuits, flats, hyperplanes, cyclic flats (cached)."""
    _guard(m)
    return m.cached("derive_sets", lambda: _derive_sets(m))


def _derive_sets(m) -> SubsetReport:
    n, r = m.n, m.rank
    bits = np.left_shift(1, np.arange(n, dtype=np.int64))
    ind, mark = np.zeros((2, 1 << n), dtype=bool)

    def read() -> np.ndarray:
        """The marked masks in colex order; the marks are cleared."""
        out = np.flatnonzero(mark)
        mark[out] = False
        return out

    # level k - 1 is every I - e over level k; I itself is marked too (for
    # e not in I), so level k is unmarked
    level = np.array(m.bases, dtype=np.int64)
    ind[level] = True
    for _ in range(r):
        for s in range(0, len(level), ROWS):
            mark[level[s : s + ROWS, None] & ~bits] = True
        mark[level] = False
        level = read()
        ind[level] = True
    independents = np.flatnonzero(ind)

    # cl(I) adds each e with I + e dependent.  A circuit C is I + e with
    # e = max C and every C - f independent; cl(I) has rank |I|.
    closures = np.empty_like(independents)
    for s in range(0, len(independents), ROWS):
        rows = independents[s : s + ROWS, None]
        grown = rows | bits
        dep = ~ind[grown]
        closures[s : s + ROWS] = rows[:, 0] | dep @ bits
        new = grown[dep & (bits > rows)]
        mark[new[ind[new[:, None] & ~bits].sum(axis=1) == popcount(new, n)]] = True
    circuits = read()
    mark[closures] = True
    flats = read()
    at = np.searchsorted(flats, closures)
    rank = np.empty(len(flats), dtype=np.uint8)
    rank[at] = popcount(independents, n)
    # the independents closing to F are the bases of M|F: F is cyclic iff
    # M|F has no coloop
    meet = np.full(len(flats), -1, dtype=np.int64)
    np.bitwise_and.at(meet, at, independents)

    # independents, circuits, flats, hyperplanes, cyclic flats
    families = (independents, circuits, flats, flats[rank == r - 1], flats[meet == 0])
    return SubsetReport(
        *(tuple(f.tolist()) for f in families),
        loops=m.loops(),
        coloops=m.coloops(),
        girth=int(popcount(circuits, n).min()) if len(circuits) else None,
    )


class TuttePolynomial:
    """Two-variable integer polynomial, stored as {(i, j): coeff}."""

    def __init__(self, coeffs: Dict[Tuple[int, int], int]):
        self.coeffs = {k: int(v) for k, v in coeffs.items() if v != 0}

    def __call__(self, x, y):
        return sum(c * x**i * y**j for (i, j), c in self.coeffs.items())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TuttePolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def terms_sorted(self):
        return sorted(self.coeffs.items())


def tutte_polynomial(m) -> TuttePolynomial:
    """Corank-nullity sum over all 2^n subsets, exact integers throughout (cached)."""
    _guard(m)
    return m.cached("tutte", lambda: _tutte_polynomial(m))


def _tutte_polynomial(m) -> TuttePolynomial:
    rk = rank_table(m)
    width = m.n - m.rank + 1
    # key = corank * width + nullity < (rank + 1) * width, well inside uint16
    key = np.subtract(m.rank, rk, dtype=np.uint16)
    key *= width
    key += popcount_table(m.n)
    key -= rk
    counts = np.bincount(key, minlength=(m.rank + 1) * width).reshape(-1, width)

    coeffs: Dict[Tuple[int, int], int] = {}
    for c, u in np.argwhere(counts).tolist():
        # counts[c, u] * (x-1)^c (y-1)^u expanded with binomials
        for i, j in product(range(c + 1), range(u + 1)):
            k = int(counts[c, u]) * comb(c, i) * comb(u, j) * (-1) ** (c + u - i - j)
            coeffs[(i, j)] = coeffs.get((i, j), 0) + k
    poly = TuttePolynomial(coeffs)
    if any(v < 0 for v in poly.coeffs.values()):
        raise InvariantViolation("negative coefficient in rank polynomial")
    if poly(1, 1) != len(m.bases):
        raise InvariantViolation("polynomial at (1,1) does not count the bases")
    return poly


def characteristic_polynomial(m) -> Tuple[int, ...]:
    """Coefficients (ascending) of (-1)^rank * T(1 - t, 0)."""
    t = tutte_polynomial(m)
    out = [0] * (m.rank + 1)
    for (i, j), c in t.coeffs.items():
        if j == 0:  # c * (1 - t)^i
            for k in range(i + 1):
                out[k] += c * comb(i, k) * (-1) ** k
    return tuple((-1) ** m.rank * v for v in out)
