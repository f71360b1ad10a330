"""Exhaustive derived data: independents, circuits, flats, Tutte polynomial.

The rank and independence tables run over the full 2^n subset lattice,
vectorized with numpy tables indexed by mask: one sweep per bit position,
O(n * 2^n) total.  The Tutte polynomial and the connectivity scan read
them.  `derive_sets` walks only the independent sets instead, down from
the bases, so its cost follows |Ind| * n; the 2^n bool tables it marks
only deduplicate and order.  Its report is lazy: each family is derived
on first read by one of three passes, and kept.  The walk yields the
independents; the lattice pass closes them (the flats are exactly the
closures of the independent sets) into flats, flat ranks, hyperplanes and
cyclic flats; the circuit pass finds the circuits and the girth.  So a
query of the flats or hyperplanes never finds a circuit.  Ground sets are
guarded (n <= DERIVE_GUARD = 24); exceeding the guard raises rather than
truncating.
"""

from __future__ import annotations

from functools import cached_property, lru_cache, reduce
from itertools import product
from math import comb
from operator import and_, or_
from typing import Dict, Optional, Tuple

import numpy as np

from .bitset import complement, full_mask
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


class SubsetReport:
    """The derived families of a matroid, each computed on first read.

    Three passes fill the fields, each at most once and only when a field
    it yields is read:
    - the walk of the independent sets, down from the bases;
    - the lattice pass: the closures of the independent sets, hence the
      flats, their ranks, the hyperplanes and the cyclic flats;
    - the circuit pass: the circuits and the girth.
    The last two start from the walk's independents.  Every family is a
    canonical (colex) tuple of masks.  The report keeps n, rank and bases,
    not the matroid, so caching it on the matroid makes no reference cycle.
    """

    def __init__(self, n: int, rank: int, bases: Tuple[int, ...]):
        self.n, self.rank, self.bases = n, rank, bases

    @cached_property
    def _walk(self) -> np.ndarray:
        """The independent sets in colex order."""
        bits = _bits(self.n)
        mark = np.zeros(1 << self.n, dtype=bool)
        # level k - 1 is every I - e over level k; I itself is marked too
        # (for e not in I), so level k is unmarked
        levels = [np.array(self.bases, dtype=np.int64)]
        for _ in range(self.rank):
            level = levels[-1]
            for s in range(0, len(level), ROWS):
                mark[level[s : s + ROWS, None] & ~bits] = True
            mark[level] = False
            levels.append(np.flatnonzero(mark))
            mark[levels[-1]] = False
        # marked again, the union comes out in colex order; np.sort would
        # page in numpy's sort kernels, about 0.3 MB of peak RSS
        for level in levels:
            mark[level] = True
        return np.flatnonzero(mark)

    def _table(self) -> np.ndarray:
        """bool table over the 2^n masks: True on the independent sets."""
        ind = np.zeros(1 << self.n, dtype=bool)
        ind[self._walk] = True
        return ind

    @cached_property
    def _lattice(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The flats, the rank of each, and which of them are cyclic."""
        n, independents = self.n, self._walk
        bits, ind = _bits(n), self._table()
        # cl(I) adds each e with I + e dependent; cl(I) has rank |I|
        closures = np.empty_like(independents)
        for s in range(0, len(independents), ROWS):
            rows = independents[s : s + ROWS, None]
            closures[s : s + ROWS] = rows[:, 0] | ~ind[rows | bits] @ bits
        mark = np.zeros(1 << n, dtype=bool)
        mark[closures] = True
        flats = np.flatnonzero(mark)
        at = np.searchsorted(flats, closures)
        rank = np.empty(len(flats), dtype=np.uint8)
        rank[at] = popcount(independents, n)
        # the independents closing to F are the bases of M|F: F is cyclic
        # iff M|F has no coloop
        meet = np.full(len(flats), -1, dtype=np.int64)
        np.bitwise_and.at(meet, at, independents)
        return flats, rank, meet == 0

    @cached_property
    def _circuits(self) -> np.ndarray:
        """The circuits in colex order."""
        n, independents = self.n, self._walk
        bits, ind = _bits(n), self._table()
        # a circuit C is I + e with e = max C and every C - f independent
        mark = np.zeros(1 << n, dtype=bool)
        for s in range(0, len(independents), ROWS):
            rows = independents[s : s + ROWS, None]
            grown = rows | bits
            new = grown[~ind[grown] & (bits > rows)]
            mark[new[ind[new[:, None] & ~bits].sum(axis=1) == popcount(new, n)]] = True
        return np.flatnonzero(mark)

    @cached_property
    def independents(self) -> Tuple[int, ...]:
        return tuple(self._walk.tolist())

    @cached_property
    def circuits(self) -> Tuple[int, ...]:
        return tuple(self._circuits.tolist())

    @cached_property
    def girth(self) -> Optional[int]:
        """Size of the smallest circuit, or None when there is none."""
        c = self._circuits
        return int(popcount(c, self.n).min()) if len(c) else None

    @cached_property
    def flats(self) -> Tuple[int, ...]:
        return tuple(self._lattice[0].tolist())

    @cached_property
    def flat_ranks(self) -> Tuple[int, ...]:
        """The rank of each flat, in the order of `flats`."""
        return tuple(self._lattice[1].tolist())

    @cached_property
    def hyperplanes(self) -> Tuple[int, ...]:
        flats, rank, _ = self._lattice
        return tuple(flats[rank == self.rank - 1].tolist())

    @cached_property
    def cyclic_flats(self) -> Tuple[int, ...]:
        flats, _, cyclic = self._lattice
        return tuple(flats[cyclic].tolist())

    @cached_property
    def loops(self) -> int:
        """Mask of the elements in no basis."""
        return complement(reduce(or_, self.bases, 0), self.n)

    @cached_property
    def coloops(self) -> int:
        """Mask of the elements in every basis."""
        return reduce(and_, self.bases, full_mask(self.n))


def _bits(n: int) -> np.ndarray:
    """int64 array of the singletons 1 << e, e < n."""
    return np.left_shift(1, np.arange(n, dtype=np.int64))


def derive_sets(m) -> SubsetReport:
    """The lazily derived families of `m` (the report is cached on `m`)."""
    _guard(m)
    return m.cached("derive_sets", lambda: _derive_sets(m))


def _derive_sets(m) -> SubsetReport:
    return SubsetReport(m.n, m.rank, m.bases)


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
