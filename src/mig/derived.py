"""Exhaustive derived data: independents, circuits, flats, Tutte polynomial.

Everything here runs over the full 2^n subset lattice, vectorized with
numpy tables indexed by mask.  The transforms are the usual
subset-lattice sweeps: one pass per bit position, O(n * 2^n) total.
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


@lru_cache(maxsize=None)
def popcount_table(n: int) -> np.ndarray:
    """uint8 array t with t[mask] = popcount(mask), for masks < 2^n.

    Built once per n and shared, so it is read-only.
    """
    t = np.zeros(1 << n, dtype=np.uint8)
    for i in range(n):
        t[1 << i : 1 << (i + 1)] = t[: 1 << i] + 1
    t.flags.writeable = False
    return t


def _bit_passes(tables, n: int, visit) -> list:
    """Call visit(*views) once per bit i, on views of shape (-1, 2, 2^i).

    numpy is slow over runs shorter than 2^(n // 2), so the low bits run on
    copies with those index bits moved to the top.  Returns the swept copies.
    """
    h = n // 2
    low = [t.reshape(-1, 1 << h).T.flatten() for t in tables]
    for i in range(n - h, n):
        visit(*(t.reshape(-1, 2, 1 << i) for t in low))
    high = [t.reshape(-1, 1 << (n - h)).T.flatten() for t in low]
    for i in range(h, n):
        visit(*(t.reshape(-1, 2, 1 << i) for t in high))
    return high


def or_over_supersets(flags: np.ndarray, n: int) -> np.ndarray:
    """out[A] = OR of flags[B] over B >= A (supersets)."""
    return _bit_passes(
        [flags], n, lambda v: np.bitwise_or(v[:, 0, :], v[:, 1, :], out=v[:, 0, :])
    )[0]


def max_over_subsets(vals: np.ndarray, n: int) -> np.ndarray:
    """out[A] = max of vals[B] over B <= A (subsets)."""
    return _bit_passes(
        [vals], n, lambda v: np.maximum(v[:, 1, :], v[:, 0, :], out=v[:, 1, :])
    )[0]


def _guard(m) -> None:
    if m.n > DERIVE_GUARD:
        raise GuardExceeded(
            f"full-lattice enumeration on n={m.n} exceeds the guard"
            f" DERIVE_GUARD = {DERIVE_GUARD}"
        )


def independence_table(m) -> np.ndarray:
    """uint8 table: 1 iff the mask is an independent set of `m` (cached)."""
    _guard(m)

    def build() -> np.ndarray:
        t = np.zeros(1 << m.n, dtype=np.uint8)
        t[list(m.bases)] = 1
        return or_over_supersets(t, m.n)

    return m.cached("independence_table", build)


def rank_table(m) -> np.ndarray:
    """uint8 table of subset ranks (cached on the matroid)."""
    _guard(m)
    return m.cached(
        "rank_table",
        lambda: max_over_subsets(
            popcount_table(m.n) * independence_table(m), m.n
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
    n = m.n
    rk = rank_table(m)
    pc = popcount_table(n)

    # One sweep: per bit i, the rank step d = r[A+i] - r[A] (0 or 1) over
    # the sets A without i.  A is a flat iff every step out of it is 1, and
    # A+i has a coloop iff some step into it is 1.  Circuits are the sets
    # of nullity 1 without a coloop, cyclic flats the flats without one.
    def visit(r, flat, has_coloop):
        d = step.reshape(-1, r.shape[2])
        np.subtract(r[:, 1, :], r[:, 0, :], out=d)
        flat[:, 0, :] &= d
        has_coloop[:, 1, :] |= d

    step = np.empty(1 << max(n - 1, 0), dtype=np.uint8)
    fresh = (np.ones(1 << n, dtype=np.uint8), np.zeros(1 << n, dtype=np.uint8))
    _, flat, has_coloop = _bit_passes((rk, *fresh), n, visit)
    circuits_mask = (pc == rk + 1) & (has_coloop == 0)

    def listed(mask: np.ndarray) -> Tuple[int, ...]:
        return tuple(np.flatnonzero(mask).tolist())

    return SubsetReport(
        independents=listed(independence_table(m)),
        circuits=listed(circuits_mask),
        flats=listed(flat),
        hyperplanes=listed(flat & (rk == m.rank - 1)),
        cyclic_flats=listed(flat > has_coloop),
        loops=m.loops(),
        coloops=m.coloops(),
        girth=int(pc[circuits_mask].min()) if circuits_mask.any() else None,
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

    def __repr__(self) -> str:
        terms = []
        for (i, j), c in sorted(self.coeffs.items()):
            parts = []
            if c != 1 or (i == 0 and j == 0):
                parts.append(str(c))
            if i:
                parts.append(f"x^{i}" if i > 1 else "x")
            if j:
                parts.append(f"y^{j}" if j > 1 else "y")
            terms.append("*".join(parts))
        return " + ".join(terms) if terms else "0"

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
