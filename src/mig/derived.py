"""Exhaustive derived data: independents, circuits, flats, Tutte polynomial.

Everything here runs over the full 2^n subset lattice, vectorized with
numpy tables indexed by mask.  The transforms are the usual
subset-lattice sweeps: one pass per bit position, O(n * 2^n) total.
Ground sets are guarded (default n <= 24); exceeding a guard raises
rather than truncating.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
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


def or_over_supersets(flags: np.ndarray, n: int) -> np.ndarray:
    """out[A] = OR of flags[B] over B >= A (supersets)."""
    a = flags.copy()
    for i in range(n):
        v = a.reshape(-1, 2, 1 << i)
        v[:, 0, :] |= v[:, 1, :]
    return a


def max_over_subsets(vals: np.ndarray, n: int) -> np.ndarray:
    """out[A] = max of vals[B] over B <= A (subsets)."""
    a = vals.copy()
    for i in range(n):
        v = a.reshape(-1, 2, 1 << i)
        np.maximum(v[:, 1, :], v[:, 0, :], out=v[:, 1, :])
    return a


def _guard(m, guard_n: int) -> None:
    if m.n > guard_n:
        raise GuardExceeded(
            f"full-lattice enumeration on n={m.n} exceeds the guard n <= {guard_n}"
            f" (DERIVE_GUARD = {DERIVE_GUARD}, set by `mig matroid --guard-n`)"
        )


def independence_table(m, guard_n: int = DERIVE_GUARD) -> np.ndarray:
    """uint8 table: 1 iff the mask is an independent set of `m` (cached)."""
    _guard(m, guard_n)

    def build() -> np.ndarray:
        t = np.zeros(1 << m.n, dtype=np.uint8)
        t[list(m.bases)] = 1
        return or_over_supersets(t, m.n)

    return m.cached("independence_table", build)


def rank_table(m, guard_n: int = DERIVE_GUARD) -> np.ndarray:
    """uint8 table of subset ranks (cached on the matroid)."""
    _guard(m, guard_n)
    return m.cached(
        "rank_table",
        lambda: max_over_subsets(
            popcount_table(m.n) * independence_table(m, guard_n), m.n
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


def derive_sets(m, guard_n: int = DERIVE_GUARD) -> SubsetReport:
    """Enumerate independents, circuits, flats, hyperplanes, cyclic flats (cached)."""
    _guard(m, guard_n)
    return m.cached("derive_sets", lambda: _derive_sets(m, guard_n))


def _derive_sets(m, guard_n: int) -> SubsetReport:
    n = m.n
    ind = independence_table(m, guard_n)
    rk = rank_table(m, guard_n)
    pc = popcount_table(n)
    dep = 1 - ind

    # circuits: dependent, and dropping any one element leaves independent
    has_dep_child = np.zeros(1 << n, dtype=np.uint8)
    for i in range(n):
        v = has_dep_child.reshape(-1, 2, 1 << i)
        d = dep.reshape(-1, 2, 1 << i)
        v[:, 1, :] |= d[:, 0, :]
    circuits_mask = dep & (1 - has_dep_child)

    # flats: adding any outside element raises the rank
    not_flat = np.zeros(1 << n, dtype=np.uint8)
    for i in range(n):
        v = not_flat.reshape(-1, 2, 1 << i)
        r = rk.reshape(-1, 2, 1 << i)
        v[:, 0, :] |= (r[:, 0, :] == r[:, 1, :]).astype(np.uint8)
    flats_mask = 1 - not_flat

    # cyclic flats: flats whose restriction has no coloop
    has_coloop = np.zeros(1 << n, dtype=np.uint8)
    for i in range(n):
        v = has_coloop.reshape(-1, 2, 1 << i)
        r = rk.reshape(-1, 2, 1 << i)
        v[:, 1, :] |= (r[:, 0, :] + 1 == r[:, 1, :]).astype(np.uint8)
    cyclic_mask = flats_mask & (1 - has_coloop)

    independents = tuple(int(x) for x in np.nonzero(ind)[0])
    circuits = tuple(int(x) for x in np.nonzero(circuits_mask)[0])
    flats = tuple(int(x) for x in np.nonzero(flats_mask)[0])
    hyper = tuple(
        int(x) for x in np.nonzero(flats_mask & (rk == m.rank - 1))[0]
    )
    cyclic = tuple(int(x) for x in np.nonzero(cyclic_mask)[0])
    girth = int(pc[circuits_mask == 1].min()) if circuits else None
    return SubsetReport(
        independents=independents,
        circuits=circuits,
        flats=flats,
        hyperplanes=hyper,
        cyclic_flats=cyclic,
        loops=m.loops(),
        coloops=m.coloops(),
        girth=girth,
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


def tutte_polynomial(m, guard_n: int = DERIVE_GUARD) -> TuttePolynomial:
    """Corank-nullity sum over all 2^n subsets, exact integers throughout (cached)."""
    _guard(m, guard_n)
    return m.cached("tutte", lambda: _tutte_polynomial(m, guard_n))


def _tutte_polynomial(m, guard_n: int) -> TuttePolynomial:
    rk = rank_table(m, guard_n).astype(np.int64)
    pc = popcount_table(m.n).astype(np.int64)
    corank = m.rank - rk
    nullity = pc - rk
    counts = np.zeros((m.rank + 1, m.n - m.rank + 1), dtype=np.int64)
    np.add.at(counts, (corank, nullity), 1)

    coeffs: Dict[Tuple[int, int], int] = {}
    for c in range(m.rank + 1):
        for u in range(m.n - m.rank + 1):
            cnt = int(counts[c, u])
            if cnt == 0:
                continue
            # (x-1)^c (y-1)^u expanded with binomials
            for i in range(c + 1):
                xi = comb(c, i) * ((-1) ** (c - i))
                for j in range(u + 1):
                    yj = comb(u, j) * ((-1) ** (u - j))
                    kcoef = cnt * xi * yj
                    if kcoef:
                        coeffs[(i, j)] = coeffs.get((i, j), 0) + kcoef
    poly = TuttePolynomial(coeffs)
    if any(v < 0 for v in poly.coeffs.values()):
        raise InvariantViolation("negative coefficient in rank polynomial")
    if poly(1, 1) != len(m.bases):
        raise InvariantViolation("polynomial at (1,1) does not count the bases")
    return poly


def characteristic_polynomial(m, guard_n: int = DERIVE_GUARD) -> Tuple[int, ...]:
    """Coefficients (ascending) of (-1)^rank * T(1 - t, 0)."""
    t = tutte_polynomial(m, guard_n)
    out = [0] * (m.rank + 1)
    for (i, j), c in t.coeffs.items():
        if j != 0:
            continue
        # c * (1 - t)^i
        for k in range(i + 1):
            out[k] += c * comb(i, k) * ((-1) ** k)
    sign = (-1) ** m.rank
    return tuple(sign * v for v in out)
