"""Matroids over ground sets {0, ..., n-1} with bases stored as bit-masks.

Conventions:
- A subset of the ground set is an int mask (bit i = element i).
- The basis family is a duplicate-free tuple of masks sorted numerically,
  which is the colexicographic order on subsets.
- Matroids are immutable after construction; every operation returns a
  new object.  Minor operations (restrict / delete / contract) re-index
  the surviving elements to 0..m-1 in ascending order of the old indices.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from .bitset import (
    canonical_family,
    elements_of,
    full_mask,
    iter_bits,
    mask_of,
    subsets_of_size,
)
from .derived import derive_sets, popcount_table, rank_table
from .errors import (
    CardinalityMismatch,
    EmptyFamily,
    ExchangeAxiomViolation,
    GuardExceeded,
    OutOfRange,
    RankDeficient,
)

T = TypeVar("T")

MAX_GROUND = 64
BASES_GUARD = 5_000_000  # largest C(n, r) scanned for bases
CONNECTIVITY_GUARD = 20
BRUTE_ISO_GUARD = 9


class Matroid:
    """A matroid given by its ground-set size, rank and basis family."""

    def __init__(
        self,
        n: int,
        rank: int,
        bases: Tuple[int, ...],
        labels: Optional[Tuple[str, ...]] = None,
    ):
        self.n = n
        self.rank = rank
        self.bases = bases
        self.labels = labels
        self._cache: Dict[object, object] = {}

    # -- identity ---------------------------------------------------------

    @property
    def key(self) -> Tuple[int, int, Tuple[int, ...]]:
        return (self.n, self.rank, self.bases)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Matroid) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:
        shown = [elements_of(b) for b in self.bases[:4]]
        more = "..." if len(self.bases) > 4 else ""
        return f"Matroid(n={self.n}, rank={self.rank}, bases={shown}{more})"

    def label_of(self, e: int) -> str:
        return self.labels[e] if self.labels else str(e)

    def cached(self, key: object, build: Callable[[], T]) -> T:
        """The value stored under `key`, built by `build()` on first use."""
        cache = self._cache
        if key not in cache:
            cache[key] = build()
        return cache[key]

    # -- basic queries ----------------------------------------------------

    def ground_mask(self) -> int:
        return full_mask(self.n)

    def _require_subset(self, a_mask: int) -> None:
        if a_mask & ~self.ground_mask():
            raise OutOfRange(f"subset {a_mask:#x} exceeds ground set of size {self.n}")

    def subset_rank(self, a_mask: int) -> int:
        """Rank of a subset: the largest intersection with a basis."""
        self._require_subset(a_mask)
        cap = min(a_mask.bit_count(), self.rank)
        best = 0
        for b in self.bases:
            c = (a_mask & b).bit_count()
            if c > best:
                best = c
                if best == cap:
                    break
        return best

    def closure(self, a_mask: int) -> int:
        """All elements whose addition does not raise the rank."""
        self._require_subset(a_mask)
        rk = self.subset_rank(a_mask)
        out = a_mask
        for e in range(self.n):
            bit = 1 << e
            if not a_mask & bit and self.subset_rank(a_mask | bit) == rk:
                out |= bit
        return out

    def nonbases(self) -> Tuple[int, ...]:
        every = subsets_of_size(self.n, self.rank)
        return self.cached("nonbases", lambda: tuple(sorted({*every} - {*self.bases})))

    # -- constructions on matroids ----------------------------------------

    def relabel(self, perm: Sequence[int]) -> "Matroid":
        """Apply a ground-set permutation: element e becomes perm[e]."""
        if sorted(perm) != list(range(self.n)):
            raise OutOfRange("not a permutation of the ground set")
        new_bases = []
        for b in self.bases:
            m = 0
            for e in iter_bits(b):
                m |= 1 << perm[e]
            new_bases.append(m)
        new_labels = None
        if self.labels:
            lab = [""] * self.n
            for e in range(self.n):
                lab[perm[e]] = self.labels[e]
            new_labels = tuple(lab)
        return Matroid(self.n, self.rank, canonical_family(new_bases), new_labels)

    def dual(self) -> "Matroid":
        full = self.ground_mask()
        bases = canonical_family(full ^ b for b in self.bases)
        return Matroid(self.n, self.n - self.rank, bases, self.labels)

    def restrict(self, a_mask: int) -> "Matroid":
        """The matroid on `a_mask`, re-indexed to 0..|A|-1."""
        self._require_subset(a_mask)
        keep = elements_of(a_mask)
        pos = {e: i for i, e in enumerate(keep)}
        sub_rank = self.subset_rank(a_mask)
        new_bases = set()
        for b in self.bases:
            inner = b & a_mask
            if inner.bit_count() == sub_rank:
                new_bases.add(mask_of(pos[e] for e in iter_bits(inner)))
        labels = tuple(self.label_of(e) for e in keep) if self.labels else None
        return Matroid(len(keep), sub_rank, canonical_family(new_bases), labels)

    def delete(self, a_mask: int) -> "Matroid":
        self._require_subset(a_mask)
        return self.restrict(self.ground_mask() ^ a_mask)

    def contract(self, a_mask: int) -> "Matroid":
        self._require_subset(a_mask)
        return self.dual().delete(a_mask).dual()

    def direct_sum(self, other: "Matroid") -> "Matroid":
        shift = self.n
        bases = canonical_family(
            a | (b << shift) for a in self.bases for b in other.bases
        )
        labels = None
        if self.labels and other.labels:
            labels = self.labels + other.labels
        return Matroid(self.n + other.n, self.rank + other.rank, bases, labels)

    def free_extension(self) -> "Matroid":
        """Add a new element (index n) in general position."""
        if self.n + 1 > MAX_GROUND:
            raise _ground_guard(self.n + 1)
        new_bit = 1 << self.n
        fam = set(self.bases)
        for b in self.bases:
            for e in iter_bits(b):
                fam.add((b ^ (1 << e)) | new_bit)
        labels = self.labels + (str(self.n),) if self.labels else None
        return Matroid(self.n + 1, self.rank, canonical_family(fam), labels)

    # -- predicates ---------------------------------------------------------
    #
    # One route: the girth and the hyperplanes of `derive_sets`, which walks
    # the independent sets rather than the subset lattice.

    def girth(self) -> Optional[int]:
        """Size of the smallest circuit, or None when there is none."""
        return derive_sets(self).girth

    def is_simple(self) -> bool:
        """No loops and no parallel pairs: every circuit has 3 or more elements."""
        g = self.girth()
        return g is None or g >= 3

    def is_paving(self) -> bool:
        """Every circuit has at least rank elements."""
        g = self.girth()
        return g is None or g >= self.rank

    def is_sparse_paving(self) -> bool:
        """Paving, and so is the dual: no hyperplane has more than rank elements.

        The cocircuits are the complements of the hyperplanes, so the dual's
        circuits have n - rank or more elements exactly then.
        """
        hyperplanes = derive_sets(self).hyperplanes
        return self.is_paving() and all(h.bit_count() <= self.rank for h in hyperplanes)

    def cyclic_hyperplanes(self) -> Tuple[int, ...]:
        rep = derive_sets(self)
        hset = set(rep.hyperplanes)
        return tuple(f for f in rep.cyclic_flats if f in hset)

    def connectivity(self) -> Optional[int]:
        """Smallest k admitting a k-separation, or None if none exists.

        A bipartition (A, E\\A) witnesses k = rk(A) + rk(E\\A) - rk(M) + 1
        provided both sides have at least k elements.  Scans all
        bipartitions through the full rank table.
        """
        if self.n > CONNECTIVITY_GUARD:
            raise GuardExceeded(
                f"connectivity scan on n={self.n} exceeds the guard"
                f" CONNECTIVITY_GUARD = {CONNECTIVITY_GUARD}"
            )
        if self.n < 2:
            return None
        rk = rank_table(self).astype(np.int16)
        pc = popcount_table(self.n).astype(np.int16)
        # rk[::-1][A] is the rank of the complement: full ^ A == full - A
        lam1 = rk + rk[::-1] - self.rank + 1
        min_side = np.minimum(pc, self.n - pc)
        ok = (pc > 0) & (pc < self.n) & (lam1 <= min_side)
        if not ok.any():
            return None
        return int(lam1[ok].min())

    def predicates(self) -> Dict[str, object]:
        # connectivity first: its guard is below DERIVE_GUARD
        connectivity = self.connectivity()
        return {**self.derived_predicates(), "connectivity": connectivity}

    def derived_predicates(self) -> Dict[str, object]:
        """The predicates that need only `derive_sets` (n <= DERIVE_GUARD)."""
        return {
            "is_simple": self.is_simple(),
            "is_paving": self.is_paving(),
            "is_sparse_paving": self.is_sparse_paving(),
            "girth": self.girth(),
        }


def check_exchange_axiom(bases: Sequence[int]) -> None:
    """Raise ExchangeAxiomViolation with a witness on the first failure.

    For a basis A and e in A, B admits no exchange for e exactly when B
    misses S_e = {e} + {f not in A : A - e + f is a basis}.  Bit j of
    `holding[x]` marks the j-th basis holding x; the witness is the first
    (A, B, e) in the order A, then B, then e ascending.
    """
    fam = list(bases)
    bset = set(fam)
    holding: Dict[int, int] = {}
    for j, b in enumerate(fam):
        for x in iter_bits(b):
            holding[x] = holding.get(x, 0) | 1 << j
    everyone = (1 << len(fam)) - 1
    for a_mask in fam:
        outside = [(1 << f, h) for f, h in holding.items() if not a_mask >> f & 1]
        firsts = []
        for e in iter_bits(a_mask):
            stripped = a_mask ^ (1 << e)
            meets = holding[e]
            for bit, held in outside:
                if stripped | bit in bset:
                    meets |= held
            missing = everyone & ~meets
            if missing:
                firsts.append(((missing & -missing).bit_length() - 1, e))
        if firsts:
            j, e = min(firsts)
            raise ExchangeAxiomViolation(a_mask, fam[j], e)


# -- constructors -----------------------------------------------------------


def _ground_guard(n: int) -> GuardExceeded:
    return GuardExceeded(
        f"ground set of {n} elements exceeds the guard MAX_GROUND = {MAX_GROUND}"
    )


def check_basis_scan(n: int, r: int) -> None:
    """Refuse to scan more than BASES_GUARD r-subsets of n elements for bases."""
    if 0 <= r <= n and comb(n, r) > BASES_GUARD:
        raise GuardExceeded(
            f"C({n},{r}) = {comb(n, r)} basis candidates exceed the guard"
            f" BASES_GUARD = {BASES_GUARD}"
        )


def matroid_from_bases(
    n: int,
    bases: Iterable[Iterable[int] | int],
    labels: Optional[Sequence[str]] = None,
) -> Matroid:
    """Validate a basis family and build the matroid."""
    if n > MAX_GROUND:
        raise _ground_guard(n)
    fam = canonical_family(_as_mask(b) for b in bases)
    if not fam:
        raise EmptyFamily("basis family is empty")
    for b in fam:
        if b & ~full_mask(n):
            raise OutOfRange(f"basis {b:#x} exceeds ground set of size {n}")
    rank = fam[0].bit_count()
    for b in fam:
        if b.bit_count() != rank:
            raise CardinalityMismatch(
                f"bases of sizes {rank} and {b.bit_count()} in one family"
            )
    check_exchange_axiom(fam)
    if labels is not None and len(labels) != n:
        raise CardinalityMismatch("labels must match the ground-set size")
    return Matroid(n, rank, fam, tuple(labels) if labels else None)


def matroid_from_nonbases(
    n: int,
    r: int,
    nonbases: Iterable[Iterable[int] | int],
    labels: Optional[Sequence[str]] = None,
) -> Matroid:
    """Build a matroid from the r-subsets that are NOT bases."""
    if n > MAX_GROUND:
        raise _ground_guard(n)
    nb = set()
    for m in nonbases:
        mm = _as_mask(m)
        if mm & ~full_mask(n):
            raise OutOfRange(f"nonbasis {mm:#x} exceeds ground set of size {n}")
        if mm.bit_count() != r:
            raise CardinalityMismatch(f"nonbasis {mm:#x} does not have size {r}")
        nb.add(mm)
    check_basis_scan(n, r)
    bases = [m for m in subsets_of_size(n, r) if m not in nb]
    return matroid_from_bases(n, bases, labels)


def matroid_from_vectors(matrix: Sequence[Sequence]) -> Matroid:
    """Matroid of a labeled vector configuration (columns of `matrix`).

    Entries may be ints or Fractions; all arithmetic is exact.
    """
    rows = [[Fraction(x) for x in row] for row in matrix]
    r = len(rows)
    n = len(rows[0]) if rows else 0
    for row in rows:
        if len(row) != n:
            raise CardinalityMismatch("ragged matrix")
    if _rational_rank([row[:] for row in rows]) != r:
        raise RankDeficient(f"matrix rank below {r}")
    bases = []
    for cols in combinations(range(n), r):
        sub = [[rows[i][j] for j in cols] for i in range(r)]
        if _rational_rank(sub) == r:
            bases.append(mask_of(cols))
    return matroid_from_bases(n, bases)


def _rational_rank(mat: List[List[Fraction]]) -> int:
    m = len(mat)
    if m == 0:
        return 0
    n = len(mat[0])
    rank = 0
    row = 0
    for col in range(n):
        pivot = next((i for i in range(row, m) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        pv = mat[row][col]
        for i in range(row + 1, m):
            if mat[i][col] != 0:
                f = mat[i][col] / pv
                for j in range(col, n):
                    mat[i][j] -= f * mat[row][j]
        row += 1
        rank += 1
        if row == m:
            break
    return rank


def matroid_from_graph(edges: Sequence[Tuple[object, object]]) -> Matroid:
    """Cycle matroid of a multigraph given as a list of vertex pairs.

    Edges are the ground elements, in input order.  Self-loop edges become
    matroid loops.  Bases are the edge sets of spanning forests.
    """
    n = len(edges)
    if n > MAX_GROUND:
        raise _ground_guard(n)
    verts: List[object] = []
    vidx: Dict[object, int] = {}
    for u, v in edges:
        for w in (u, v):
            if w not in vidx:
                vidx[w] = len(verts)
                verts.append(w)
    ends = [(vidx[u], vidx[v]) for u, v in edges]
    rank = _forest_size(range(n), ends, len(verts))
    bases = [
        m
        for m in subsets_of_size(n, rank)
        if _forest_size(iter_bits(m), ends, len(verts)) == rank
    ]
    return matroid_from_bases(n, bases)


def _forest_size(edge_ids: Iterable[int], ends, nv: int) -> int:
    """Size of a spanning forest of the given edges, by union-find."""
    parent = list(range(nv))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    grown = 0
    for e in edge_ids:
        u, v = ends[e]
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            grown += 1
    return grown


def uniform_matroid(r: int, n: int) -> Matroid:
    """U(r, n): every r-subset is a basis."""
    return matroid_from_bases(n, subsets_of_size(n, r))


def _as_mask(subset: Iterable[int] | int) -> int:
    if isinstance(subset, int):
        return subset
    return mask_of(subset)


# -- brute-force isomorphism (oracle) ----------------------------------------


def brute_force_isomorphic(m1: Matroid, m2: Matroid) -> Optional[Tuple[int, ...]]:
    """Search all ground bijections for one preserving the basis family.

    Oracle-scale only (guarded); prunes on per-element basis counts and on
    partial-map consistency.  Returns the image tuple or None.
    """
    if max(m1.n, m2.n) > BRUTE_ISO_GUARD:
        raise GuardExceeded(
            f"brute-force isomorphism on n={max(m1.n, m2.n)} exceeds the guard"
            f" BRUTE_ISO_GUARD = {BRUTE_ISO_GUARD}"
        )
    if m1.n != m2.n or m1.rank != m2.rank or len(m1.bases) != len(m2.bases):
        return None
    n = m1.n

    def signature(m: Matroid) -> List[int]:
        cnt = [0] * m.n
        for b in m.bases:
            for e in iter_bits(b):
                cnt[e] += 1
        return cnt

    sig1, sig2 = signature(m1), signature(m2)
    if sorted(sig1) != sorted(sig2):
        return None
    if m1.rank == 0:
        return tuple(range(n))
    b2 = set(m2.bases)
    image = [-1] * n
    used = [False] * n

    def consistent(k: int) -> bool:
        # every basis-sized subset of the mapped prefix that includes k
        # must map basis <-> basis
        if k + 1 < m1.rank:
            return True
        for rest in combinations(range(k), m1.rank - 1):
            src = mask_of(rest) | (1 << k)
            dst = mask_of(image[e] for e in rest) | (1 << image[k])
            if (src in _bset1) != (dst in b2):
                return False
        return True

    _bset1 = set(m1.bases)

    def backtrack(k: int) -> bool:
        if k == n:
            return True
        for w in range(n):
            if used[w] or sig1[k] != sig2[w]:
                continue
            image[k] = w
            used[w] = True
            if consistent(k) and backtrack(k + 1):
                return True
            used[w] = False
        image[k] = -1
        return False

    if backtrack(0):
        return tuple(image)
    return None
