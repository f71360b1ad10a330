"""Catalog generation against a brute-force oracle, and frozen totals.

`brute_force_matroids` scans every basis family of r-subsets and keeps the
exchange-checked ones; it is the oracle for the extension route through
n = 5, where the largest candidate space is 2^10 families, and for the
rank-2 slice at n = 6 (2^15).
"""

import hashlib

import pytest

from mig.bitset import iter_bits, subsets_of_size
from mig.catalog import all_matroids, extensions
from mig.derived import derive_sets
from mig.errors import ExchangeAxiomViolation
from mig.matroid import Matroid, check_exchange_axiom

# totals fixed after cross-validating the brute-force and extension routes
KNOWN_TOTALS = {0: 1, 1: 2, 2: 5, 3: 16, 4: 68, 5: 406, 6: 3807, 7: 75164}
# SHA-256 of repr([m.key for m in all_matroids(n)]): tests sample the
# catalog by index, so its order is pinned along with its content
CATALOG_SHA256 = {
    6: "d5cacd5ed5494eb50c7ec78999d6d76d1267e344f05b83e49e11352e5f69e338",
    7: "976a258eecc99b6a9c748a857d22d32e7acb2c156f9c0a10d259786f6c8efe99",
}


def _is_basis_family(masks):
    try:
        check_exchange_axiom(masks)
        return True
    except ExchangeAxiomViolation:
        return False


def brute_force_matroids(n, r):
    """All matroids of rank r on [n] by scanning every basis family.

    Families come in the order of `pick`, a bitmask over the colex-ordered
    r-subsets.
    """
    candidates = list(subsets_of_size(n, r))
    out = []
    for pick in range(1, 1 << len(candidates)):
        fam = [candidates[i] for i in iter_bits(pick)]
        if _is_basis_family(fam):
            out.append(Matroid(n, r, tuple(fam)))
    return out


def catalog_counts(n):
    """Number of labeled matroids on [n] by rank."""
    counts = {}
    for m in all_matroids(n):
        counts[m.rank] = counts.get(m.rank, 0) + 1
    return counts


def _catalog_digest(catalog):
    return hashlib.sha256(repr([m.key for m in catalog]).encode()).hexdigest()


def test_routes_agree_up_to_five():
    """The catalog is the brute-force scan, in its order, through n = 5."""
    for n in range(1, 6):
        brute = [m.key for r in range(n + 1) for m in brute_force_matroids(n, r)]
        assert [m.key for m in all_matroids(n)] == brute
        ext = set()
        for parent in all_matroids(n - 1):
            for m in extensions(parent):
                assert m.key not in ext, "duplicate extension"
                ext.add(m.key)
        assert set(brute) == ext


def test_rank_two_on_six_brute_force_crosscheck(catalog6):
    """Rank-2 slice at n=6 is still brute-forceable (2^15 families)."""
    brute = {m.key for m in brute_force_matroids(6, 2)}
    from_catalog = {m.key for m in catalog6 if m.rank == 2}
    assert brute == from_catalog
    assert len(brute) == 813


def test_totals(catalog5, catalog6):
    for n in range(6):
        assert len(catalog5[n]) == KNOWN_TOTALS[n]
    assert len(catalog6) == KNOWN_TOTALS[6]
    assert _catalog_digest(catalog6) == CATALOG_SHA256[6]


def test_rank_symmetry(catalog6):
    """Duality pairs rank k with rank n-k, so the counts must mirror."""
    counts = catalog_counts(6)
    for r in range(7):
        assert counts.get(r, 0) == counts.get(6 - r, 0)


def test_exchange_axiom_through_six(catalog5, catalog6):
    """Every generated basis family satisfies basis exchange."""
    for n in range(6):
        for m in catalog5[n]:
            check_exchange_axiom(m.bases)
    for m in catalog6:
        check_exchange_axiom(m.bases)


def test_no_duplicates(catalog6):
    keys = [m.key for m in catalog6]
    assert len(keys) == len(set(keys))


def test_catalog_seven(catalog7):
    assert len(catalog7) == KNOWN_TOTALS[7]
    assert _catalog_digest(catalog7) == CATALOG_SHA256[7]
    counts = catalog_counts(7)
    for r in range(8):
        assert counts.get(r, 0) == counts.get(7 - r, 0)
    # a fixed sample of the exchange check (the full sweep is quadratic in |B|)
    for m in catalog7[:: max(1, len(catalog7) // 500)]:
        check_exchange_axiom(m.bases)


# -- oracle: modular cuts over the whole flat lattice ------------------------


def _flat_data(m):
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


def _modular_cuts(m, flat_data=None):
    """All modular cuts containing E, as bitmasks over the flat list."""
    flats, idx, franks, up_mask, force = flat_data or _flat_data(m)
    t = len(flats)
    top = idx[m.ground_mask()]

    def close_over(closed, new_flats):
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


def _extensions_by_modular_cuts(m):
    """The coloop extension, then one per modular cut containing E, in
    cut-bitmask order: what `extensions` must return, value and order."""
    n, r = m.n, m.rank
    new_bit = 1 << n
    out = [Matroid(n + 1, r + 1, tuple(sorted(b | new_bit for b in m.bases)))]
    flat_data = _flat_data(m)
    idx = flat_data[1]
    corank1 = {b ^ (1 << e) for b in m.bases for e in iter_bits(b)}
    by_flat = {}
    for a in corank1:
        by_flat.setdefault(idx[m.closure(a)], []).append(a)
    for cut in _modular_cuts(m, flat_data):
        fam = list(m.bases)
        for fi, members in by_flat.items():
            if not (cut >> fi) & 1:
                fam.extend(a | new_bit for a in members)
        out.append(Matroid(n + 1, r, tuple(sorted(fam))))
    return out


def _assert_extensions_match_oracle(parents):
    for parent in parents:
        got = [m.key for m in extensions(parent)]
        assert got == [m.key for m in _extensions_by_modular_cuts(parent)], parent


def test_extensions_match_modular_cut_oracle_up_to_five(catalog5):
    _assert_extensions_match_oracle(m for n in range(6) for m in catalog5[n])


@pytest.mark.slow
def test_extensions_match_modular_cut_oracle_on_rank_three_six(catalog6):
    """The parents that all_matroids(7) extends: rank <= 3 on six elements."""
    parents = [m for m in catalog6 if m.rank <= 3]
    assert len(parents) == 2930
    _assert_extensions_match_oracle(parents)


def _pairwise_exchange_witness(bases):
    """The exchange check pair by pair: for A, then B, then e in A - B,
    look for f in B - A with A - e + f a basis."""
    fam = list(bases)
    bset = set(fam)
    for a_mask in fam:
        for b_mask in fam:
            if a_mask == b_mask:
                continue
            movable = a_mask & ~b_mask
            incoming_bits = []
            inc = b_mask & ~a_mask
            while inc:
                low = inc & -inc
                incoming_bits.append(low)
                inc ^= low
            while movable:
                low = movable & -movable
                movable ^= low
                stripped = a_mask ^ low
                for ib in incoming_bits:
                    if stripped | ib in bset:
                        break
                else:
                    return (a_mask, b_mask, low.bit_length() - 1)
    return None


def _witness(bases):
    try:
        check_exchange_axiom(bases)
    except ExchangeAxiomViolation as exc:
        return exc.witness
    return None


def test_exchange_witness_matches_pairwise_oracle(catalog5, paper_pair):
    """Same first witness (or none) on every family the brute-force route
    scans through n = 5, in both orders, and on the catalog and the pair."""
    violating = 0
    for n in range(6):
        for r in range(n + 1):
            candidates = list(subsets_of_size(n, r))
            for pick in range(1, 1 << len(candidates)):
                fam = [candidates[i] for i in iter_bits(pick)]
                for order in (fam, fam[::-1]):
                    expected = _pairwise_exchange_witness(order)
                    assert _witness(order) == expected
                    violating += expected is not None
    assert violating > 1000
    for m in [m for n in range(6) for m in catalog5[n]] + list(paper_pair):
        assert _witness(m.bases) is None is _pairwise_exchange_witness(m.bases)
