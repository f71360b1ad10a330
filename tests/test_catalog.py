"""Catalog generation: two independent routes and frozen totals."""

import pytest

from mig.bitset import iter_bits, subsets_of_size
from mig.catalog import all_matroids, brute_force_matroids, catalog_counts, extensions
from mig.errors import ExchangeAxiomViolation
from mig.matroid import check_exchange_axiom

# totals fixed after cross-validating the brute-force and extension routes
KNOWN_TOTALS = {0: 1, 1: 2, 2: 5, 3: 16, 4: 68, 5: 406, 6: 3807, 7: 75164}


def test_routes_agree_up_to_five():
    for n in (3, 4, 5):
        brute = {m.key for m in all_matroids(n)}
        ext = set()
        for parent in all_matroids(n - 1):
            for m in extensions(parent):
                assert m.key not in ext, "duplicate extension"
                ext.add(m.key)
        assert brute == ext


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


@pytest.mark.slow
def test_catalog_seven(catalog7):
    assert len(catalog7) == KNOWN_TOTALS[7]
    counts = catalog_counts(7)
    for r in range(8):
        assert counts.get(r, 0) == counts.get(7 - r, 0)
    # a fixed sample of the exchange check (the full sweep is quadratic in |B|)
    for m in catalog7[:: max(1, len(catalog7) // 500)]:
        check_exchange_axiom(m.bases)


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
