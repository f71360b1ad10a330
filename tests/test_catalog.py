"""Catalog generation: two independent routes and frozen totals."""

import pytest

from mig.catalog import all_matroids, brute_force_matroids, catalog_counts, extensions
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
