"""Structural identities swept over the exhaustive small-matroid catalogs."""

import pytest

from mig.bitset import full_mask
from mig.cyclic import CyclicFlatPresentation, matroid_from_cyclic_flats
from mig.derived import derive_sets


def _check_one(m):
    d = m.dual()
    assert d.dual() == m
    assert d.rank == m.n - m.rank
    rep = derive_sets(m)
    drep = derive_sets(d)
    # hyperplanes of m are exactly the complements of the dual's circuits
    ground = full_mask(m.n)
    assert set(rep.hyperplanes) == {ground ^ c for c in drep.circuits}
    # the cyclic-flat presentation reconstructs the matroid
    rho = {f: m.subset_rank(f) for f in rep.cyclic_flats}
    pres = CyclicFlatPresentation(m.n, rep.cyclic_flats, rho)
    assert matroid_from_cyclic_flats(pres) == m
    m._cache.clear()


def test_identities_through_six(catalog5, catalog6):
    for n in range(6):
        for m in catalog5[n]:
            _check_one(m)
    for m in catalog6:
        _check_one(m)


@pytest.mark.slow
def test_identities_on_seven(catalog7):
    for m in catalog7:
        _check_one(m)
