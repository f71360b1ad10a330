"""Cyclic-flat presentations: axiom checking and reconstruction."""

import pytest

from mig import uniform_matroid
from mig.bitset import mask_of
from mig.cyclic import (
    CyclicFlatPresentation,
    check_presentation,
    matroid_from_cyclic_flats,
)
from mig.derived import derive_sets
from mig.errors import AxiomViolation, GuardExceeded


def test_free_presentation_gives_uniform():
    full = (1 << 18) - 1
    pres = CyclicFlatPresentation(18, (0, full), {0: 0, full: 3})
    assert matroid_from_cyclic_flats(pres) == uniform_matroid(3, 18)


def test_ground_guard_before_the_basis_scan():
    full = (1 << 65) - 1
    pres = CyclicFlatPresentation(65, (0, full), {0: 0, full: 1})
    with pytest.raises(GuardExceeded, match="65 elements exceeds the guard MAX_GROUND"):
        matroid_from_cyclic_flats(pres)


def test_rank_zero_bottom_required():
    full = 0b111
    pres = CyclicFlatPresentation(3, (0, full), {0: 1, full: 2})
    with pytest.raises(AxiomViolation) as exc:
        check_presentation(pres)
    assert exc.value.axiom == 1


def test_strict_rank_growth_axiom():
    # one element above a rank-1 flat: the gap 0 < d < |Y\X| cannot hold
    x = 0b0011
    y = 0b0111
    full = 0b1111
    pres = CyclicFlatPresentation(
        4, (0, x, y, full), {0: 0, x: 1, y: 2, full: 3}
    )
    with pytest.raises(AxiomViolation) as exc:
        check_presentation(pres)
    assert exc.value.axiom == 2


def test_overlapping_lines_violate_submodular_axiom():
    # two 3-element rank-2 flats sharing two points
    x = mask_of([0, 1, 2])
    y = mask_of([1, 2, 3])
    full = (1 << 5) - 1
    pres = CyclicFlatPresentation(
        5, (0, x, y, full), {0: 0, x: 2, y: 2, full: 3}
    )
    with pytest.raises(AxiomViolation) as exc:
        check_presentation(pres)
    assert exc.value.axiom == 3
    assert set(exc.value.witness) == {x, y}


def test_non_lattice_family_rejected():
    # two incomparable flats with no common upper bound in the family
    pres = CyclicFlatPresentation(4, (0b0011, 0b1100), {0b0011: 0, 0b1100: 0})
    with pytest.raises(AxiomViolation) as exc:
        check_presentation(pres)
    assert exc.value.axiom == 0


def test_rederived_cyclic_flats_match_doubled_presentations(paper_pair):
    """Re-deriving the cyclic flats of a reconstruction gives the presentation."""
    for m in paper_pair:
        ground = (1 << m.n) - 1
        rho = {0: 0, ground: 3, **{nb: 2 for nb in m.nonbases()}}
        out = matroid_from_cyclic_flats(CyclicFlatPresentation(m.n, tuple(rho), rho))
        assert out == m
        got = {f: out.subset_rank(f) for f in derive_sets(out).cyclic_flats}
        assert got == rho


def test_roundtrip_on_small_catalog(catalog5):
    """Presenting a matroid's own cyclic flats reconstructs it exactly."""
    for m in catalog5[5][::3]:
        rep = derive_sets(m)
        rho = {f: m.subset_rank(f) for f in rep.cyclic_flats}
        pres = CyclicFlatPresentation(m.n, rep.cyclic_flats, rho)
        assert matroid_from_cyclic_flats(pres) == m
