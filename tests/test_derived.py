"""Derived families and polynomials against definitional brute force."""

import gc
import weakref

import numpy as np
import pytest

from mig import derived, matroid_from_nonbases, uniform_matroid
from mig.bitset import elements_of, iter_bits, mask_of
from mig.derived import (
    _derive_sets,
    _tutte_polynomial,
    characteristic_polynomial,
    derive_sets,
    independence_table,
    popcount_table,
    rank_table,
    tutte_polynomial,
)
from mig.errors import GuardExceeded
from mig.lbcs_construct import SignAssignment, grid_matroid, m_s_matroid
from mig.matroid import Matroid
from mig.structures import IsoStructure, covers, structure_sets


def brute_report(m):
    """Definitional enumeration of every derived family (test oracle)."""
    full = (1 << m.n) - 1
    independents = [a for a in range(1 << m.n) if m.subset_rank(a) == a.bit_count()]
    ind = set(independents)
    dependents = [a for a in range(1 << m.n) if a not in ind]
    circuits = [
        a
        for a in dependents
        if all((a ^ (1 << e)) in ind for e in iter_bits(a))
    ]
    flats = [a for a in range(1 << m.n) if m.closure(a) == a]
    hyper = [f for f in flats if m.subset_rank(f) == m.rank - 1]
    cyclic = []
    for f in flats:
        rf = m.subset_rank(f)
        if all(m.subset_rank(f ^ (1 << e)) == rf for e in iter_bits(f)):
            cyclic.append(f)
    return independents, circuits, flats, hyper, cyclic


@pytest.mark.parametrize("n", [2, 3, 4])
def test_derive_sets_matches_definitions(catalog5, n):
    for m in catalog5[n]:
        rep = derive_sets(m)
        ind, circ, flats, hyper, cyclic = brute_report(m)
        assert list(rep.independents) == ind
        assert list(rep.circuits) == circ
        assert list(rep.flats) == flats
        assert list(rep.hyperplanes) == hyper
        assert list(rep.cyclic_flats) == cyclic


def test_derive_sets_u23():
    rep = derive_sets(uniform_matroid(2, 3))
    assert [elements_of(c) for c in rep.circuits] == [[0, 1, 2]]
    assert [elements_of(f) for f in rep.flats] == [[], [0], [1], [2], [0, 1, 2]]
    assert [elements_of(h) for h in rep.hyperplanes] == [[0], [1], [2]]
    assert rep.girth == 3


def test_derive_sets_coloop():
    rep = derive_sets(uniform_matroid(1, 1))
    assert rep.coloops == 0b1
    assert rep.circuits == ()
    assert rep.girth is None


def test_grid_matroid_cyclic_hyperplanes():
    grid = matroid_from_nonbases(
        9, 3, [[0, 1, 2], [3, 4, 5], [6, 7, 8], [0, 3, 6], [1, 4, 7], [2, 5, 8]]
    )
    rep = derive_sets(grid)
    hyp = set(rep.hyperplanes)
    ch = [f for f in rep.cyclic_flats if f in hyp]
    assert sorted(elements_of(x) for x in ch) == sorted(
        [[0, 1, 2], [3, 4, 5], [6, 7, 8], [0, 3, 6], [1, 4, 7], [2, 5, 8]]
    )
    # hyperplanes: the six lines plus the eighteen non-collinear pairs
    assert len(rep.hyperplanes) == 24


def test_subset_report_invariants(catalog5):
    for m in catalog5[4]:
        rep = derive_sets(m)
        circ = set(rep.circuits)
        for c in circ:
            for other in circ:
                assert c == other or (c & other) != c  # no circuit inside another
        for f in rep.flats:
            assert m.closure(f) == f
        hyper = set(rep.hyperplanes)
        assert hyper <= set(rep.flats)
        for h in hyper:
            assert m.subset_rank(h) == m.rank - 1
        for f in rep.cyclic_flats:
            union = 0
            for c in circ:
                if c & ~f == 0:
                    union |= c
            assert union == f  # cyclic flats are unions of circuits


def test_tutte_u23_brute_force():
    """Oracle: expand the corank-nullity sum over all 8 subsets by hand."""
    m = uniform_matroid(2, 3)
    coeffs = {}
    for a in range(8):
        c = m.rank - m.subset_rank(a)
        u = a.bit_count() - m.subset_rank(a)
        coeffs[(c, u)] = coeffs.get((c, u), 0) + 1
    # (x-1)^c (y-1)^u accumulated naively over integer polynomials
    acc = {}
    for (c, u), cnt in coeffs.items():
        poly = {(0, 0): cnt}
        for _ in range(c):
            poly = _poly_mul(poly, {(1, 0): 1, (0, 0): -1})
        for _ in range(u):
            poly = _poly_mul(poly, {(0, 1): 1, (0, 0): -1})
        for k, v in poly.items():
            acc[k] = acc.get(k, 0) + v
    acc = {k: v for k, v in acc.items() if v}
    t = tutte_polynomial(m)
    assert t.coeffs == acc == {(2, 0): 1, (1, 0): 1, (0, 1): 1}


def _poly_mul(p, q):
    out = {}
    for (a, b), c in p.items():
        for (d, e), f in q.items():
            k = (a + d, b + e)
            out[k] = out.get(k, 0) + c * f
    return out


def test_tutte_counts_bases(catalog5):
    for m in catalog5[5][::7]:
        assert tutte_polynomial(m)(1, 1) == len(m.bases)


def test_tutte_duality(catalog5):
    for m in catalog5[5][::11]:
        t = tutte_polynomial(m)
        td = tutte_polynomial(m.dual())
        assert t.coeffs == {(j, i): c for (i, j), c in td.coeffs.items()}


def test_characteristic_polynomial():
    # (t - 1)(t - 2) for the three-point line, ascending coefficients
    assert characteristic_polynomial(uniform_matroid(2, 3)) == (2, -3, 1)
    # evaluation route must agree with the Tutte specialization
    m = uniform_matroid(2, 4)
    t = tutte_polynomial(m)
    coeffs = characteristic_polynomial(m)
    for lam in (0, 1, 2, 5):
        direct = ((-1) ** m.rank) * t(1 - lam, 0)
        assert sum(c * lam**k for k, c in enumerate(coeffs)) == direct


def test_guard(monkeypatch):
    with pytest.raises(GuardExceeded):
        derive_sets(uniform_matroid(2, 25))
    with pytest.raises(GuardExceeded):
        tutte_polynomial(uniform_matroid(2, 30))
    # the guard reads DERIVE_GUARD on each call, before the cache lookup
    u24 = uniform_matroid(2, 4)
    fns = (independence_table, rank_table, derive_sets, tutte_polynomial)
    for fn in fns:
        fn(u24)
    monkeypatch.setattr(derived, "DERIVE_GUARD", 3)
    for fn in fns:
        with pytest.raises(GuardExceeded, match="on n=4 exceeds the guard"):
            fn(u24)


def test_rank_table_matches_queries(catalog5):
    for m in catalog5[4][::5]:
        table = rank_table(m)
        for a in range(1 << m.n):
            assert int(table[a]) == m.subset_rank(a)


def test_popcount_table_is_shared_and_read_only():
    table = popcount_table(6)
    assert popcount_table(6) is table
    assert [int(table[a]) for a in range(64)] == [a.bit_count() for a in range(64)]
    with pytest.raises(ValueError):
        table[3] = 0


def _three_sweep_families(m):
    """Circuits, flats and cyclic flats by three separate lattice sweeps."""
    n = m.n
    ind = independence_table(m)
    rk = rank_table(m)
    dep = 1 - ind
    has_dep_child = np.zeros(1 << n, dtype=np.uint8)
    not_flat = np.zeros(1 << n, dtype=np.uint8)
    has_coloop = np.zeros(1 << n, dtype=np.uint8)
    for i in range(n):
        v = has_dep_child.reshape(-1, 2, 1 << i)
        v[:, 1, :] |= dep.reshape(-1, 2, 1 << i)[:, 0, :]
    for i in range(n):
        v = not_flat.reshape(-1, 2, 1 << i)
        r = rk.reshape(-1, 2, 1 << i)
        v[:, 0, :] |= (r[:, 0, :] == r[:, 1, :]).astype(np.uint8)
    for i in range(n):
        v = has_coloop.reshape(-1, 2, 1 << i)
        r = rk.reshape(-1, 2, 1 << i)
        v[:, 1, :] |= (r[:, 0, :] + 1 == r[:, 1, :]).astype(np.uint8)
    flats = 1 - not_flat

    def listed(mask):
        return tuple(int(x) for x in np.nonzero(mask)[0])

    return (
        listed(ind),
        listed(dep & (1 - has_dep_child)),
        listed(flats),
        listed(flats & (rk == m.rank - 1)),
        listed(flats & (1 - has_coloop)),
    )


def _add_at_tutte(m):
    """Corank-nullity counts by np.add.at on int64 copies, expanded naively."""
    rk = rank_table(m).astype(np.int64)
    pc = popcount_table(m.n).astype(np.int64)
    counts = np.zeros((m.rank + 1, m.n - m.rank + 1), dtype=np.int64)
    np.add.at(counts, (m.rank - rk, pc - rk), 1)
    acc = {}
    for (c, u), cnt in np.ndenumerate(counts):
        poly = {(0, 0): int(cnt)}
        for _ in range(c):
            poly = _poly_mul(poly, {(1, 0): 1, (0, 0): -1})
        for _ in range(u):
            poly = _poly_mul(poly, {(0, 1): 1, (0, 0): -1})
        for k, v in poly.items():
            acc[k] = acc.get(k, 0) + v
    return {k: v for k, v in acc.items() if v}


def _families(rep):
    return (
        rep.independents,
        rep.circuits,
        rep.flats,
        rep.hyperplanes,
        rep.cyclic_flats,
    )


def test_derive_sets_and_bincount_match_oracles(catalog5, catalog6, paper_pair):
    """The independent-set walk and the uint16 count agree with the lattice
    routes."""
    grid = matroid_from_nonbases(
        9, 3, [[0, 1, 2], [3, 4, 5], [6, 7, 8], [0, 3, 6], [1, 4, 7], [2, 5, 8]]
    )
    small = [m for n in range(6) for m in catalog5[n]] + list(catalog6)
    for m in small + [grid, *paper_pair]:
        assert _families(_derive_sets(m)) == _three_sweep_families(m)
        assert _tutte_polynomial(m).coeffs == _add_at_tutte(m)


def _sign_patterns():
    grid = grid_matroid()
    lines = grid.cyclic_hyperplanes()
    for pattern in range(1 << len(lines)):
        negative = [h for i, h in enumerate(lines) if pattern >> i & 1]
        yield m_s_matroid(grid, SignAssignment.with_negatives(grid, negative))


def test_independent_walk_matches_lattice_oracles(paper_pair):
    """Every doubled grid, sparse and dense uniform matroids, P's dual."""
    doubled = list(_sign_patterns())
    assert len(doubled) == 64
    uniform = [uniform_matroid(r, n) for r, n in ((3, 18), (0, 3), (4, 4), (9, 18))]
    for m in doubled + uniform + [paper_pair[0].dual()]:
        rep = _derive_sets(m)
        assert _families(rep) == _three_sweep_families(m)
        circuits = rep.circuits
        assert rep.girth == (min(c.bit_count() for c in circuits) if circuits else None)
        if m.n <= 4:
            assert _families(rep) == tuple(map(tuple, brute_report(m)))


# Every field of a report; each read order below starts a fresh report.
FIELDS = (
    "independents",
    "circuits",
    "flats",
    "flat_ranks",
    "hyperplanes",
    "cyclic_flats",
    "loops",
    "coloops",
    "girth",
)
READ_ORDERS = (
    FIELDS,
    FIELDS[::-1],  # girth first
    ("hyperplanes", "cyclic_flats", "flat_ranks", "flats", "girth", "circuits",
     "independents", "coloops", "loops"),
    ("circuits", "girth", "hyperplanes", "independents", "flats", "loops",
     "flat_ranks", "cyclic_flats", "coloops"),
    ("cyclic_flats", "independents", "girth", "flat_ranks", "coloops",
     "hyperplanes", "circuits", "loops", "flats"),
)


def _expected_fields(m):
    """Every field, from the lattice oracles and the rank function."""
    ind, circ, flats, hyper, cyclic = _three_sweep_families(m)
    rk = rank_table(m)
    full = (1 << m.n) - 1
    return {
        "independents": ind,
        "circuits": circ,
        "flats": flats,
        "flat_ranks": tuple(int(rk[f]) for f in flats),
        "hyperplanes": hyper,
        "cyclic_flats": cyclic,
        "loops": mask_of(e for e in range(m.n) if m.subset_rank(1 << e) == 0),
        "coloops": mask_of(
            e for e in range(m.n) if m.subset_rank(full ^ 1 << e) < m.rank
        ),
        "girth": min((c.bit_count() for c in circ), default=None),
    }


def test_fields_agree_in_every_read_order(catalog5, paper_pair):
    """Each field is the same whichever is read first, and whichever of
    the lazy passes ran before it."""
    small = [m for n in range(6) for m in catalog5[n]]
    for m in small + list(paper_pair) + list(_sign_patterns()):
        want = _expected_fields(m)
        for order in READ_ORDERS:
            rep = _derive_sets(m)
            assert {f: getattr(rep, f) for f in order} == want


def test_families_are_derived_only_when_read(paper_pair):
    """The flats and hyperplanes leave the circuit pass unrun, the circuits
    leave the lattice pass unrun; neither builds the independents tuple."""
    p = paper_pair[0]
    m = Matroid(p.n, p.rank, p.bases)
    structure_sets(m, IsoStructure.FLATS)
    structure_sets(m, IsoStructure.HYPERPLANES)
    done = vars(derive_sets(m))
    assert "_lattice" in done and "_walk" in done
    assert not {"_circuits", "circuits", "girth", "independents"} & set(done)

    m = Matroid(p.n, p.rank, p.bases)
    res = covers(m, IsoStructure.CIRCUITS)
    assert covers(m, IsoStructure.CIRCUITS) is res  # cached on the matroid
    done = vars(derive_sets(m))
    assert "_circuits" in done and "circuits" in done
    assert not {"_lattice", "flats", "hyperplanes", "independents"} & set(done)


def test_report_holds_no_reference_to_its_matroid(paper_pair):
    """A matroid and its cached report are freed without the garbage collector."""
    p = paper_pair[0]
    m = Matroid(p.n, p.rank, p.bases)
    for name in FIELDS:
        getattr(derive_sets(m), name)
    gone = weakref.ref(m)
    gc.disable()
    try:
        del m
        assert gone() is None
    finally:
        gc.enable()
