"""Game predicate, strategies, and constraint systems."""

import pytest

from mig import game, matroid_from_bases, uniform_matroid
from mig.errors import (
    GuardExceeded,
    MalformedAssignment,
    NotAnIsomorphism,
    NotCovering,
    OutOfAlphabet,
)
from mig.game import (
    LBCS,
    Constraint,
    DeterministicStrategy,
    IsoGameInstance,
    check_bisynchronous,
    evaluate_strategy,
    exhaustive_perfect_strategy,
    lbcs_predicate,
    lbcs_solutions,
    strategy_from_iso,
)
from mig.jsonio import lbcs_from_json
from mig.structures import IsoStructure


@pytest.fixture(scope="module")
def u23_game():
    u23 = uniform_matroid(2, 3)
    return IsoGameInstance(u23, u23, IsoStructure.BASES)


def test_instance_requires_covering():
    with pytest.raises(NotCovering):
        IsoGameInstance(
            uniform_matroid(2, 3), uniform_matroid(2, 3), IsoStructure.NONBASES
        )


def test_predicate_basics(u23_game):
    inst = u23_game
    k = inst.split
    # equal questions, mirrored answers win; mismatched answers lose
    assert inst.predicate(0, 0, k + 0, k + 0) == 1
    assert inst.predicate(0, 0, k + 0, k + 1) == 0
    # answering on the question's own side always loses
    assert inst.predicate(0, 1, 2, k + 1) == 0
    with pytest.raises(OutOfAlphabet):
        inst.predicate(0, 0, 99, 0)


def _diagonal_scan(inst):
    """Oracle for `check_bisynchronous`: both diagonal slices, O(k^3) predicates.

    Equal questions must force equal answers and distinct questions must
    forbid equal answers.
    """
    k = inst.size()
    for a in range(k):
        for x in range(k):
            for y in range(k):
                if x != y and inst.predicate(a, a, x, y):
                    return False
    for x in range(k):
        for a in range(k):
            for b in range(k):
                if a != b and inst.predicate(a, b, x, x):
                    return False
    return True


def test_bisynchronous(u23_game):
    assert check_bisynchronous(u23_game) and _diagonal_scan(u23_game)
    # vacuous on the empty-alphabet instance
    u00 = matroid_from_bases(0, [[]])
    empty = IsoGameInstance(u00, u00, IsoStructure.BASES)
    assert empty.size() == 0 and check_bisynchronous(empty)


@pytest.mark.parametrize(
    "first, second, want",
    [
        ((2, 3), (2, 3), False),
        ((1, 2), (1, 2), False),
        # one side empty: no letter can answer a repeated one
        ((0, 0), (1, 1), True),
    ],
)
def test_repeated_letter_breaks_bisynchrony(monkeypatch, first, second, want):
    """Alphabets that list a pointed set twice, the case the O(k) check tests."""
    real = game.pointed_sets
    monkeypatch.setattr(game, "pointed_sets", lambda m, kind: real(m, kind) * 2)
    inst = IsoGameInstance(
        uniform_matroid(*first), uniform_matroid(*second), IsoStructure.BASES
    )
    assert check_bisynchronous(inst) == _diagonal_scan(inst) == want


def test_bisynchronous_across_small_catalog(catalog5):
    """Every constructible instance passes the diagonal scans."""
    from mig.structures import covers

    mats = catalog5[3]
    scanned = 0
    for i, m in enumerate(mats):
        for n in mats[i :: 5]:
            for kind in IsoStructure:
                if not (covers(m, kind).covered and covers(n, kind).covered):
                    continue
                inst = IsoGameInstance(m, n, kind)
                if inst.size() > 30:
                    continue
                assert check_bisynchronous(inst) and _diagonal_scan(inst)
                scanned += 1
    assert scanned > 50


def test_strategy_from_iso_perfect(u23_game):
    for perm in ((0, 1, 2), (1, 0, 2), (2, 0, 1)):
        s = strategy_from_iso(u23_game, perm)
        assert evaluate_strategy(u23_game, s) == {
            "perfect": True,
            "counterexample": None,
        }
    with pytest.raises(NotAnIsomorphism):
        strategy_from_iso(u23_game, (0, 0, 1))


def test_constant_strategy_fails(u23_game):
    const = DeterministicStrategy(tuple([u23_game.split] * u23_game.size()))
    verdict = evaluate_strategy(u23_game, const)
    assert not verdict["perfect"]
    a, b = verdict["counterexample"]
    fa = const(a)
    assert u23_game.predicate(a, b, fa, const(b)) == 0


def test_pair_game_bisynchronous_and_hard(paper_pair):
    """The 144-letter instance passes the scans but admits no easy win."""
    p, q = paper_pair
    inst = IsoGameInstance(p, q, IsoStructure.NONBASES)
    assert inst.size() == 144
    assert check_bisynchronous(inst) and _diagonal_scan(inst)
    # a side-swapping index shift is not a perfect strategy
    shift = DeterministicStrategy(
        tuple(list(range(72, 144)) + list(range(72)))
    )
    verdict = evaluate_strategy(inst, shift)
    assert not verdict["perfect"]


def test_strategy_from_restriction_iso(paper_pair):
    from mig.lbcs_construct import WITNESS_Y, disjoint_triple_matroid
    from mig.bitset import mask_of
    from mig.relgraph import find_matroid_isomorphism

    _, q = paper_pair
    qy = q.restrict(mask_of(WITNESS_Y))
    n = disjoint_triple_matroid()
    kind = IsoStructure.NONBASES
    ground, _ = find_matroid_isomorphism(qy, n, kind)
    inst = IsoGameInstance(qy, n, kind)
    verdict = evaluate_strategy(inst, strategy_from_iso(inst, ground))
    assert verdict["perfect"]


def _all_perfect_functions(inst):
    """Independent oracle: enumerate every answer function outright."""
    from itertools import product

    k = inst.size()
    out = []
    for candidate in product(range(k), repeat=k):
        ok = True
        for a in range(k):
            for b in range(k):
                if not inst.predicate(a, b, candidate[a], candidate[b]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(candidate)
    return out


@pytest.mark.parametrize(
    "make",
    [
        lambda: (uniform_matroid(1, 2), uniform_matroid(1, 2)),
        lambda: (uniform_matroid(2, 2), uniform_matroid(2, 2)),
        lambda: (uniform_matroid(1, 2), uniform_matroid(2, 2)),
    ],
)
def test_perfect_strategies_are_induced(make):
    """Every perfect answer function comes from a ground isomorphism."""
    m, n = make()
    inst = IsoGameInstance(m, n, IsoStructure.BASES)
    assert inst.size() <= 6
    brute = set(_all_perfect_functions(inst))
    found = exhaustive_perfect_strategy(inst)
    assert (found is not None) == bool(brute)
    if found is not None:
        assert found.mapping in brute
    from itertools import permutations

    induced = set()
    for perm in permutations(range(n.n)):
        try:
            induced.add(strategy_from_iso(inst, perm).mapping)
        except NotAnIsomorphism:
            pass
    assert induced == brute


def test_exhaustive_guard(u23_game):
    with pytest.raises(GuardExceeded):
        exhaustive_perfect_strategy(u23_game)


# -- constraint systems ---------------------------------------------------------


def magic_lbcs(neg_bottom=False):
    lines = [(0, 1, 2), (3, 4, 5), (0, 3, 6), (1, 4, 7), (2, 5, 8), (6, 7, 8)]
    signs = {line: 1 for line in lines}
    if neg_bottom:
        signs[(6, 7, 8)] = -1
    return LBCS(9, tuple(Constraint(line, signs[line]) for line in lines))


def test_lbcs_validation():
    with pytest.raises(MalformedAssignment):
        LBCS(3, (Constraint((), 1),))
    with pytest.raises(MalformedAssignment):
        LBCS(3, (Constraint((0, 5), 1),))
    with pytest.raises(MalformedAssignment):
        LBCS(3, (Constraint((0, 1), 2),))


def test_lbcs_predicate():
    lbcs = magic_lbcs()
    assert lbcs_predicate(lbcs, 0, 0, (1, -1, -1), (1, -1, -1)) == 1
    assert lbcs_predicate(lbcs, 0, 0, (1, -1, -1), (-1, 1, -1)) == 0
    # constraints 0 and 2 share variable 0
    assert lbcs_predicate(lbcs, 0, 2, (1, 1, 1), (1, 1, 1)) == 1
    assert lbcs_predicate(lbcs, 0, 2, (-1, -1, 1), (1, -1, -1)) == 0
    with pytest.raises(MalformedAssignment):
        lbcs_predicate(lbcs, 0, 0, (1, 1), (1, 1, 1))
    with pytest.raises(MalformedAssignment):
        lbcs_predicate(lbcs, 0, 0, (1, 0, 1), (1, 1, 1))


def test_magic_square_solution_counts():
    assert len(lbcs_solutions(magic_lbcs())) == 16
    assert lbcs_solutions(magic_lbcs(neg_bottom=True)) == []


def test_single_constraint_solutions():
    lbcs = LBCS(2, (Constraint((0, 1), 1),))
    assert sorted(lbcs_solutions(lbcs)) == [(-1, -1), (1, 1)]


def test_homogeneous_always_has_all_ones():
    lbcs = magic_lbcs()
    assert (1,) * 9 in lbcs_solutions(lbcs)


def test_solutions_guard():
    with pytest.raises(GuardExceeded):
        lbcs_solutions(LBCS(30, (Constraint((0,), 1),)))


def test_lbcs_json_roundtrip():
    lbcs = magic_lbcs(neg_bottom=True)
    assert lbcs_from_json(lbcs.to_json()) == lbcs
