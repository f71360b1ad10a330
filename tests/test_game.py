"""The isomorphism game, its strategies, and constraint systems."""

import random
from itertools import permutations, product

import pytest

from mig import matroid_from_bases, relgraph, uniform_matroid
from mig.errors import (
    GuardExceeded,
    InvariantViolation,
    MalformedAssignment,
    NotCovering,
    OutOfAlphabet,
)
from mig.game import (
    LBCS,
    Constraint,
    DeterministicStrategy,
    IsoGameInstance,
    evaluate_strategy,
    lbcs_predicate,
    lbcs_solutions,
)
from mig.jsonio import lbcs_from_json
from mig.structures import IsoStructure, covers, pointed_sets
from oracles import OracleGame, strategy_from_iso


@pytest.fixture(scope="module")
def u23_game():
    u23 = uniform_matroid(2, 3)
    return IsoGameInstance(u23, u23, IsoStructure.BASES)


@pytest.fixture(scope="module")
def u23_oracle():
    u23 = uniform_matroid(2, 3)
    return OracleGame.of(u23, u23, IsoStructure.BASES)


def test_instance_requires_covering():
    with pytest.raises(NotCovering):
        IsoGameInstance(
            uniform_matroid(2, 3), uniform_matroid(2, 3), IsoStructure.NONBASES
        )


def test_predicate_basics(u23_oracle):
    """The oracle's predicate, which the differential tests trust."""
    inst = u23_oracle
    k = inst.split
    # equal questions, mirrored answers win; mismatched answers lose
    assert inst.predicate(0, 0, k + 0, k + 0) == 1
    assert inst.predicate(0, 0, k + 0, k + 1) == 0
    # answering on the question's own side always loses
    assert inst.predicate(0, 1, 2, k + 1) == 0
    with pytest.raises(OutOfAlphabet):
        inst.predicate(0, 0, 99, 0)


def _diagonal_scan(inst):
    """Bisynchrony by both diagonal slices, O(k^3) oracle predicates.

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


def test_bisynchronous(u23_oracle):
    assert _diagonal_scan(u23_oracle)
    # vacuous on the empty-alphabet instance
    u00 = matroid_from_bases(0, [[]])
    empty = IsoGameInstance(u00, u00, IsoStructure.BASES)
    assert empty.size() == 0
    assert _diagonal_scan(OracleGame.of(u00, u00, IsoStructure.BASES))


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
    """A repeated pointed set is the one way bisynchrony can fail, and the
    game refuses every alphabet that repeats one, so `game check` can
    report bisynchrony without a scan."""
    m, n = uniform_matroid(*first), uniform_matroid(*second)
    kind = IsoStructure.BASES
    doubled = OracleGame(pointed_sets(m, kind) * 2, pointed_sets(n, kind) * 2)
    assert _diagonal_scan(doubled) == want
    assert _diagonal_scan(OracleGame.of(m, n, kind))
    monkeypatch.setattr(relgraph, "pointed_sets", lambda m, kind: 2 * pointed_sets(m, kind))
    with pytest.raises(InvariantViolation):
        IsoGameInstance(m, n, kind)


def test_bisynchronous_across_small_catalog(catalog5):
    """Every constructible instance passes the diagonal scans."""
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
                oracle = OracleGame.of(m, n, kind)
                assert oracle.size() == inst.size() and _diagonal_scan(oracle)
                scanned += 1
    assert scanned > 50


def test_strategy_from_iso_perfect(u23_game):
    u23 = uniform_matroid(2, 3)
    for perm in ((0, 1, 2), (1, 0, 2), (2, 0, 1)):
        s = strategy_from_iso(u23, u23, IsoStructure.BASES, perm)
        assert evaluate_strategy(u23_game, s) == {
            "perfect": True,
            "counterexample": None,
        }
    with pytest.raises(ValueError):
        strategy_from_iso(u23, u23, IsoStructure.BASES, (0, 0, 1))


def test_constant_strategy_fails(u23_game, u23_oracle):
    const = DeterministicStrategy(tuple([u23_game.g.n] * u23_game.size()))
    verdict = evaluate_strategy(u23_game, const)
    assert not verdict["perfect"]
    a, b = verdict["counterexample"]
    fa = const(a)
    assert u23_oracle.predicate(a, b, fa, const(b)) == 0


def test_pair_game_bisynchronous_and_hard(paper_pair):
    """The 144-letter instance passes the scans but admits no easy win."""
    p, q = paper_pair
    inst = IsoGameInstance(p, q, IsoStructure.NONBASES)
    assert inst.size() == 144
    assert _diagonal_scan(OracleGame.of(p, q, IsoStructure.NONBASES))
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
    verdict = evaluate_strategy(inst, strategy_from_iso(qy, n, kind, ground))
    assert verdict["perfect"]


def _all_perfect_functions(inst):
    """Independent oracle: enumerate every answer function outright."""
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
    kind = IsoStructure.BASES
    inst = IsoGameInstance(m, n, kind)
    assert inst.size() <= 6
    brute = set(_all_perfect_functions(OracleGame.of(m, n, kind)))
    for mapping in brute:
        assert evaluate_strategy(inst, DeterministicStrategy(mapping))["perfect"]
    induced = set()
    for perm in permutations(range(n.n)):
        try:
            induced.add(strategy_from_iso(m, n, kind, perm).mapping)
        except ValueError:
            pass
    assert induced == brute


def _strategies(inst, rng):
    """Answer maps that fail in different places: identity (every answer
    on its own side), reversal, the shifts by one side either way, one
    swap of the forward shift, and random maps, uniform and across."""
    k, split = inst.size(), inst.g.n
    shift = [(a + split) % k for a in range(k)]
    out = [
        list(range(k)),
        list(range(k - 1, -1, -1)),
        shift,
        [(a - split) % k for a in range(k)],
        [rng.randrange(k) for _ in range(k)],
    ]
    if k >= 2:
        i, j = rng.sample(range(k), 2)
        shift[i], shift[j] = shift[j], shift[i]
        out.append(shift)
    if split and k > split:
        out += [
            [
                rng.randrange(split, k) if a < split else rng.randrange(split)
                for a in range(k)
            ]
            for _ in range(2)
        ]
    return out


def _agree(m, n, kind, maps):
    inst = IsoGameInstance(m, n, kind)
    oracle = OracleGame.of(m, n, kind)
    for mapping in maps:
        want = oracle.evaluate(mapping)
        assert evaluate_strategy(inst, DeterministicStrategy(tuple(mapping))) == want
    return len(maps)


def _with_swaps(mapping, rng, count=3):
    """The map and `count` copies with two of its answers swapped."""
    out = [list(mapping)]
    for _ in range(count if len(mapping) >= 2 else 0):
        other = list(mapping)
        i, j = rng.sample(range(len(other)), 2)
        other[i], other[j] = other[j], other[i]
        out.append(other)
    return out


def test_evaluate_strategy_matches_predicate_loop_on_small_catalog(catalog5):
    """The same verdict and counterexample as the oracle's predicate loop on
    every covering kind of every pair with n <= 4, and on the perfect
    strategy of a relabelling of each matroid with swaps of it."""
    rng = random.Random(16)
    mats = [m for n in range(5) for m in catalog5[n]]
    checked = 0
    for kind in IsoStructure:
        covering = [m for m in mats if covers(m, kind).covered]
        for m in covering:
            for n in covering:
                inst = IsoGameInstance(m, n, kind)
                checked += _agree(m, n, kind, _strategies(inst, rng))
            perm = list(range(m.n))
            rng.shuffle(perm)
            n = m.relabel(perm)
            induced = strategy_from_iso(m, n, kind, perm).mapping
            checked += _agree(m, n, kind, _with_swaps(induced, rng))
    assert checked > 50_000


def test_evaluate_strategy_matches_predicate_loop_on_paper_pair(paper_pair):
    rng = random.Random(16)
    p, q = paper_pair
    perm = list(range(p.n))
    rng.shuffle(perm)
    for kind in (IsoStructure.NONBASES, IsoStructure.HYPERPLANES):
        for m, n in ((p, p), (p, q), (q, p)):
            _agree(m, n, kind, _strategies(IsoGameInstance(m, n, kind), rng))
        induced = strategy_from_iso(p, p.relabel(perm), kind, perm).mapping
        _agree(p, p.relabel(perm), kind, _with_swaps(induced, rng))


def test_answer_outside_alphabet_refused_before_scan(u23_game):
    """Letter 0 answers on its own side, which would lose at (0, 0), but an
    answer one past the alphabet is refused first, and so is a short map."""
    mapping = (0, 7, 8, 9, 10, 11, 0, 1, 2, 3, 4, 12)
    with pytest.raises(OutOfAlphabet, match="letter 11 to 12, outside"):
        evaluate_strategy(u23_game, DeterministicStrategy(mapping))
    with pytest.raises(OutOfAlphabet, match="not total"):
        evaluate_strategy(u23_game, DeterministicStrategy(mapping[:-1]))


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
