"""Every guard fails loudly: its message names the size and the guard constant."""

import pytest

from mig import matroid_from_bases, matroid_from_graph, matroid_from_nonbases
from mig.algebra import export_groundset_relations
from mig.catalog import all_matroids
from mig.derived import derive_sets, tutte_polynomial
from mig.errors import GuardExceeded
from mig.game import LBCS, Constraint, lbcs_solutions
from mig.matroid import (
    Matroid,
    brute_force_isomorphic,
    check_basis_scan,
    uniform_matroid,
)
from mig.relgraph import automorphism_group, build_graph
from mig.structures import IsoStructure
from oracles import brute_force_automorphism_count


CASES = {
    "derive": (
        lambda: derive_sets(uniform_matroid(2, 25)),
        ["n=25", "DERIVE_GUARD = 24"],
    ),
    "derive-tutte": (
        lambda: tutte_polynomial(uniform_matroid(1, 25)),
        ["n=25", "DERIVE_GUARD = 24"],
    ),
    "bases-ground": (
        lambda: matroid_from_bases(65, [[0]]),
        ["65 elements", "MAX_GROUND = 64"],
    ),
    "nonbases-ground": (
        lambda: matroid_from_nonbases(65, 1, []),
        ["65 elements", "MAX_GROUND = 64"],
    ),
    "graph-ground": (
        lambda: matroid_from_graph([(0, 1)] * 65),
        ["65 elements", "MAX_GROUND = 64"],
    ),
    "free-extension": (
        lambda: Matroid(64, 0, (0,)).free_extension(),
        ["65 elements", "MAX_GROUND = 64"],
    ),
    "basis-scan": (
        lambda: check_basis_scan(40, 20),
        ["C(40,20) = 137846528820", "BASES_GUARD = 5000000"],
    ),
    "connectivity": (
        lambda: uniform_matroid(3, 21).connectivity(),
        ["n=21", "CONNECTIVITY_GUARD = 20"],
    ),
    "brute-iso": (
        lambda: brute_force_isomorphic(uniform_matroid(2, 10), uniform_matroid(2, 10)),
        ["n=10", "BRUTE_ISO_GUARD = 9"],
    ),
    "brute-aut": (
        lambda: brute_force_automorphism_count(uniform_matroid(2, 10)),
        ["n=10", "BRUTE_ISO_GUARD = 9"],
    ),
    "catalog": (lambda: all_matroids(8), ["n=8", "CATALOG_GUARD = 7"]),
    "lbcs-solutions": (
        lambda: lbcs_solutions(LBCS(30, (Constraint((0,), 1),))),
        ["30 variables", "LBCS_VARS_GUARD = 24"],
    ),
    "group-elements": (
        lambda: automorphism_group(
            build_graph(uniform_matroid(1, 8), IsoStructure.BASES)
        ).elements(),
        ["group order 40320", "GROUP_ENUM_CAP = 20000"],
    ),
    "tuple-space": (
        lambda: export_groundset_relations(
            Matroid(40, 4, (0b1111,)), Matroid(40, 4, (0b1111,)), IsoStructure.BASES
        ),
        ["5120000 tuples", "length 4", "TUPLE_SPACE_GUARD = 2000000"],
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_guard_message_names_size_guard_and_flag(name):
    call, parts = CASES[name]
    with pytest.raises(GuardExceeded) as info:
        call()
    for part in parts:
        assert part in str(info.value)
