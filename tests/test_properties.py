"""Hypothesis properties of the search, the matroid kernel and the CLI inputs.

For the search, M is drawn from the labelled catalog on n <= 6 elements or
is a doubled-grid matroid M_S for a drawn set of negative grid lines, and
is relabelled by a drawn permutation of its ground set.  The kernel
properties draw from the catalog; the input properties draw JSON values of
any shape and nesting and feed them to `mig` as files.
"""

import contextlib
import io
import json
import random

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import line_engine  # noqa: E402
from oracles import indexed_map  # noqa: E402
from mig.catalog import all_matroids  # noqa: E402
from mig.cli import main  # noqa: E402
from mig.derived import derive_sets, tutte_polynomial  # noqa: E402
from mig.jsonio import dumps, matroid_from_json, matroid_to_json  # noqa: E402
from mig.lbcs_construct import SignAssignment, grid_matroid, m_s_matroid  # noqa: E402
from mig.matroid import Matroid  # noqa: E402
from mig.relgraph import (  # noqa: E402
    automorphism_group,
    build_graph,
    find_matroid_isomorphism,
    preserves_adjacency,
)
from mig.structures import IsoStructure, covers, structure_sets  # noqa: E402

DOUBLED_KINDS = (IsoStructure.NONBASES, IsoStructure.HYPERPLANES, IsoStructure.FLATS)
SETTINGS = settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def relabelled(draw):
    """(M, kind, perm): a covering kind of M and a permutation of M's ground set."""
    if draw(st.booleans()):
        m = draw(st.sampled_from(all_matroids(draw(st.integers(0, 6)))))
        kinds = [k for k in IsoStructure if covers(m, k).covered]
        assume(kinds)
    else:
        grid = grid_matroid()
        lines = draw(st.sets(st.sampled_from(grid.cyclic_hyperplanes())))
        m = m_s_matroid(grid, SignAssignment.with_negatives(grid, sorted(lines)))
        kinds = list(DOUBLED_KINDS)
    kind = draw(st.sampled_from(kinds))
    return m, kind, draw(st.permutations(range(m.n)))


def _image(ground, mask):
    out = 0
    for e in range(len(ground)):
        if mask >> e & 1:
            out |= 1 << ground[e]
    return out


@SETTINGS
@given(relabelled())
def test_isomorphism_to_a_relabelling_carries_the_bases(case):
    m, kind, perm = case
    n = m.relabel(perm)
    hit = find_matroid_isomorphism(m, n, kind)
    assert hit is not None
    ground = hit[0]
    assert sorted(ground) == list(range(m.n))
    assert {_image(ground, b) for b in m.bases} == set(n.bases)


@SETTINGS
@given(relabelled())
def test_automorphism_order_is_invariant_under_relabelling(case):
    m, kind, perm = case
    order = automorphism_group(build_graph(m, kind)).order
    n = m.relabel(perm)
    assert automorphism_group(build_graph(n, kind)).order == order


def _check_vertex_map_is_induced(m, n, kind):
    """The vertex map found is the one its ground map induces, read vertex
    by vertex off freshly built graphs, and it keeps rel."""
    ground, mapping = find_matroid_isomorphism(m, n, kind)
    g, h = build_graph(m, kind), build_graph(n, kind)
    assert indexed_map(g, h, ground) == mapping
    assert preserves_adjacency(g, h, mapping)


@SETTINGS
@given(relabelled())
def test_isomorphism_vertex_map_is_induced_by_its_ground_map(case):
    m, kind, perm = case
    _check_vertex_map_is_induced(m, m.relabel(perm), kind)


def test_vertex_map_is_induced_on_every_kind_of_a_doubled_grid():
    """A seeded doubled grid against a seeded relabelling, all six kinds,
    the three that `relabelled` does not draw for it included."""
    rng = random.Random(28)
    grid = grid_matroid()
    lines = [h for h in grid.cyclic_hyperplanes() if rng.random() < 0.5]
    m = m_s_matroid(grid, SignAssignment.with_negatives(grid, lines))
    perm = list(range(m.n))
    rng.shuffle(perm)
    n = m.relabel(perm)
    for kind in IsoStructure:
        _check_vertex_map_is_induced(m, n, kind)


catalog_matroids = st.integers(0, 6).flatmap(lambda n: st.sampled_from(all_matroids(n)))


@SETTINGS
@given(catalog_matroids, st.data())
def test_incidence_search_carries_each_covering_family_across(m, data):
    """M from the catalog, sigma M a drawn relabelling, every covering kind.

    The ground map must carry the kind's family onto sigma M's, and the two
    automorphism groups must have the order that the line-graph engine
    finds.
    """
    n = m.relabel(data.draw(st.permutations(range(m.n))))
    for kind in (k for k in IsoStructure if covers(m, k).covered):
        ground, _ = find_matroid_isomorphism(m, n, kind)
        fam = {_image(ground, a) for a in structure_sets(m, kind)}
        assert fam == set(structure_sets(n, kind))
        g, h = build_graph(m, kind), build_graph(n, kind)
        order = line_engine.automorphism_group(g).order
        assert automorphism_group(g).order == automorphism_group(h).order == order


@SETTINGS
@given(catalog_matroids)
def test_tutte_polynomial_of_the_dual_swaps_x_and_y(m):
    swapped = {(j, i): c for (i, j), c in tutte_polynomial(m).coeffs.items()}
    assert tutte_polynomial(m.dual()).coeffs == swapped


@SETTINGS
@given(catalog_matroids, st.data())
def test_derive_sets_commutes_with_relabelling(m, data):
    """Each family of pi M is the pi-image of M's, in canonical order."""
    perm = data.draw(st.permutations(range(m.n)))

    def image(mask):
        return sum(1 << perm[e] for e in range(m.n) if mask >> e & 1)

    rep, got = derive_sets(m), derive_sets(m.relabel(perm))
    for name in ("independents", "circuits", "flats", "hyperplanes", "cyclic_flats"):
        assert getattr(got, name) == tuple(sorted(map(image, getattr(rep, name))))
    assert (got.loops, got.coloops) == (image(rep.loops), image(rep.coloops))
    assert got.girth == rep.girth


@st.composite
def two_elements(draw):
    """(M, e, f): a catalog matroid with labels and two distinct elements."""
    n = draw(st.integers(2, 6))
    m = draw(st.sampled_from(all_matroids(n)))
    m = Matroid(n, m.rank, m.bases, tuple(f"e{i}" for i in range(n)))
    e, f = draw(st.permutations(range(n)))[:2]
    return m, e, f


@SETTINGS
@given(two_elements(), st.booleans(), st.booleans())
def test_deletion_and_contraction_commute(case, delete_e, delete_f):
    """Removing e then f is removing f then e, once indices shift down."""
    m, e, f = case

    def remove(mat, x, delete):
        return mat.delete(1 << x) if delete else mat.contract(1 << x)

    e_first = remove(remove(m, e, delete_e), f - (f > e), delete_f)
    f_first = remove(remove(m, f, delete_f), e - (e > f), delete_e)
    assert (e_first.key, e_first.labels) == (f_first.key, f_first.labels)


@SETTINGS
@given(catalog_matroids, st.data())
def test_matroid_json_round_trip_is_the_identity(m, data):
    if m.n and data.draw(st.booleans()):
        labels = data.draw(st.lists(st.text(), min_size=m.n, max_size=m.n))
        m = Matroid(m.n, m.rank, m.bases, tuple(labels))
    back = matroid_from_json(json.loads(dumps(matroid_to_json(m))))
    assert (back.key, back.labels) == (m.key, m.labels)


# JSON values of any shape, with small integers so that no drawn input runs
# long, and the field names of the three input formats as likely keys
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 10)
    | st.sampled_from([2**70, -(2**70)])
    | st.floats()
    | st.text(),
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(
        st.sampled_from(["n", "rank", "bases", "nonbases", "labels", "vars"])
        | st.sampled_from(["constraints", "sign", "map"])
        | st.text(),
        inner,
        max_size=5,
    ),
    max_leaves=30,
)
json_texts = json_values.map(json.dumps) | st.integers(0, 3000).map(
    lambda depth: "[" * depth + "]" * depth
)

INPUT_COMMANDS = {
    "matroid": ("matroid", "info", "{file}"),
    "strategy": (
        "game",
        "eval-strategy",
        "{u23}",
        "{u23}",
        "--structure",
        "bases",
        "--strategy",
        "{file}",
    ),
    "constraint-system": ("lbcs", "solve", "{file}"),
}


@pytest.fixture(scope="module")
def input_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("inputs")
    (path / "u23.json").write_text('{"n": 3, "rank": 2, "nonbases": []}')
    return path


@pytest.mark.parametrize("fmt", sorted(INPUT_COMMANDS))
@SETTINGS
@given(text=json_texts)
def test_drawn_input_json_exits_with_a_verdict_or_an_error(input_dir, fmt, text):
    """Any JSON input file gives exit 0, 1 or 2 and no traceback."""
    target = input_dir / f"{fmt}.json"
    target.write_text(text)
    argv = [
        arg.format(file=target, u23=input_dir / "u23.json")
        for arg in INPUT_COMMANDS[fmt]
    ]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
