"""Command-line surface: verdict exit codes, determinism, error mapping."""

import hashlib
import json

import pytest

from mig import matroid_from_graph, matroid_from_nonbases, uniform_matroid
from mig.cli import main
from mig.jsonio import dumps, matroid_to_json
from mig.structures import IsoStructure


@pytest.fixture(scope="module")
def files(tmp_path_factory, paper_pair):
    tmp = tmp_path_factory.mktemp("cli")
    p, q = paper_pair
    paths = {}
    for name, m in (
        ("u23", uniform_matroid(2, 3)),
        ("u24", uniform_matroid(2, 4)),
        ("u13", uniform_matroid(1, 3)),
        ("k4", matroid_from_graph([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])),
        ("twolines", matroid_from_nonbases(5, 3, [[0, 1, 4], [2, 3, 4]])),
        ("parallel", uniform_matroid(1, 3).direct_sum(uniform_matroid(1, 3))),
        ("P", p),
        ("Q", q),
    ):
        path = tmp / f"{name}.json"
        path.write_text(dumps(matroid_to_json(m)))
        paths[name] = str(path)
    paths["dir"] = tmp
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_matroid_info(files, capsys):
    code, out, _ = run(capsys, "matroid", "info", files["u23"])
    assert code == 0
    data = json.loads(out)
    assert data["predicates"]["girth"] == 3
    assert data["predicates"]["connectivity"] == "infinite"


def test_matroid_info_above_the_connectivity_guard(tmp_path, capsys):
    """Above CONNECTIVITY_GUARD = 20 and up to DERIVE_GUARD = 24, `matroid
    info` prints the matroid and the predicates that `derive_sets` answers,
    names the guard in place of the connectivity and on stderr, and exits
    0; above DERIVE_GUARD it exits 2 and prints nothing."""
    for n in (21, 24):
        path = tmp_path / f"u1_{n}.json"
        path.write_text(dumps(matroid_to_json(uniform_matroid(1, n))))
        code, out, err = run(capsys, "matroid", "info", str(path))
        skipped = f"n={n} exceeds the guard CONNECTIVITY_GUARD = 20"
        assert (code, err) == (0, f"warning: connectivity not computed: {skipped}\n")
        data = json.loads(out)
        assert data["matroid"] == matroid_to_json(uniform_matroid(1, n))
        assert data["predicates"] == {
            "is_simple": False,
            "is_paving": True,
            "is_sparse_paving": True,
            "girth": 2,
            "connectivity": f"not computed: {skipped}",
        }
    path = tmp_path / "u1_25.json"
    path.write_text(dumps(matroid_to_json(uniform_matroid(1, 25))))
    code, out, err = run(capsys, "matroid", "info", str(path))
    assert (code, out) == (2, "") and "DERIVE_GUARD = 24" in err


def test_matroid_derive_and_tutte(files, capsys):
    code, out, _ = run(capsys, "matroid", "derive", files["u23"])
    assert code == 0
    data = json.loads(out)
    assert data["circuits"] == [[0, 1, 2]]
    assert data["girth"] == 3
    code, out, _ = run(capsys, "matroid", "tutte", files["u23"])
    data = json.loads(out)
    assert data["tutte"]["terms"] == [
        {"x": 0, "y": 1, "c": 1},
        {"x": 1, "y": 0, "c": 1},
        {"x": 2, "y": 0, "c": 1},
    ]
    assert data["characteristic"] == [2, -3, 1]


# `matroid derive` (every family as JSON) and `matroid info` on P
MATROID_SHA256 = {
    "derive": "45fc07364137e299309933b0d80d3a85d0efc8bd4fc1831b2033f7ad243bb01d",
    "info": "cb51749dac729f619d3539126d7a2bcd4ef130a2ec11193179d7f0a571a32f39",
}


@pytest.mark.parametrize("action", sorted(MATROID_SHA256))
def test_matroid_bytes_on_p(files, capsys, action):
    code, out, _ = run(capsys, "matroid", action, files["P"])
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (
        0,
        MATROID_SHA256[action],
    )


def test_matroid_dual_and_minor(files, capsys):
    code, out, _ = run(capsys, "matroid", "dual", files["u23"])
    assert code == 0 and json.loads(out)["rank"] == 1
    code, out, _ = run(
        capsys, "matroid", "minor", files["u24"], "--contract", "0", "--delete", "1"
    )
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 2 and data["rank"] == 1


def test_cover_exit_codes(files, capsys):
    assert run(capsys, "cover", files["u23"], "--structure", "bases")[0] == 0
    assert run(capsys, "cover", files["u23"], "--structure", "nonbases")[0] == 1


def test_iso_exit_codes(files, capsys):
    code, out, _ = run(
        capsys, "iso", files["u23"], files["u23"], "--structure", "bases"
    )
    assert code == 0 and json.loads(out)["isomorphic"]
    code, out, _ = run(
        capsys, "iso", files["u23"], files["u13"], "--structure", "flats"
    )
    assert code == 1 and not json.loads(out)["isomorphic"]


def test_iso_refuses_non_covering(files, capsys):
    """A loop lies in no basis, so the bases game cannot see it: exit 2."""
    loopy = files["dir"] / "loopy.json"
    loopy.write_text('{"n": 3, "rank": 2, "bases": [[0, 1]]}')
    for first, side in ((str(loopy), "first"), (files["u23"], "second")):
        code, out, err = run(
            capsys, "iso", first, str(loopy), "--structure", "bases"
        )
        assert code == 2 and out == ""
        assert err == (
            f"error: NotCovering: bases misses element 2 of the {side} matroid\n"
        )


def test_graph_warns_when_not_covering(files, capsys):
    """`graph` prints any family's graph; one stderr line flags a non-cover."""
    build = ("graph", "build", files["u23"])
    code, out, err = run(capsys, *build, "--structure", "nonbases")
    assert code == 0
    assert json.loads(out) == {"vertices": [], "edges": {"1": [], "2": []}}
    assert err == (
        "warning: nonbases misses element 0; the graph has no vertex on it\n"
    )
    assert run(capsys, *build, "--structure", "bases")[2] == ""


def test_graph_build_stats_refused_before_the_matroid_is_read(files, capsys):
    """`graph build --stats` exits 2 with one stderr line, the refusal: no
    graph is built and no covering warning comes first, and a missing file
    is not even opened."""
    loopy = files["dir"] / "loopy_unranked.json"
    loopy.write_text('{"n": 3, "bases": [[0, 1]]}')
    missing = files["dir"] / "missing.json"
    for path in (loopy, missing):
        code, out, err = run(
            capsys, "graph", "build", str(path), "--structure", "bases", "--stats"
        )
        assert code == 2 and out == ""
        assert err == "error: MigError: --stats applies to graph aut\n"


def test_game_commands(files, capsys):
    code, out, _ = run(
        capsys, "game", "check", files["u23"], files["u23"], "--structure", "bases"
    )
    assert code == 0 and json.loads(out)["bisynchronous"]
    strategy = files["dir"] / "strategy.json"
    strategy.write_text(json.dumps({"map": [6, 7, 8, 9, 10, 11, 0, 1, 2, 3, 4, 5]}))
    code, out, _ = run(
        capsys,
        "game",
        "eval-strategy",
        files["u23"],
        files["u23"],
        "--structure",
        "bases",
        "--strategy",
        str(strategy),
    )
    assert code == 0 and json.loads(out)["perfect"]


@pytest.mark.parametrize("bad", [99, -1])
def test_out_of_range_strategy_refused_before_scan(files, capsys, bad):
    """Letter 0 answers on its own side, which loses at (0, 0), but the whole
    map is range-checked first: exit 2, naming the letter and the value."""
    strategy = files["dir"] / "bad-strategy.json"
    strategy.write_text(json.dumps({"map": [0, 7, 8, 9, 10, 11, 0, 1, 2, 3, 4, bad]}))
    argv = ("game", "eval-strategy", files["u23"], files["u23"], "--structure")
    code, out, err = run(capsys, *argv, "bases", "--strategy", str(strategy))
    assert code == 2 and out == ""
    assert err == (
        f"error: OutOfAlphabet: strategy maps letter 11 to {bad}, outside the"
        " alphabet of size 12\n"
    )


def test_identity_strategy_on_bases_of_p_is_perfect(files, capsys):
    """The strategy of the identity ground map on the 4752-letter bases game."""
    strategy = files["dir"] / "identity.json"
    strategy.write_text(json.dumps({"map": list(range(2376, 4752)) + list(range(2376))}))
    argv = ("game", "eval-strategy", files["P"], files["P"], "--structure")
    code, out, _ = run(capsys, *argv, "bases", "--strategy", str(strategy))
    assert code == 0
    assert out == '{\n  "counterexample": null,\n  "perfect": true\n}\n'


def test_lbcs_pipeline(files, capsys):
    signed = files["dir"] / "signed.json"
    code, _, _ = run(capsys, "lbcs", "build", "--negate", "6,7,8", "--out", str(signed))
    assert code == 0
    code, out, _ = run(capsys, "lbcs", "solve", str(signed))
    assert code == 1 and json.loads(out)["count"] == 0
    hom = files["dir"] / "hom.json"
    code, _, _ = run(capsys, "lbcs", "build", "--out", str(hom))
    code, out, _ = run(capsys, "lbcs", "solve", str(hom))
    assert code == 0 and json.loads(out)["count"] == 16


def test_ms_construct_roundtrip(files, capsys):
    grid_file = files["dir"] / "grid.json"
    from mig.lbcs_construct import grid_matroid

    grid_file.write_text(dumps(matroid_to_json(grid_matroid())))
    code, out, _ = run(capsys, "ms-construct", str(grid_file), "--negate", "6,7,8")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 18 and len(data["nonbases"]) == 24


def test_quantum_commands(capsys):
    code, out, _ = run(capsys, "quantum", "magic-square")
    assert code == 0 and json.loads(out)["perfect"]
    assert hashlib.sha256(out.encode()).hexdigest() == MAGIC_SQUARE_SHA256
    code, out, _ = run(capsys, "quantum", "verify-iso")
    assert code == 0 and json.loads(out)["perfect"]
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ISO_SHA256


# every float in the certificate is exactly 0.0 or 1.0, so the bytes are stable
MAGIC_SQUARE_SHA256 = "51301d067d3197c3f690020c2a53559e4fac7bfea4eddd10f7be10757da766fe"
PAPER_PAIR_SHA256 = "d7e20642a267913e8091b077a2582b072d5767cc0f0ad7ff78f570af889fcb32"
VERIFY_ISO_SHA256 = "1c1de4da9bbe1827a69193902722fbadac6cb3b7581e2059d67502392e936930"
# the generators are those of the incidence search's chain; the group they
# generate, as a set of vertex permutations, is the line-graph search's
GRAPH_AUT_SHA256 = {
    "P": "6cb671824d0262727d079079d1cd0bd9955830d9d3ca5450eeb8d8ae64851670",
    "Q": "f564517e349edccc8f3b7d38d398e2b5caf59f7b0e69447bd13b8c21fa8199bb",
}
# `graph build` on P: the vertices and both colours' edge lists
GRAPH_BUILD_SHA256 = {
    "nonbases": "c844763f62228672c9e3c69776c9d343b6fe7f53d1e541f70aabb752a5c20d9c",
    "hyperplanes": "dc52ac6db38f96ec4519aefe47a4cc58f3dc003dd19d369e74a2909191811e6a",
}


def test_paper_pair_commands(files, capsys):
    code, out, _ = run(capsys, "paper-pair")
    assert code == 0
    data = json.loads(out)
    assert data["P"]["n"] == 18 and len(data["Q"]["nonbases"]) == 24
    code, out, _ = run(capsys, "paper-pair", "--verify-all")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PAPER_PAIR_SHA256
    cert = json.loads(out)
    assert cert["allChecksPassed"] is True
    assert cert["minorObstruction"]["pSideScan"]["subsets"] == 48620
    assert cert["oracleSpotCheck"]["mismatches"] == 0


PAPER_PAIR_STAGES = [
    "lbcs",
    "isomorphismSearch",
    "strategy",
    "syncConditions",
    "sharedInvariants",
    "screen",
    "minorObstruction",
    "oracleSpotCheck",
    "coveringSpotCheck",
    "noncommCertificates",
    "screenMismatchControl",
]


def test_paper_pair_timings(capsys):
    """--timings writes one stage line each to stderr; stdout is unchanged."""
    code, out, err = run(capsys, "paper-pair", "--verify-all", "--timings")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PAPER_PAIR_SHA256
    lines = [line.split(" ") for line in err.splitlines()]
    assert [stage for stage, _ in lines] == PAPER_PAIR_STAGES
    assert all(float(seconds) >= 0 for _, seconds in lines)
    code, out, err = run(capsys, "paper-pair", "--timings")
    assert code == 2 and out == "" and "--timings" in err


def test_graph_aut_on_paper_pair(files, capsys):
    for name, digest in GRAPH_AUT_SHA256.items():
        argv = ("graph", "aut", files[name], "--structure", "nonbases")
        code, out, _ = run(capsys, *argv)
        assert code == 0 and json.loads(out)["order"] == "1152"
        assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("kind", sorted(GRAPH_BUILD_SHA256))
def test_graph_build_bytes_on_p(files, capsys, kind):
    code, out, _ = run(capsys, "graph", "build", files["P"], "--structure", kind)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (
        0,
        GRAPH_BUILD_SHA256[kind],
    )


# the search counts of P vs Q on their nonbases graphs (72 vertices each)
P_VS_Q_STATS = {
    "refinements": 37,
    "failedRefinements": 1,
    "splitterCounts": 2254,
    "orbitPrunes": 28,
    "leaves": 8,
    "searchStructure": "nonbases",
}


def test_stats_flag(files, capsys):
    """--stats adds the search counts; without it the JSON is unchanged."""
    pq = ("iso", files["P"], files["Q"], "--structure", "nonbases")
    code, plain, _ = run(capsys, *pq)
    assert code == 1
    code, out, _ = run(capsys, *pq, "--stats")
    data = json.loads(out)
    assert code == 1 and data.pop("stats") == P_VS_Q_STATS
    assert dumps(data) == plain
    aut = ("graph", "aut", files["P"], "--structure", "nonbases")
    code, plain, _ = run(capsys, *aut)
    code, out, _ = run(capsys, *aut, "--stats")
    data = json.loads(out)
    stats = data.pop("stats")
    assert code == 0 and dumps(data) == plain
    assert stats["leaves"] >= len(data["generators"]) and stats["orbitPrunes"] == 0
    assert stats["chainStructure"] == "nonbases"
    # hyperplanes (234 vertices) take the group of the nonbases graph (72)
    hyperplanes = ("graph", "aut", files["P"], "--structure", "hyperplanes")
    code, out, _ = run(capsys, *hyperplanes, "--stats")
    lifted = json.loads(out)
    assert code == 0 and lifted.pop("stats") == stats
    assert lifted["order"] == data["order"]
    u23 = ("iso", files["u23"], files["u23"], "--structure", "bases", "--stats")
    code, out, _ = run(capsys, *u23)
    assert code == 0 and json.loads(out)["stats"]["leaves"] == 1
    # a different number of bases answers without a search
    u23_u24 = ("iso", files["u23"], files["u24"], "--structure", "bases", "--stats")
    code, out, _ = run(capsys, *u23_u24)
    assert code == 1 and json.loads(out)["stats"] == {
        **{key: 0 for key in P_VS_Q_STATS},
        "searchStructure": None,
    }
    build = ("graph", "build", files["u23"], "--structure", "bases", "--stats")
    assert run(capsys, *build)[0] == 2


def test_iso_stats_count_the_nonbases_search_on_every_kind(files, capsys):
    """P vs Q searches the nonbases graphs whatever kind is asked for.

    Each kind covers P and Q, and the nonbases graph is the smallest that
    covers, so every kind reports its search and the pruning of Aut(Q)'s
    own chain: 28 prunes and 1 failed refinement.
    """
    for kind in IsoStructure:
        pq = ("iso", files["P"], files["Q"], "--structure", kind.value, "--stats")
        code, out, _ = run(capsys, *pq)
        assert code == 1 and json.loads(out)["stats"] == P_VS_Q_STATS, kind


def test_paper_pair_computes_each_group_once(capsys, monkeypatch):
    """Aut(Q) serves the P vs Q pruning and the shared-invariant report."""
    from mig import relgraph

    chain = relgraph._stabilizer_chain
    runs = []

    def counted(search):
        runs.append(search.g.n)
        return chain(search)

    monkeypatch.setattr(relgraph, "_stabilizer_chain", counted)
    assert run(capsys, "paper-pair", "--verify-all")[0] == 0
    assert runs == [72, 72]


def test_screen_exit_codes(files, capsys):
    assert (
        run(capsys, "screen", files["P"], files["Q"], "--structure", "nonbases")[0]
        == 0
    )
    assert (
        run(capsys, "screen", files["u23"], files["u24"], "--structure", "bases")[0]
        == 1
    )
    # covering is required, with no flag around it
    forced = ("screen", files["P"], files["Q"], "--structure", "nonbases", "--force")
    code, out, err = run(capsys, *forced)
    assert code == 2 and out == "" and "unrecognized arguments: --force" in err


def test_export_relations(files, capsys):
    code, out, _ = run(
        capsys,
        "export-relations",
        files["u23"],
        files["u23"],
        "--structure",
        "bases",
        "--with-substitution",
    )
    assert code == 0
    assert out.startswith("grid POINTED 6 6\n")
    assert "subst w[0][0] = u[0][0] + u[0][2]\n" in out
    code, out, _ = run(
        capsys,
        "export-relations",
        files["u23"],
        files["u23"],
        "--structure",
        "bases",
        "--grid",
        "groundset",
    )
    assert code == 0 and out.startswith("grid GROUNDSET 3 3\n")


def test_noncomm_cert(files, capsys):
    ex = files["dir"] / "twolines.json"
    from mig import matroid_from_nonbases

    ex.write_text(
        dumps(matroid_to_json(matroid_from_nonbases(5, 3, [[0, 1, 4], [2, 3, 4]])))
    )
    code, out, _ = run(capsys, "noncomm-cert", str(ex), "--structure", "nonbases")
    assert code == 0 and json.loads(out)["certificate"] is not None
    code, out, _ = run(capsys, "noncomm-cert", files["u23"], "--structure", "bases")
    assert code == 1 and json.loads(out)["certificate"] is None


# exit code and stdout digest of `noncomm-cert`, one input per method:
# membership-pattern on the two-line family, group-scan on two parallel triples
NONCOMM_CERT_SHA256 = {
    ("twolines", "nonbases"): (
        0,
        "3c63b2cb90ae21aef17b756d7197e26c50b4d6854ac421aa832d8a5c671acf84",
    ),
    ("parallel", "circuits"): (
        0,
        "0acaf1a1cf656e378615dd792b4f77d7c5a85cacbb51955c4a561b2467d1683b",
    ),
}


@pytest.mark.parametrize("name, kind", sorted(NONCOMM_CERT_SHA256))
def test_noncomm_cert_bytes(files, capsys, name, kind):
    code, out, _ = run(capsys, "noncomm-cert", files[name], "--structure", kind)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == NONCOMM_CERT_SHA256[
        (name, kind)
    ]


EXPORT_VARIANTS = {
    "pointed": ("--with-substitution",),
    "groundset": ("--grid", "groundset"),
    "both": ("--grid", "groundset", "--with-substitution"),
}

# exit code and stdout digest of `export-relations M M` per tuple kind; the
# nonbases of U(2,4) are empty, so the substitution refuses them (exit 2)
EXPORT_RELATIONS_SHA256 = {
    ("u24", "independent", "pointed"): (
        0,
        "faa6255c41b8d1c340f41fce98e6e9025ac1f6c55c8e0d2822f91af2028d51aa",
    ),
    ("u24", "independent", "groundset"): (
        0,
        "6d2dbe45e7a3cb11189cd7838cc23496b077fe398ed177ee926648260906a725",
    ),
    ("u24", "independent", "both"): (
        0,
        "d6c6f36ef037b9ab4496187eba0ad29fb6a973522987c943fefe9cfe50eeffd9",
    ),
    ("u24", "bases", "pointed"): (
        0,
        "e28abc9851d1244a00bc17babac41f270363bc01dda891d798b49743d00c81fb",
    ),
    ("u24", "bases", "groundset"): (
        0,
        "6d2dbe45e7a3cb11189cd7838cc23496b077fe398ed177ee926648260906a725",
    ),
    ("u24", "bases", "both"): (
        0,
        "0c1576d79d43b310453a1901d1248e70d6ae35801daa7ae5018b71785cd2bdea",
    ),
    ("u24", "nonbases", "pointed"): (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    ("u24", "nonbases", "groundset"): (
        0,
        "6d2dbe45e7a3cb11189cd7838cc23496b077fe398ed177ee926648260906a725",
    ),
    ("u24", "nonbases", "both"): (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    ("u24", "circuits", "pointed"): (
        0,
        "21f41ed8a91697ad6a9e0ee3767a45670c666a03a3459cbb9c47765b89c994fa",
    ),
    ("u24", "circuits", "groundset"): (
        0,
        "1c7f28258f03542f708a381376f1b2ac43897a769fa5a362e9ad7eb9072cb577",
    ),
    ("u24", "circuits", "both"): (
        0,
        "bb83819d070ff78c19012260d5ad9695e6347d314131a068d69a86d395916bee",
    ),
    ("u24", "hyperplanes", "pointed"): (
        0,
        "9d9ae51553730787e550fcd43af538d3ab62e62d0e0acc8086ea2e4db7100a6d",
    ),
    ("u24", "hyperplanes", "groundset"): (
        0,
        "0f7294e935961e59539e0ea380705b924eafcf6a343337d4349824299aca4c3d",
    ),
    ("u24", "hyperplanes", "both"): (
        0,
        "64b6cb48892ecc9b9579a3c66b8c88619af62dcc959db3ba88f75ab94ae7ee05",
    ),
    ("k4", "independent", "both"): (
        0,
        "52cf6e57172530bfb93fc436ac4d3b150782735d0639545cddce8094369c50f2",
    ),
    ("k4", "bases", "both"): (
        0,
        "9739bbc1793ae80ecc91bdd1c2e0ddbf9ae03bbc2a1d8088ccab953dc21972a8",
    ),
    ("k4", "nonbases", "pointed"): (
        0,
        "0f1be8e46b1572c94472d3f4e35c568396a49c896ee8f8a757342c4a793fadbd",
    ),
    ("k4", "nonbases", "both"): (
        0,
        "8bdfe465361e7bea2254c665b64e7dc474531ce4ac54ef80e9c8bff14064b4b1",
    ),
    ("k4", "circuits", "both"): (
        0,
        "6dd7b53a03855031270e4ac75fe8fd558bb0887477f814955a1161de0b6696f0",
    ),
    ("k4", "hyperplanes", "both"): (
        0,
        "38db0f6bdb346346f455b92ade6f354a0bd6ba51f8bc91b691c54b5742abd503",
    ),
}


@pytest.mark.parametrize("name, kind, variant", sorted(EXPORT_RELATIONS_SHA256))
def test_export_relations_bytes(files, capsys, name, kind, variant):
    argv = ("export-relations", files[name], files[name], "--structure", kind)
    code, out, _ = run(capsys, *argv, *EXPORT_VARIANTS[variant])
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == EXPORT_RELATIONS_SHA256[
        (name, kind, variant)
    ]


def test_export_relations_out_file(files, capsys):
    """--out receives the bytes that stdout gets, for each grid and substitution."""
    for variant, extra in sorted(EXPORT_VARIANTS.items()):
        argv = ("export-relations", files["k4"], files["k4"], "--structure", "nonbases")
        code, out, _ = run(capsys, *argv, *extra)
        target = files["dir"] / f"export-{variant}.txt"
        assert run(capsys, *argv, *extra, "--out", str(target)) == (0, "", "")
        assert code == 0 and target.read_bytes() == out.encode()


def test_graph_commands(files, capsys):
    code, out, _ = run(capsys, "graph", "build", files["u23"], "--structure", "bases")
    assert code == 0
    data = json.loads(out)
    assert len(data["vertices"]) == 6
    assert len(data["edges"]["1"]) == 3 and len(data["edges"]["2"]) == 3
    code, out, _ = run(capsys, "graph", "aut", files["u23"], "--structure", "bases")
    assert code == 0 and json.loads(out)["order"] == "6"


def test_byte_determinism(files, capsys):
    outs = set()
    for _ in range(2):
        _, out, _ = run(
            capsys, "iso", files["u23"], files["u23"], "--structure", "bases"
        )
        outs.add(out)
    assert len(outs) == 1


def test_error_exit_code(files, capsys):
    code, _, err = run(capsys, "matroid", "info", "/nonexistent.json")
    assert code == 2 and "error:" in err
    bad = files["dir"] / "bad.json"
    bad.write_text('{"n": 3}')
    code, _, err = run(capsys, "matroid", "info", str(bad))
    assert code == 2
    code, _, _ = run(capsys, "matroid", "frobnicate", files["u23"])
    assert code == 2


# deeper than the JSON parser's recursion allows
NESTED_JSON = "[" * 2000 + "]" * 2000


@pytest.mark.parametrize(
    "text",
    [
        '{"n": 3, "bases": 5}',
        '{"n": null, "bases": [[0]]}',
        '{"n": 3, "bases": [["a"]]}',
        '{"n": 3, "bases": [[0, 0]]}',
        '{"n": 3, "rank": 2, "nonbases": [[1, 1]]}',
        '{"n": 3, "rank": 1, "nonbases": [[0]], "bases": [[1]]}',
        "[1,2]",
        pytest.param(NESTED_JSON, id="nested"),
    ],
)
def test_malformed_matroid_json_exit_code(files, capsys, text):
    bad = files["dir"] / "malformed.json"
    bad.write_text(text)
    code, out, err = run(capsys, "matroid", "info", str(bad))
    assert code == 2 and out == ""
    assert err.startswith("error: MigError: matroid JSON")


@pytest.mark.parametrize(
    "text, field",
    [
        ('{"n": -1, "bases": [[]]}', "'n' must be an integer >= 0"),
        ('{"n": 3, "rank": -1, "nonbases": []}', "'rank' must be an integer >= 0"),
        ('{"n": 3, "bases": [[-1]]}', "'bases' holds a negative element"),
        ('{"n": 3, "rank": 2, "nonbases": [[0, -1]]}', "'nonbases' holds a negative"
         " element"),
    ],
    ids=["n", "rank", "bases", "nonbases"],
)
def test_negative_sizes_in_matroid_json_named(files, capsys, text, field):
    bad = files["dir"] / "negative.json"
    bad.write_text(text)
    code, out, err = run(capsys, "matroid", "info", str(bad))
    assert code == 2 and out == ""
    assert err == f"error: MigError: matroid JSON field {field}\n"


@pytest.mark.parametrize(
    "text, field",
    [
        ('{"n": 3, "bases": [[0, 1000000000000]]}', "'bases'"),
        ('{"n": 3, "bases": [[0, %d]]}' % 2**70, "'bases'"),
        ('{"n": 3, "rank": 2, "nonbases": [[0, 3]]}', "'nonbases'"),
    ],
    ids=["huge", "beyond-int64", "nonbases"],
)
def test_elements_beyond_ground_in_matroid_json_named(files, capsys, text, field):
    """An element >= n is refused, and its field named, before any mask is built."""
    bad = files["dir"] / "beyond.json"
    bad.write_text(text)
    code, out, err = run(capsys, "matroid", "info", str(bad))
    assert code == 2 and out == ""
    want = f"matroid JSON field {field} holds an element >= 'n' (3)"
    assert err == f"error: MigError: {want}\n"


@pytest.mark.parametrize(
    "flag, element",
    [("--contract", "1000000000000"), ("--delete", "7"), ("--delete", "-1")],
    ids=["huge-contract", "delete-above-n", "negative-delete"],
)
def test_minor_refuses_elements_outside_the_ground_set(files, capsys, flag, element):
    code, out, err = run(capsys, "matroid", "minor", files["u13"], flag, element)
    assert code == 2 and out == ""
    assert err == f"error: MigError: {flag} names {element}, not an element of 0..2\n"


def test_rank_above_ground_size_in_matroid_json_named(files, capsys):
    """A nonbasis-form rank above n has no bases at all; the field is named."""
    bad = files["dir"] / "rank.json"
    bad.write_text('{"n": 3, "rank": 4, "nonbases": []}')
    code, out, err = run(capsys, "matroid", "info", str(bad))
    assert code == 2 and out == ""
    assert err == "error: MigError: matroid JSON field 'rank' (4) exceeds 'n' (3)\n"


def test_repeated_constraint_variable_refused(files, capsys):
    """x0 * x0 = +1 holds everywhere, but the parity mask would drop the
    repeat and solve another system, so the file is refused."""
    bad = files["dir"] / "repeat.json"
    bad.write_text('{"vars": 3, "constraints": [{"vars": [0, 0], "sign": 1}]}')
    code, out, err = run(capsys, "lbcs", "solve", str(bad))
    assert code == 2 and out == ""
    assert err == (
        "error: MigError: constraint-system JSON constraint 'vars' repeats a"
        " variable\n"
    )


@pytest.mark.parametrize(
    "command, text",
    [
        ("strategy", '{"map": 5}'),
        ("strategy", '{"map": [0, "1"]}'),
        ("strategy", '{"map": [0, 1.0]}'),
        ("strategy", "[0, 1]"),
        ("lbcs", '{"vars": 3, "constraints": 5}'),
        ("lbcs", '{"vars": 3, "constraints": [{"vars": 2, "sign": 1}]}'),
        ("lbcs", '{"vars": 3, "constraints": [[0, 1]]}'),
        ("lbcs", '{"vars": "3", "constraints": []}'),
        ("lbcs", '{"vars": -1, "constraints": []}'),
        pytest.param("strategy", NESTED_JSON, id="strategy-nested"),
        pytest.param("lbcs", NESTED_JSON, id="lbcs-nested"),
    ],
)
def test_malformed_strategy_and_system_json_exit_code(files, capsys, command, text):
    bad = files["dir"] / "malformed.json"
    bad.write_text(text)
    if command == "strategy":
        argv = ("game", "eval-strategy", files["u23"], files["u23"])
        argv += ("--structure", "bases", "--strategy", str(bad))
        prefix = "error: MigError: strategy JSON"
    else:
        argv = ("lbcs", "solve", str(bad))
        prefix = "error: MigError: constraint-system JSON"
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(prefix)


def test_guard_n_flag(files, capsys):
    """DERIVE_GUARD is a constant: no flag raises it past what memory holds."""
    wide = files["dir"] / "rank1-40.json"
    wide.write_text('{"n": 40, "rank": 1, "bases": [[0]]}')
    derive = ("matroid", "derive", str(wide))
    code, out, err = run(capsys, *derive, "--guard-n", "40")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --guard-n 40" in err and "Traceback" not in err
    code, out, err = run(capsys, *derive)
    assert code == 2 and out == ""
    assert err == (
        "error: GuardExceeded: full-lattice enumeration on n=40 exceeds the guard"
        " DERIVE_GUARD = 24\n"
    )
    # quantum checks are exact, so no command takes a tolerance
    assert run(capsys, "quantum", "magic-square", "--tolerance", "1e-6")[0] == 2
    assert run(capsys, "quantum", "verify-iso", "--tolerance", "1e-6")[0] == 2
    assert run(capsys, "paper-pair", "--tolerance", "1e-6")[0] == 2


def test_oversized_nonbasis_ground_set_refused(files, capsys):
    """The ground-set guard fires before any r-subset is enumerated."""
    big = files["dir"] / "big.json"
    big.write_text('{"n": 3000, "rank": 3, "nonbases": []}')
    code, out, err = run(capsys, "matroid", "info", str(big))
    assert code == 2 and out == ""
    assert err.startswith("error: GuardExceeded:")


def test_oversized_nonbasis_subset_scan_refused(files, capsys):
    """C(40, 20) r-subsets are refused by count before any is enumerated."""
    big = files["dir"] / "wide.json"
    big.write_text('{"n": 40, "rank": 20, "nonbases": []}')
    code, out, err = run(capsys, "matroid", "info", str(big))
    assert code == 2 and out == ""
    assert err.startswith("error: GuardExceeded: C(40,20) = 137846528820 ")
    assert "BASES_GUARD = 5000000" in err and "Traceback" not in err
