"""Serialization round trips and canonical emission."""

import pytest

from mig import matroid_from_bases, uniform_matroid
from mig.bitset import elements_of
from mig.derived import tutte_polynomial
from mig.errors import MigError
from mig.jsonio import dumps, matroid_from_json, matroid_to_json, tutte_to_json


def _both_encodings(m):
    """The basis form and the nonbasis form of `m`, as `matroid_to_json` writes one."""
    out = []
    for key, family in (("bases", m.bases), ("nonbases", m.nonbases())):
        data = {"n": m.n, "rank": m.rank, key: [elements_of(x) for x in family]}
        if m.labels:
            data["labels"] = list(m.labels)
        out.append(data)
    return out


def test_matroid_roundtrip_both_encodings(paper_pair):
    p, _ = paper_pair
    cases = [
        uniform_matroid(2, 3),
        matroid_from_bases(3, [[0, 1], [0, 2], [1, 2]], labels=["a", "b", "c"]),
        p,
    ]
    for m in cases:
        for data in _both_encodings(m):
            back = matroid_from_json(data)
            assert back == m
            assert back.labels == m.labels


def test_sparser_family_chosen(paper_pair):
    p, _ = paper_pair
    assert "nonbases" in matroid_to_json(p)  # 24 < 792
    assert "nonbases" in matroid_to_json(uniform_matroid(2, 3))  # 0 < 3
    # one basis among six 2-subsets: bases are the sparse side
    sparse = matroid_from_bases(4, [[0, 1]])
    assert "bases" in matroid_to_json(sparse)


def test_rank_consistency_checked():
    data = {"n": 3, "rank": 1, "bases": [[0, 1], [0, 2], [1, 2]]}
    with pytest.raises(MigError):
        matroid_from_json(data)
    with pytest.raises(MigError):
        matroid_from_json({"n": 3, "rank": 2})


def test_families_emitted_sorted():
    m = matroid_from_bases(4, [[0, 1], [0, 2], [0, 3], [1, 3], [2, 3]])
    data = matroid_to_json(m)  # one nonbasis against five bases
    assert data["nonbases"] == [[1, 2]]
    # U(2,4) and two loops: six bases against nine nonbases
    m = matroid_from_bases(6, [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]])
    data = matroid_to_json(m)
    assert data["bases"][2:4] == [[1, 2], [0, 3]]
    assert data["bases"] == sorted(data["bases"], key=lambda b: sorted(b)[::-1])
    assert all(b == sorted(b) for b in data["bases"])


def test_dumps_deterministic():
    payload = {"b": 1, "a": [3, 2]}
    assert dumps(payload) == dumps(payload)
    assert dumps(payload).startswith('{\n  "a"')


def test_tutte_terms_sorted():
    t = tutte_polynomial(uniform_matroid(2, 3))
    data = tutte_to_json(t)
    keys = [(term["x"], term["y"]) for term in data["terms"]]
    assert keys == sorted(keys)
