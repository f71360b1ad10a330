"""JSON forms for matroids, polynomials, and reports.

Matroid files carry either the basis family or the nonbasis family
(whichever the writer chose); both are accepted on input.  All families
are emitted in canonical order: members as ascending element lists,
families sorted colexicographically.  Fixed key order plus fixed family
order makes every emission byte-reproducible.
"""

from __future__ import annotations

import json
from typing import Dict, List

from .bitset import elements_of
from .derived import SubsetReport, TuttePolynomial
from .errors import MigError
from .game import LBCS, Constraint, DeterministicStrategy
from .matroid import Matroid, matroid_from_bases, matroid_from_nonbases


def matroid_to_json(m: Matroid) -> Dict:
    """Encode a matroid by the sparser of its bases and its nonbases."""
    nb = m.nonbases()
    out: Dict[str, object] = {"n": m.n, "rank": m.rank}
    if len(nb) < len(m.bases):
        out["nonbases"] = [elements_of(x) for x in nb]
    else:
        out["bases"] = [elements_of(x) for x in m.bases]
    if m.labels:
        out["labels"] = list(m.labels)
    return out


def _is_int(x: object) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _int_field(data: Dict, key: str) -> int:
    if not (_is_int(data[key]) and data[key] >= 0):
        raise MigError(f"matroid JSON field {key!r} must be an integer >= 0")
    return data[key]


def _is_int_list(x: object) -> bool:
    return isinstance(x, list) and all(_is_int(e) for e in x)


def _family_field(data: Dict, key: str, n: int) -> List[List[int]]:
    fam = data[key]
    if not isinstance(fam, list) or not all(_is_int_list(s) for s in fam):
        raise MigError(f"matroid JSON field {key!r} must be a list of integer lists")
    if any(e < 0 for s in fam for e in s):
        raise MigError(f"matroid JSON field {key!r} holds a negative element")
    if any(e >= n for s in fam for e in s):
        raise MigError(f"matroid JSON field {key!r} holds an element >= 'n' ({n})")
    if any(len(set(s)) != len(s) for s in fam):
        raise MigError(f"matroid JSON field {key!r} repeats an element in a member")
    return fam


def matroid_from_json(data: Dict) -> Matroid:
    if not isinstance(data, dict):
        raise MigError("matroid JSON must be an object")
    labels = data.get("labels")
    if labels is not None and not (
        isinstance(labels, list) and all(isinstance(x, str) for x in labels)
    ):
        raise MigError("matroid JSON field 'labels' must be a list of strings")
    if "bases" in data:
        n = _int_field(data, "n")
        m = matroid_from_bases(n, _family_field(data, "bases", n), labels)
        if "rank" in data and _int_field(data, "rank") != m.rank:
            raise MigError(
                f"declared rank {data['rank']} does not match the bases ({m.rank})"
            )
        return m
    if "nonbases" in data:
        n, rank = _int_field(data, "n"), _int_field(data, "rank")
        if rank > n:
            raise MigError(f"matroid JSON field 'rank' ({rank}) exceeds 'n' ({n})")
        nonbases = _family_field(data, "nonbases", n)
        return matroid_from_nonbases(n, rank, nonbases, labels)
    raise MigError("matroid JSON needs a 'bases' or 'nonbases' field")


def read_json(path: str, what: str) -> object:
    """The JSON value in the file; `what` names its format in the error
    that a nesting too deep for the parser raises."""
    with open(path, "r", encoding="utf-8") as fp:
        try:
            return json.load(fp)
        except RecursionError:
            raise MigError(f"{what} JSON nests too deeply to parse") from None


def load_matroid(path: str) -> Matroid:
    return matroid_from_json(read_json(path, "matroid"))


def lbcs_from_json(data: object) -> LBCS:
    """The constraint system of `LBCS.to_json`, refusing any other shape."""
    if not (
        isinstance(data, dict)
        and _is_int(data.get("vars"))
        and data["vars"] >= 0
        and isinstance(data.get("constraints"), list)
    ):
        raise MigError(
            "constraint-system JSON needs a count 'vars' >= 0 and a 'constraints' list"
        )
    constraints = []
    for c in data["constraints"]:
        if not (
            isinstance(c, dict)
            and _is_int_list(c.get("vars"))
            and _is_int(c.get("sign"))
        ):
            raise MigError(
                "constraint-system JSON constraints need a 'vars' integer list "
                "and an integer 'sign'"
            )
        if len(set(c["vars"])) != len(c["vars"]):
            raise MigError(
                "constraint-system JSON constraint 'vars' repeats a variable"
            )
        constraints.append(Constraint(tuple(c["vars"]), c["sign"]))
    return LBCS(data["vars"], tuple(constraints))


def strategy_from_json(data: object) -> DeterministicStrategy:
    """A `{"map": [int, ...]}` answer function, refusing any other shape."""
    if not (isinstance(data, dict) and _is_int_list(data.get("map"))):
        raise MigError("strategy JSON needs a 'map' list of integers")
    return DeterministicStrategy(tuple(data["map"]))


def tutte_to_json(t: TuttePolynomial) -> Dict:
    return {
        "terms": [
            {"x": i, "y": j, "c": c} for (i, j), c in t.terms_sorted()
        ]
    }


def subset_report_to_json(rep: SubsetReport) -> Dict:
    return {
        "independents": [elements_of(x) for x in rep.independents],
        "circuits": [elements_of(x) for x in rep.circuits],
        "flats": [elements_of(x) for x in rep.flats],
        "hyperplanes": [elements_of(x) for x in rep.hyperplanes],
        "cyclicFlats": [elements_of(x) for x in rep.cyclic_flats],
        "loops": elements_of(rep.loops),
        "coloops": elements_of(rep.coloops),
        "girth": rep.girth if rep.girth is not None else "infinite",
    }


def dumps(payload: object) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
