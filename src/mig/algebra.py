"""Relation-ideal export, quantum-isomorphism screeners, and
noncommutativity certificates.

Exports are presentations of the two isomorphism algebras as text
bundles: the generic magic-unitary relations of the variable grid plus
the game-specific generators (rel-mismatch products on the pointed grid,
tuple products on the ground grid).  Bundles stream their relations, so
large grids never materialize in memory.

Screeners are necessary conditions only: a failed check certifies
"not quantum isomorphic"; passing is inconclusive.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass
from itertools import product
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .bitset import mask_of
from .errors import GuardExceeded, UnsupportedKind
from .matroid import Matroid
from .relgraph import (
    RelColoredGraph,
    build_graph,
    disjoint_automorphism_pair,
    induced_map,
    preserves_adjacency,
)
from .structures import IsoStructure, require_covering, structure_sets

Term = Tuple[int, Tuple[Tuple[int, int], ...]]  # coefficient, variable factors
Relation = Tuple[Term, ...]

TUPLE_SPACE_GUARD = 2_000_000


def _monomial(*factors: Tuple[int, int]) -> Relation:
    return ((1, tuple(factors)),)


class RelationBundle:
    """A variable grid plus a lazily generated list of relations."""

    def __init__(
        self,
        grid_kind: str,  # "POINTED" or "GROUNDSET"
        symbol: str,  # "u" or "w"
        rows: int,
        cols: int,
        row_legend: Sequence[object],
        col_legend: Sequence[object],
        relation_groups: Sequence[Tuple[str, callable]],
    ):
        self.grid_kind = grid_kind
        self.rows = rows
        self.cols = cols
        self.row_legend = list(row_legend)
        self.col_legend = list(col_legend)
        self._groups = list(relation_groups)
        # the variable names, built once: relation_text joins them per monomial
        self._names = [
            [f"{symbol}[{i}][{j}]" for j in range(cols)] for i in range(rows)
        ]

    def iter_relations(self) -> Iterator[Relation]:
        for _, gen in self._groups:
            yield from gen()

    def group_counts(self) -> Dict[str, int]:
        return {name: sum(1 for _ in gen()) for name, gen in self._groups}

    def relation_text(self, relation: Relation) -> str:
        names = self._names
        if len(relation) == 1 and relation[0][0] == 1 and relation[0][1]:
            # a bare monomial, most of every bundle: its factors' names
            return "".join([names[i][j] for i, j in relation[0][1]])
        terms = []
        for coeff, factors in relation:
            mono = "".join([names[i][j] for i, j in factors])
            c = abs(coeff)
            body = mono if c == 1 and mono else f"{c}{mono}"
            terms.append(("+ " if coeff > 0 else "- ") + body)
        text = " ".join(terms)
        return text[2:] if text[0] == "+" else "-" + text[2:]

    def write(self, fp) -> None:
        fp.write(f"grid {self.grid_kind} {self.rows} {self.cols}\n")
        for i in range(max(self.rows, self.cols)):
            legend = {
                "row": self.row_legend[i] if i < self.rows else None,
                "col": self.col_legend[i] if i < self.cols else None,
            }
            fp.write(f"legend {i} {json.dumps(legend, sort_keys=True)}\n")
        for relation in self.iter_relations():
            fp.write(self.relation_text(relation) + "\n")


_FACTOR_RE = re.compile(r"\w\[(\d+)\]\[(\d+)\]")


def parse_bundle(text: str) -> Dict[str, object]:
    """Parse a bundle back into grid info and relation term lists."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("grid "):
        raise ValueError("missing grid header")
    _, kind, rows, cols = lines[0].split()
    legends: Dict[int, object] = {}
    relations: List[Relation] = []
    for line in lines[1:]:
        if not line.strip():
            continue
        if line.startswith("legend "):
            _, idx, payload = line.split(" ", 2)
            legends[int(idx)] = json.loads(payload)
            continue
        relations.append(_parse_relation(line))
    return {
        "kind": kind,
        "rows": int(rows),
        "cols": int(cols),
        "legends": legends,
        "relations": relations,
    }


def _parse_relation(line: str) -> Relation:
    tokens = line.replace("- ", "-").replace("+ ", "+").split()
    terms: List[Term] = []
    for tok in tokens:
        sign = 1
        if tok.startswith("-"):
            sign, tok = -1, tok[1:]
        elif tok.startswith("+"):
            tok = tok[1:]
        m = re.match(r"^(\d+)?((?:\w\[\d+\]\[\d+\])*)$", tok)
        if not m:
            raise ValueError(f"bad term {tok!r}")
        coeff = int(m.group(1)) if m.group(1) else 1
        factors = tuple(
            (int(a), int(b)) for a, b in _FACTOR_RE.findall(m.group(2) or "")
        )
        terms.append((sign * coeff, factors))
    return tuple(terms)


def _magic_unitary_groups(rows: int, cols: int) -> List[Tuple[str, callable]]:
    """The generic relations of an rows x cols grid of projection variables."""

    def idempotents() -> Iterator[Relation]:
        for i in range(rows):
            for j in range(cols):
                yield ((1, ((i, j), (i, j))), (-1, ((i, j),)))

    def row_orthogonality() -> Iterator[Relation]:
        for i in range(rows):
            for j in range(cols):
                for k in range(cols):
                    if j != k:
                        yield _monomial((i, j), (i, k))

    def col_orthogonality() -> Iterator[Relation]:
        for j in range(cols):
            for i in range(rows):
                for k in range(rows):
                    if i != k:
                        yield _monomial((i, j), (k, j))

    def row_sums() -> Iterator[Relation]:
        for i in range(rows):
            yield ((1, ()),) + tuple((-1, ((i, j),)) for j in range(cols))

    def col_sums() -> Iterator[Relation]:
        for j in range(cols):
            yield ((1, ()),) + tuple((-1, ((i, j),)) for i in range(rows))

    return [
        ("idempotent", idempotents),
        ("rowOrthogonality", row_orthogonality),
        ("colOrthogonality", col_orthogonality),
        ("rowSums", row_sums),
        ("colSums", col_sums),
    ]


def export_pointed_relations(
    m: Matroid, n: Matroid, kind: IsoStructure
) -> RelationBundle:
    """Magic-unitary relations on the pointed grid plus rel-mismatch products."""
    require_covering(kind, m, n)
    g, h = build_graph(m, kind), build_graph(n, kind)

    def mismatches() -> Iterator[Relation]:
        rel_n = h.rel_table()
        # rel value -> the answer pairs unlike it, in row-major order
        differ = {r: np.argwhere(rel_n != r).tolist() for r in range(4)}
        for (ai, bi), r in np.ndenumerate(g.rel_table()):
            for xi, yi in differ[r]:
                yield _monomial((ai, xi), (bi, yi))

    groups = _magic_unitary_groups(g.n, h.n) + [("relMismatch", mismatches)]
    return RelationBundle(
        "POINTED",
        "u",
        g.n,
        h.n,
        [p.to_json() for p in g.vertices],
        [p.to_json() for p in h.vertices],
        groups,
    )


# -- ground-set tuple bundles --------------------------------------------------

_TUPLE_KINDS = (
    IsoStructure.INDEPENDENT,
    IsoStructure.BASES,
    IsoStructure.NONBASES,
    IsoStructure.CIRCUITS,
    IsoStructure.HYPERPLANES,
)


def _tuple_lengths(m: Matroid, kind: IsoStructure) -> List[int]:
    if kind in (IsoStructure.BASES, IsoStructure.NONBASES):
        return [m.rank]
    if kind is IsoStructure.INDEPENDENT:
        return list(range(1, m.rank + 1))
    fam = structure_sets(m, kind)
    lengths = {a.bit_count() for a in fam}
    if kind is IsoStructure.CIRCUITS and m.rank >= 1:
        lengths.add(2)  # the repeated-element convention for nonloops
    return sorted(lengths)


def _is_tuple_member(m: Matroid, kind: IsoStructure, tup: Tuple[int, ...]) -> bool:
    """Does the tuple list a member of the family, in some order?

    Two conventions admit a tuple that repeats an element: an r-tuple is
    then a nonbasis, and (a, a) is a circuit when a is not a loop.
    """
    if len(set(tup)) < len(tup):
        if kind is IsoStructure.NONBASES:
            return len(tup) == m.rank
        pair = kind is IsoStructure.CIRCUITS and len(tup) == 2
        return pair and m.subset_rank(1 << tup[0]) == 1
    family = m.cached(("family", kind), lambda: set(structure_sets(m, kind)))
    return mask_of(tup) in family


def export_groundset_relations(
    m: Matroid, n: Matroid, kind: IsoStructure
) -> RelationBundle:
    """Tuple-product generators over the ground-set variable grid.

    For each tuple length in play, the generators are the products
    w[a1][x1]...w[as][xs] over tuple pairs where exactly one side lies in
    the tuple family of its matroid.
    """
    if kind not in _TUPLE_KINDS:
        raise UnsupportedKind(f"{kind.value} is not a tuple structure")
    lengths = sorted(set(_tuple_lengths(m, kind)) | set(_tuple_lengths(n, kind)))
    for s in lengths:
        space = m.n**s + n.n**s
        if space > TUPLE_SPACE_GUARD:
            raise GuardExceeded(
                f"{space} tuples at length {s} exceed the guard"
                f" TUPLE_SPACE_GUARD = {TUPLE_SPACE_GUARD}"
            )

    def tuple_products() -> Iterator[Relation]:
        for s in lengths:
            m_tuples = [
                (t, _is_tuple_member(m, kind, t))
                for t in product(range(m.n), repeat=s)
            ]
            n_tuples = [
                (t, _is_tuple_member(n, kind, t))
                for t in product(range(n.n), repeat=s)
            ]
            for ta, in_a in m_tuples:
                for tx, in_x in n_tuples:
                    if in_a != in_x:
                        yield _monomial(*zip(ta, tx))

    groups = _magic_unitary_groups(m.n, n.n) + [("tupleProducts", tuple_products)]
    return RelationBundle(
        "GROUNDSET",
        "w",
        m.n,
        n.n,
        [m.label_of(e) for e in range(m.n)],
        [n.label_of(e) for e in range(n.n)],
        groups,
    )


def export_comparison_substitution(
    m: Matroid, n: Matroid, kind: IsoStructure
) -> Dict[str, List[str]]:
    """Ground variables as sums of pointed variables (one choice per element).

    w[a][x] expands over the answers pointed at x, with the question row
    fixed to the least pointed set carrying a.
    """
    require_covering(kind, m, n)
    g, h = build_graph(m, kind), build_graph(n, kind)
    rows = [g.point_of.index(a) for a in range(m.n)]  # the least vertex on a
    answers = [[j for j, x in enumerate(h.point_of) if x == y] for y in range(n.n)]
    return {
        f"w[{a}][{x}]": [f"u[{row}][{j}]" for j in answers[x]]
        for a, row in enumerate(rows)
        for x in range(n.n)
    }


# -- screeners -----------------------------------------------------------------


@dataclass
class ScreenReport:
    checks: List[Tuple[str, bool, str]]
    verdict: str

    def to_json(self) -> Dict[str, object]:
        return {
            "checks": [
                {"name": name, "passed": passed, "detail": detail}
                for name, passed, detail in self.checks
            ],
            "verdict": self.verdict,
        }


def screen_quantum_iso(m: Matroid, n: Matroid, kind: IsoStructure) -> ScreenReport:
    """Necessary-condition screen; any failure rules quantum isomorphism out."""
    require_covering(kind, m, n)
    checks: List[Tuple[str, bool, str]] = []

    checks.append(
        (
            "groundSetSizesEqual",
            m.n == n.n,
            f"{m.n} vs {n.n}",
        )
    )

    def size_profile(mat: Matroid) -> Dict[int, int]:
        prof: Dict[int, int] = {}
        for a in structure_sets(mat, kind):
            s = a.bit_count()
            if s >= 1:
                prof[s] = prof.get(s, 0) + 1
        return prof

    pm, pn = size_profile(m), size_profile(n)
    checks.append(
        (
            "memberCountsBySize",
            pm == pn,
            f"{pm} vs {pn}",
        )
    )
    if kind in (IsoStructure.BASES, IsoStructure.NONBASES):
        checks.append(("ranksEqual", m.rank == n.rank, f"{m.rank} vs {n.rank}"))
    if kind is IsoStructure.CIRCUITS and m.rank == n.rank:
        pav_m, pav_n = m.is_paving(), n.is_paving()
        checks.append(
            ("pavingAgrees", pav_m == pav_n, f"{pav_m} vs {pav_n}")
        )
    ok = all(passed for _, passed, _ in checks)
    return ScreenReport(
        checks, "possibly quantum isomorphic" if ok else "not quantum isomorphic"
    )


# -- noncommutativity certificates ----------------------------------------------


def _membership_pattern(g: RelColoredGraph) -> Optional[List[List[int]]]:
    """Distinct [[a, b], [c, d]] with a, b only in member A and c, d only in B.

    An element lies in one member exactly when one vertex has it as point.
    """
    count = Counter(g.point_of)
    buckets: Dict[int, List[int]] = {}
    for a, e in g.vertices:
        if count[e] == 1:
            buckets.setdefault(a, []).append(e)
    keyed = [sorted(elems) for _, elems in sorted(buckets.items()) if len(elems) >= 2]
    if keyed and len(keyed[0]) >= 4:
        return [keyed[0][:2], keyed[0][2:4]]
    if len(keyed) >= 2:
        return [keyed[0][:2], keyed[1][:2]]
    return None


def _transposition(m: Matroid, kind: IsoStructure, a: int, b: int) -> Tuple[int, ...]:
    """The automorphism of m's graph of `kind` that the swap (a b) induces."""
    swap = list(range(m.n))
    swap[a], swap[b] = b, a
    return induced_map(m, m, kind, swap)


def noncommutativity_certificate(
    m: Matroid, kind: IsoStructure
) -> Optional[Dict[str, object]]:
    """A verified pair of disjoint nontrivial automorphisms, if one exists.

    Tries the cheap membership pattern (two member sets, each owning two
    elements found nowhere else) before scanning the full automorphism
    group of the relation graph.
    """
    require_covering(kind, m)
    g = build_graph(m, kind)
    ground = _membership_pattern(g)
    if ground is not None:
        perm1, perm2 = (_transposition(m, kind, a, b) for a, b in ground)
        method = "membership-pattern"
    else:
        hit = disjoint_automorphism_pair(g)
        if hit is None:
            return None
        perm1, perm2 = hit
        method = "group-scan"
    verification = _verify_disjoint_pair(g, perm1, perm2)
    if not verification["valid"]:
        return None
    cert: Dict[str, object] = {
        "method": method,
        "vertexPermutations": [list(perm1), list(perm2)],
        "verification": verification,
    }
    if ground is not None:
        cert["groundTranspositions"] = ground
    return cert


def _verify_disjoint_pair(g, perm1, perm2) -> Dict[str, object]:
    identity = tuple(range(g.n))
    moved1 = [v for v in range(g.n) if perm1[v] != v]
    moved2 = [v for v in range(g.n) if perm2[v] != v]
    disjoint = not set(moved1) & set(moved2)

    p1 = preserves_adjacency(g, g, perm1)
    p2 = preserves_adjacency(g, g, perm2)
    nontrivial = perm1 != identity and perm2 != identity
    return {
        "relPreserving": [p1, p2],
        "nontrivial": nontrivial,
        "disjoint": disjoint,
        "movedCounts": [len(moved1), len(moved2)],
        "valid": p1 and p2 and nontrivial and disjoint,
    }
