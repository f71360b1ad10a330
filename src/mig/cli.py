"""Command-line interface.

Every command reads/writes the package's JSON formats and is fully
deterministic: the same inputs always produce byte-identical output.
Exit codes separate mathematical verdicts from operational failures:
0 = success or affirmative answer, 1 = negative verdict (no isomorphism,
no solutions, screen failure, no certificate), 2 = usage or input error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from time import perf_counter
from typing import List, Optional, Tuple

from .bitset import elements_of, mask_of
from .derived import characteristic_polynomial, derive_sets, tutte_polynomial
from .errors import MigError
from .jsonio import (
    dumps,
    lbcs_from_json,
    load_matroid,
    matroid_to_json,
    read_json,
    strategy_from_json,
    subset_report_to_json,
    tutte_to_json,
)
from .matroid import CONNECTIVITY_GUARD
from .structures import IsoStructure, covers

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2


def _parse_elements(text: str) -> List[int]:
    return [int(x) for x in text.split(",") if x != ""]


def _ground_mask(text: Optional[str], flag: str, n: int) -> int:
    """The mask of the elements that option `flag` lists, each below n."""
    elems = _parse_elements(text) if text else []
    for e in elems:
        if not 0 <= e < n:
            raise MigError(f"{flag} names {e}, not an element of 0..{n - 1}")
    return mask_of(elems)


def _output(out: Optional[str]):
    """The --out file to write, or stdout."""
    if out:
        return open(out, "w", encoding="utf-8")
    return contextlib.nullcontext(sys.stdout)


def _emit(payload: object, out: Optional[str]) -> None:
    with _output(out) as fp:
        fp.write(dumps(payload))


def _structure(args) -> IsoStructure:
    return IsoStructure(args.structure)


# -- subcommand handlers -------------------------------------------------------


def cmd_matroid(args) -> int:
    m = load_matroid(args.file)
    if args.action == "info":
        payload = {
            "matroid": matroid_to_json(m),
            "predicates": _jsonable_predicates(m),
        }
        _emit(payload, args.out)
        return EXIT_OK
    if args.action == "derive":
        _emit(subset_report_to_json(derive_sets(m)), args.out)
        return EXIT_OK
    if args.action == "dual":
        _emit(matroid_to_json(m.dual()), args.out)
        return EXIT_OK
    if args.action == "minor":
        cmask = _ground_mask(args.contract, "--contract", m.n)
        dmask = _ground_mask(args.delete, "--delete", m.n)
        if cmask & dmask:
            raise MigError("contract and delete sets overlap")
        out = m.contract(cmask) if cmask else m
        if dmask:
            # translate original indices to the re-indexed minor
            survivors = [e for e in range(m.n) if not cmask >> e & 1]
            shifted = mask_of(survivors.index(e) for e in elements_of(dmask))
            out = out.delete(shifted)
        _emit(matroid_to_json(out), args.out)
        return EXIT_OK
    # tutte
    payload = {
        "tutte": tutte_to_json(tutte_polynomial(m)),
        "characteristic": list(characteristic_polynomial(m)),
    }
    _emit(payload, args.out)
    return EXIT_OK


def _jsonable_predicates(m) -> dict:
    """m's predicates; above CONNECTIVITY_GUARD, all but connectivity, which
    names the guard, with a warning on stderr."""
    if m.n <= CONNECTIVITY_GUARD:
        preds = m.predicates()
    else:
        preds = m.derived_predicates()
        skipped = f"n={m.n} exceeds the guard CONNECTIVITY_GUARD = {CONNECTIVITY_GUARD}"
        preds["connectivity"] = f"not computed: {skipped}"
        sys.stderr.write(f"warning: connectivity not computed: {skipped}\n")
    return {k: "infinite" if v is None else v for k, v in preds.items()}


def cmd_cover(args) -> int:
    m = load_matroid(args.file)
    kind = _structure(args)
    res = covers(m, kind)
    payload = {"structure": kind.value, "covers": res.covered, "witness": res.witness}
    _emit(payload, args.out)
    return EXIT_OK if res.covered else EXIT_NEGATIVE


def cmd_graph(args) -> int:
    from .relgraph import SearchStats, automorphism_group, build_graph

    if args.stats and args.action != "aut":
        raise MigError("--stats applies to graph aut")
    m = load_matroid(args.file)
    kind = _structure(args)
    g = build_graph(m, kind)
    res = covers(m, kind)
    if not res.covered:
        sys.stderr.write(
            f"warning: {kind.value} misses element {res.witness}"
            "; the graph has no vertex on it\n"
        )
    if args.action == "build":
        payload = {
            "vertices": [v.to_json() for v in g.vertices],
            "edges": {"1": g.edges(1), "2": g.edges(2)},
        }
        _emit(payload, args.out)
        return EXIT_OK
    # aut
    stats = SearchStats()
    group = automorphism_group(g, stats)
    payload = group.to_json()
    if args.stats:
        payload["stats"] = {**stats.to_json(), "chainStructure": group.structure.value}
    _emit(payload, args.out)
    return EXIT_OK


def cmd_iso(args) -> int:
    from .relgraph import SearchStats, find_matroid_isomorphism

    m = load_matroid(args.first)
    n = load_matroid(args.second)
    stats = SearchStats()
    hit = find_matroid_isomorphism(m, n, _structure(args), stats)
    if hit is None:
        payload: dict = {"isomorphic": False, "groundMap": None}
    else:
        ground, mapping = hit
        payload = {"isomorphic": True, "map": list(mapping), "groundMap": list(ground)}
    if args.stats:
        searched = None if stats.structure is None else stats.structure.value
        payload["stats"] = {**stats.to_json(), "searchStructure": searched}
    _emit(payload, args.out)
    return EXIT_NEGATIVE if hit is None else EXIT_OK


def cmd_game(args) -> int:
    from .game import IsoGameInstance, evaluate_strategy

    m = load_matroid(args.first)
    n = load_matroid(args.second)
    inst = IsoGameInstance(m, n, _structure(args))
    if args.action == "check":
        # only a repeated letter on one side breaks bisynchrony, and the
        # relation graphs refuse a repeated pointed set
        _emit({"alphabet": inst.size(), "bisynchronous": True}, args.out)
        return EXIT_OK
    # eval-strategy
    if not args.strategy:
        raise MigError("eval-strategy needs --strategy FILE")
    strategy = strategy_from_json(read_json(args.strategy, "strategy"))
    verdict = evaluate_strategy(inst, strategy)
    _emit(verdict, args.out)
    return EXIT_OK if verdict["perfect"] else EXIT_NEGATIVE


def _signs_from_args(m, negate: Optional[List[str]]):
    from .lbcs_construct import SignAssignment

    negatives = [_parse_elements(t) for t in (negate or [])]
    return SignAssignment.with_negatives(m, negatives)


def cmd_lbcs(args) -> int:
    from .game import lbcs_solutions
    from .lbcs_construct import grid_matroid, lbcs_from_matroid

    if args.action == "build":
        m = grid_matroid()
        lbcs = lbcs_from_matroid(m, _signs_from_args(m, args.negate))
        _emit(lbcs.to_json(), args.out)
        return EXIT_OK
    if args.action == "solve":
        if not args.file:
            raise MigError("lbcs solve needs a system file")
        lbcs = lbcs_from_json(read_json(args.file, "constraint-system"))
        sols = lbcs_solutions(lbcs)
        _emit({"count": len(sols), "solutions": [list(s) for s in sols]}, args.out)
        return EXIT_OK if sols else EXIT_NEGATIVE
    # from-matroid
    if not args.file:
        raise MigError("lbcs from-matroid needs a matroid file")
    m = load_matroid(args.file)
    lbcs = lbcs_from_matroid(m, _signs_from_args(m, args.negate))
    _emit(lbcs.to_json(), args.out)
    return EXIT_OK


def cmd_ms_construct(args) -> int:
    from .lbcs_construct import m_s_matroid

    m = load_matroid(args.file)
    out = m_s_matroid(m, _signs_from_args(m, args.negate))
    _emit(matroid_to_json(out), args.out)
    return EXIT_OK


def cmd_paper_pair(args) -> int:
    from .lbcs_construct import build_paper_pair

    if args.timings and not args.verify_all:
        raise MigError("--timings applies to paper-pair --verify-all")
    p, q = build_paper_pair()
    if not args.verify_all:
        _emit({"P": matroid_to_json(p), "Q": matroid_to_json(q)}, args.out)
        return EXIT_OK
    marks: List[Tuple[str, float]] = []
    payload = _full_pair_certificate(p, q, marks)
    if args.timings:
        for (_, t0), (stage, t1) in zip(marks, marks[1:]):
            sys.stderr.write(f"{stage} {t1 - t0:.6f}\n")
    _emit(payload, args.out)
    return EXIT_OK if payload["allChecksPassed"] else EXIT_NEGATIVE


def _full_pair_certificate(p, q, marks: List[Tuple[str, float]]) -> dict:
    """Every check of `paper-pair --verify-all`; marks (stage, end time)."""
    from .algebra import screen_quantum_iso
    from .game import lbcs_solutions
    from .lbcs_construct import (
        BOTTOM_ROW,
        SignAssignment,
        grid_matroid,
        lbcs_from_matroid,
        minor_obstruction_certificate,
        shared_invariant_report,
    )
    from .quantum import (
        iso_game_pvms,
        magic_square_observables,
        verify_lbcs_quantum_strategy,
        verify_sync_conditions,
    )
    from .matroid import uniform_matroid as uniform
    from .relgraph import find_matroid_isomorphism

    def lap(stage: str, value):
        marks.append((stage, perf_counter()))
        return value

    lap("start", None)
    kind = IsoStructure.NONBASES
    base = grid_matroid()
    hom = lbcs_from_matroid(base, SignAssignment.homogeneous(base))
    signed = lbcs_from_matroid(
        base, SignAssignment.with_negatives(base, [BOTTOM_ROW])
    )
    grid = magic_square_observables()
    lbcs_report = lap(
        "lbcs",
        {
            "homogeneousSolutions": len(lbcs_solutions(hom)),
            "signedSolutions": len(lbcs_solutions(signed)),
            "quantum": verify_lbcs_quantum_strategy(signed, grid),
        },
    )
    mapping = lap(
        "isomorphismSearch",
        find_matroid_isomorphism(p, q, kind),
    )
    strategy = lap("strategy", iso_game_pvms(p, q, signed, grid))
    sync = lap("syncConditions", verify_sync_conditions(strategy, p, q, kind))
    invariants = lap("sharedInvariants", shared_invariant_report(p, q))
    screen = lap("screen", screen_quantum_iso(p, q, kind).to_json())
    minor = lap("minorObstruction", minor_obstruction_certificate(p, q))
    oracle = lap("oracleSpotCheck", _oracle_spot_check())
    covering = lap("coveringSpotCheck", _covering_spot_check())
    certificates = lap("noncommCertificates", _certificate_spot_check())
    mismatch_screen = lap(
        "screenMismatchControl",
        screen_quantum_iso(uniform(2, 3), uniform(2, 4), IsoStructure.BASES).to_json(),
    )
    checks = {
        "pairShape": p.n == q.n == 18
        and p.rank == q.rank == 3
        and len(p.nonbases()) == len(q.nonbases()) == 24,
        "notIsomorphic": mapping is None,
        "minorObstruction": minor["pSideScan"]["matches"] == 0,
        "sharedInvariants": bool(invariants["allCountsEqual"])
        and bool(invariants["tutteEqual"]),
        "classicalGap": lbcs_report["homogeneousSolutions"] == 16
        and lbcs_report["signedSolutions"] == 0,
        "quantumLbcsPerfect": bool(lbcs_report["quantum"]["perfect"]),
        "quantumPairStrategy": bool(sync["perfect"]),
        "screenPasses": screen["verdict"] == "possibly quantum isomorphic",
        "screenRejectsMismatch": mismatch_screen["verdict"]
        == "not quantum isomorphic",
        "oracleSpotCheck": oracle["mismatches"] == 0,
        "coveringSpotCheck": covering["disagreements"] == 0,
        "noncommCertificates": certificates["allValid"],
    }
    return {
        "pair": {"P": matroid_to_json(p), "Q": matroid_to_json(q)},
        "lbcs": lbcs_report,
        "isomorphismSearch": {"found": mapping is not None},
        "syncConditions": sync,
        "sharedInvariants": invariants,
        "screen": screen,
        "screenMismatchControl": mismatch_screen,
        "minorObstruction": minor,
        "oracleSpotCheck": oracle,
        "coveringSpotCheck": covering,
        "noncommCertificates": certificates,
        "checks": checks,
        "allChecksPassed": all(checks.values()),
    }


def _oracle_spot_check() -> dict:
    """Graph-route verdicts vs brute force over the 3-element catalog."""
    from .catalog import all_matroids
    from .matroid import brute_force_isomorphic
    from .relgraph import find_matroid_isomorphism

    compared = 0
    mismatches = 0
    mats = all_matroids(3)
    for m in mats:
        for n in mats:
            truth = brute_force_isomorphic(m, n) is not None
            for kind in IsoStructure:
                if not (covers(m, kind).covered and covers(n, kind).covered):
                    continue
                got = find_matroid_isomorphism(m, n, kind) is not None
                compared += 1
                if got != truth:
                    mismatches += 1
    return {"compared": compared, "mismatches": mismatches}


def _covering_spot_check() -> dict:
    """Definition/characterization agreement over the 4-element catalog."""
    from .catalog import all_matroids
    from .structures import _covered_by_characterization

    checked = 0
    disagreements = 0
    for n in range(5):
        for m in all_matroids(n):
            for kind in (
                IsoStructure.BASES,
                IsoStructure.CIRCUITS,
                IsoStructure.NONBASES,
            ):
                if covers(m, kind).covered != _covered_by_characterization(m, kind):
                    disagreements += 1
                checked += 1
    return {"checked": checked, "disagreements": disagreements}


def _certificate_spot_check() -> dict:
    """Disjoint-automorphism certificates for the two-line family."""
    from .algebra import noncommutativity_certificate
    from .matroid import matroid_from_nonbases

    results = {}
    for r in (3, 4, 5):
        n = r + 2
        full = (1 << n) - 1
        m = matroid_from_nonbases(n, r, [full ^ 0b0011, full ^ 0b1100])
        cert = noncommutativity_certificate(m, IsoStructure.NONBASES)
        results[f"rank{r}"] = bool(cert and cert["verification"]["valid"])
    results["allValid"] = all(results.values())
    return results


def cmd_quantum(args) -> int:
    from .lbcs_construct import (
        BOTTOM_ROW,
        SignAssignment,
        build_paper_pair,
        grid_matroid,
        lbcs_from_matroid,
    )
    from .quantum import (
        iso_game_pvms,
        magic_square_observables,
        verify_lbcs_quantum_strategy,
        verify_sync_conditions,
    )

    grid = magic_square_observables()
    base = grid_matroid()
    signed = lbcs_from_matroid(base, SignAssignment.with_negatives(base, [BOTTOM_ROW]))
    if args.action == "magic-square":
        report = verify_lbcs_quantum_strategy(signed, grid)
        _emit(report, args.out)
        return EXIT_OK if report["perfect"] else EXIT_NEGATIVE
    # verify-iso
    p, q = build_paper_pair()
    strategy = iso_game_pvms(p, q, signed, grid)
    report = verify_sync_conditions(strategy, p, q, IsoStructure.NONBASES)
    _emit(report, args.out)
    return EXIT_OK if report["perfect"] else EXIT_NEGATIVE


def cmd_screen(args) -> int:
    from .algebra import screen_quantum_iso

    m = load_matroid(args.first)
    n = load_matroid(args.second)
    report = screen_quantum_iso(m, n, _structure(args))
    _emit(report.to_json(), args.out)
    return EXIT_OK if report.verdict == "possibly quantum isomorphic" else EXIT_NEGATIVE


def cmd_export_relations(args) -> int:
    from .algebra import (
        export_comparison_substitution,
        export_groundset_relations,
        export_pointed_relations,
    )

    m = load_matroid(args.first)
    n = load_matroid(args.second)
    kind = _structure(args)
    if args.grid == "pointed":
        bundle = export_pointed_relations(m, n, kind)
    else:
        bundle = export_groundset_relations(m, n, kind)
    # every check runs before the first byte; the text then streams out
    sub = export_comparison_substitution(m, n, kind) if args.with_substitution else {}
    with _output(args.out) as fp:
        bundle.write(fp)
        for k, v in sorted(sub.items()):
            fp.write(f"subst {k} = {' + '.join(v)}\n")
    return EXIT_OK


def cmd_noncomm_cert(args) -> int:
    from .algebra import noncommutativity_certificate

    m = load_matroid(args.file)
    cert = noncommutativity_certificate(m, _structure(args))
    if cert is None:
        _emit({"certificate": None}, args.out)
        return EXIT_NEGATIVE
    _emit({"certificate": cert}, args.out)
    return EXIT_OK


# -- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="mig", description="matroid isomorphism games toolkit"
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", help="write JSON here instead of stdout")

    def add_stats(p):
        p.add_argument(
            "--stats",
            action="store_true",
            help="add the search's work counts to the JSON",
        )

    def add_structure(p):
        p.add_argument(
            "--structure",
            required=True,
            choices=[k.value for k in IsoStructure],
        )

    p = sub.add_parser("matroid", help="construction-free matroid queries")
    p.add_argument("action", choices=["info", "derive", "dual", "minor", "tutte"])
    p.add_argument("file")
    p.add_argument("--delete", help="comma-separated elements to delete")
    p.add_argument("--contract", help="comma-separated elements to contract")
    add_common(p)
    p.set_defaults(func=cmd_matroid)

    p = sub.add_parser("cover", help="does the structure cover the matroid?")
    p.add_argument("file")
    add_structure(p)
    add_common(p)
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser("graph", help="relation colored graph operations")
    p.add_argument("action", choices=["build", "aut"])
    p.add_argument("file")
    add_structure(p)
    add_stats(p)
    add_common(p)
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("iso", help="search for a matroid isomorphism")
    p.add_argument("first")
    p.add_argument("second")
    add_structure(p)
    add_stats(p)
    add_common(p)
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("game", help="isomorphism game checks")
    p.add_argument("action", choices=["check", "eval-strategy"])
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--strategy", help="strategy JSON file for eval-strategy")
    add_structure(p)
    add_common(p)
    p.set_defaults(func=cmd_game)

    p = sub.add_parser("lbcs", help="linear binary constraint systems")
    p.add_argument("action", choices=["build", "solve", "from-matroid"])
    p.add_argument("file", nargs="?")
    p.add_argument(
        "--negate",
        action="append",
        help="comma-separated constraint variable set to negate (repeatable)",
    )
    add_common(p)
    p.set_defaults(func=cmd_lbcs)

    p = sub.add_parser("ms-construct", help="doubled matroid of a signed system")
    p.add_argument("file")
    p.add_argument("--negate", action="append")
    add_common(p)
    p.set_defaults(func=cmd_ms_construct)

    p = sub.add_parser("paper-pair", help="the 18-element demonstration pair")
    p.add_argument("--verify-all", action="store_true")
    p.add_argument("--timings", action="store_true", help="stage seconds to stderr")
    add_common(p)
    p.set_defaults(func=cmd_paper_pair)

    p = sub.add_parser("quantum", help="quantum strategy verification")
    p.add_argument("action", choices=["magic-square", "verify-iso"])
    add_common(p)
    p.set_defaults(func=cmd_quantum)

    p = sub.add_parser("screen", help="necessary-condition screen")
    p.add_argument("first")
    p.add_argument("second")
    add_structure(p)
    add_common(p)
    p.set_defaults(func=cmd_screen)

    p = sub.add_parser("export-relations", help="emit algebra relation bundles")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--grid", choices=["pointed", "groundset"], default="pointed")
    p.add_argument("--with-substitution", action="store_true")
    add_structure(p)
    add_common(p)
    p.set_defaults(func=cmd_export_relations)

    p = sub.add_parser("noncomm-cert", help="disjoint-automorphism certificate")
    p.add_argument("file")
    add_structure(p)
    add_common(p)
    p.set_defaults(func=cmd_noncomm_cert)

    return top


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (MigError, OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
