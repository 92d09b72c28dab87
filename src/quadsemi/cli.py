"""Command-line surface for the library.

Every subcommand prints a human-readable summary by default and a versioned
JSON report with --json (schema described in docs/report-schema.md).

Exit codes: 0 = success / all checks passed / certificate obtained;
1 = a check failed (lemma mismatch, refuted obstruction, forbidden
certificate combination, theorem-violation diagnostic); 2 = usage error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time

from . import __version__
from .diophantine import (
    LemmaEntry,
    modular_obstruction,
    quartic_curve_points,
    registry,
    registry_provenance,
    verify_all,
)
from .dynamics import (
    GeneratorSet,
    QuadraticMap,
    SequenceSampler,
    adjusted_critical_orbit,
    monte_carlo_stability,
    scan_words,
    stability_certificate,
)
from .exceptional import (
    TheoremViolationError,
    construct_irreducible_prefix,
    is_exceptional_pair,
    scan_exceptional_pairs,
)
from .heights import compute_iterate_bound, integral_points_on_phi2
from .oracle import cross_validate
from .portraits import portrait

REPORT_SCHEMA = "quadsemi-report/2"


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        items = [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ValueError(f"{what} must be a comma-separated integer list, got {text!r}")
    if not items:
        raise ValueError(f"{what} must be nonempty")
    return items


def _parse_word(text: str, n_gens: int) -> tuple[int, ...]:
    """Word letters are 1-based indices into the -c list, outermost first."""
    letters = _parse_int_list(text, "word")
    for i in letters:
        if not 1 <= i <= n_gens:
            raise ValueError(f"word index {i} out of range 1..{n_gens}")
    return tuple(i - 1 for i in letters)


def _one_based(word: tuple[int, ...]) -> list[int]:
    return [i + 1 for i in word]


def _report(command: str, inputs: dict, verdicts: dict, witnesses: dict,
            started: float, stats: dict | None = None) -> dict:
    report = {
        "schema": REPORT_SCHEMA,
        "command": command,
        "inputs": inputs,
        "verdicts": verdicts,
        "witnesses": witnesses,
    }
    if stats is not None:
        report["stats"] = stats
    report["timings"] = {"elapsed_s": round(time.perf_counter() - started, 6)}
    return report


def _emit(args, code: int, report: dict, lines: list[str]) -> int:
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        for line in lines:
            print(line)
    return code


# --- subcommand handlers ----------------------------------------------------

def cmd_orbit(args) -> int:
    started = time.perf_counter()
    gens = GeneratorSet.from_cs(_parse_int_list(args.c, "-c"))
    word = _parse_word(args.w, len(gens))
    entries = adjusted_critical_orbit(gens, word)
    verdict = stability_certificate(gens, word)
    report = _report(
        "orbit",
        {"cs": list(gens.cs), "word": _one_based(word)},
        {"entries": entries, "status": verdict.status,
         "first_square_index": verdict.first_square_index},
        {"witness_root": verdict.witness_root},
        started,
    )
    lines = [f"word {_one_based(word)} over {list(gens.cs)}",
             f"adjusted critical orbit: {entries}",
             f"verdict: {verdict.status}"
             + (f" (square {verdict.witness_root}^2 at position "
                f"{verdict.first_square_index})" if not verdict.certified else "")]
    return _emit(args, 0, report, lines)


def cmd_scan_words(args) -> int:
    started = time.perf_counter()
    gens = GeneratorSet.from_cs(_parse_int_list(args.c, "-c"))
    results = scan_words(gens, args.L)
    certified = [w for w, v in results if v.certified]
    report = _report(
        "scan-words",
        {"cs": list(gens.cs), "max_len": args.L},
        {"words": len(results), "certified": len(certified)},
        {"certified_words": [_one_based(w) for w in certified]},
        started,
    )
    lines = [f"{len(results)} words of length <= {args.L}; "
             f"{len(certified)} certified irreducible"]
    if args.verbose:
        lines += [f"  {_one_based(w)}" for w in certified]
    return _emit(args, 0, report, lines)


def cmd_portrait(args) -> int:
    started = time.perf_counter()
    p = portrait(args.c)
    form = None
    if p.square_form is not None:
        form = {"kind": p.square_form.kind, "s": p.square_form.s}
    report = _report(
        "portrait",
        {"c": args.c},
        {"fixed_points": sorted(p.fixed_points),
         "two_cycles": sorted(list(t) for t in p.two_cycles),
         "preperiodic": sorted(p.preper),
         "square_form": form},
        {},
        started,
    )
    lines = [f"x^2{args.c:+d}: fixed {sorted(p.fixed_points)}, "
             f"2-cycles {sorted(list(t) for t in p.two_cycles)}, "
             f"preperiodic {sorted(p.preper)}",
             f"square periodic form: {form}"]
    return _emit(args, 0, report, lines)


def cmd_exceptional(args) -> int:
    started = time.perf_counter()
    v = is_exceptional_pair(args.c1, args.c2)
    form = None
    if v.closed_form is not None:
        form = {"kind": v.closed_form.kind, "s": v.closed_form.s}
    report = _report(
        "exceptional",
        {"c1": args.c1, "c2": args.c2},
        {"is_exceptional": v.is_exceptional, "closed_form": form},
        {"square_periodic": list(v.square_periodic),
         "image_witnesses": [list(w) if w else None for w in v.image_witnesses]},
        started,
    )
    lines = [f"({args.c1}, {args.c2}): "
             + ("exceptional" if v.is_exceptional else "not exceptional")
             + (f", closed form {form}" if form else "")]
    return _emit(args, 0, report, lines)


def cmd_scan_pairs(args) -> int:
    started = time.perf_counter()
    pairs = scan_exceptional_pairs(args.min, args.max)
    report = _report(
        "scan-pairs",
        {"min": args.min, "max": args.max},
        {"count": len(pairs)},
        {"pairs": [list(p) for p in pairs]},
        started,
    )
    lines = [f"{len(pairs)} ordered exceptional pairs in "
             f"[{args.min}, {args.max}]^2: {pairs}"]
    return _emit(args, 0, report, lines)


def cmd_construct_prefix(args) -> int:
    started = time.perf_counter()
    gens = GeneratorSet.from_cs(_parse_int_list(args.c, "-c"))
    recipe = construct_irreducible_prefix(gens)
    report = _report(
        "construct-prefix",
        {"cs": list(gens.cs)},
        {"shape": recipe.shape,
         "outer_c": gens.maps[recipe.outer].c,
         "inner_c": gens.maps[recipe.inner].c,
         "n_iterate": recipe.n_iterate,
         "prefix_word": _one_based(recipe.prefix_word())},
        {"certificate": recipe.certificate, "rigor": recipe.rigor},
        started,
    )
    lines = [f"{recipe.shape} prefix, outer x^2{gens.maps[recipe.outer].c:+d} "
             f"iterated N={recipe.n_iterate}: word {_one_based(recipe.prefix_word())}",
             f"certificate: {recipe.certificate} [{recipe.rigor}]"]
    return _emit(args, 0, report, lines)


def _registry_entry(entries: list[LemmaEntry], entry_id: str) -> LemmaEntry:
    for entry in entries:
        if entry.id == entry_id:
            return entry
    raise ValueError(f"unknown lemma id {entry_id!r}; ids run case1.1..case3.16")


def cmd_verify_lemma(args) -> int:
    started = time.perf_counter()
    entries = registry()
    if args.all:
        chosen = entries
    else:
        chosen = [_registry_entry(entries, args.id)]
    results = verify_all(chosen, bound=args.bound)
    all_ok = all(r.matched for r in results)
    rows = [{"id": r.entry_id, "matched": r.matched,
             "extra": sorted(map(list, r.extra)), "missing": sorted(map(list, r.missing)),
             "note": r.note} for r in results]
    report = _report(
        "verify-lemma",
        {"which": "all" if args.all else args.id, "bound": args.bound,
         "registry": registry_provenance()},
        {"all_matched": all_ok,
         "matched": sum(r.matched for r in results), "total": len(results)},
        {"results": rows},
        started,
    )
    lines = [f"{sum(r.matched for r in results)}/{len(results)} entries match "
             f"the bounded search at bound {args.bound}"]
    for r in results:
        if not r.matched:
            lines.append(f"  MISMATCH {r.entry_id}: extra={sorted(r.extra)[:5]} "
                         f"missing={sorted(r.missing)[:5]}")
        elif args.verbose:
            lines.append(f"  match    {r.entry_id}")
    return _emit(args, 0 if all_ok else 1, report, lines)


def cmd_obstruction(args) -> int:
    started = time.perf_counter()
    res = modular_obstruction(_registry_entry(registry(), args.id), args.mod)
    report = _report(
        "obstruction",
        {"id": args.id, "modulus": args.mod},
        {"confirmed": res.confirmed},
        {"witness": list(res.witness) if res.witness else None},
        started,
    )
    lines = [f"{args.id} mod {args.mod}: "
             + ("no residue solutions (obstruction confirmed)" if res.confirmed
                else f"refuted by residues {res.witness}")]
    return _emit(args, 0 if res.confirmed else 1, report, lines)


def cmd_curve_points(args) -> int:
    started = time.perf_counter()
    coeffs = _parse_int_list(args.coeffs, "--coeffs")
    if len(coeffs) != 3:
        raise ValueError("--coeffs needs exactly a4,a2,a0")
    a4, a2, a0 = coeffs
    pts = quartic_curve_points(a4, a2, a0, args.bound)
    report = _report(
        "curve-points",
        {"a4": a4, "a2": a2, "a0": a0, "bound": args.bound},
        {"count": len(pts)},
        {"points": [list(p) for p in pts]},
        started,
    )
    lines = [f"y^2 = {a4}q^4 + {a2}q^2 + {a0}, |q| <= {args.bound}: "
             f"{len(pts)} points {pts}"]
    return _emit(args, 0, report, lines)


def cmd_heights(args) -> int:
    started = time.perf_counter()
    m = QuadraticMap(args.c)
    try:
        bound = compute_iterate_bound(m, search_box=args.box, iterations=args.iterations)
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    pts = sorted(integral_points_on_phi2(m))
    report = _report(
        "heights",
        {"c": args.c, "iterations": args.iterations, "box": args.box},
        {"hmin": bound.hmin, "B": bound.B, "N": bound.N, "rigor": bound.rigor},
        {"integral_points": [list(p) for p in pts]},
        started,
    )
    lines = [f"x^2{args.c:+d}: hmin={bound.hmin:.6f} B={bound.B:.6f} "
             f"N={bound.N} [{bound.rigor}]",
             f"integral points on Y^2 = f(f(X)): {pts}"]
    return _emit(args, 0, report, lines)


def cmd_mc_stability(args) -> int:
    started = time.perf_counter()
    gens = GeneratorSet.from_cs(_parse_int_list(args.c, "-c"))
    if args.weights:
        weights = tuple(float(w) for w in args.weights.split(","))
    else:
        weights = (1.0,) * len(gens)
    sampler = SequenceSampler(weights, args.seed & ((1 << 64) - 1))
    estimate = monte_carlo_stability(gens, sampler, args.L, args.T)
    report = _report(
        "mc-stability",
        {"cs": list(gens.cs), "depth": args.L, "trials": args.T,
         "seed": sampler.seed, "weights": list(weights)},
        {"estimate": estimate},
        {},
        started,
    )
    lines = [f"P(length-{args.L} word is square-free) ~ {estimate} "
             f"({args.T} trials, seed {sampler.seed})"]
    return _emit(args, 0, report, lines)


def cmd_cross_validate(args) -> int:
    started = time.perf_counter()
    gens = GeneratorSet.from_cs(_parse_int_list(args.c, "-c"))
    rep = cross_validate(gens, args.L)
    report = _report(
        "cross-validate",
        {"cs": list(gens.cs), "max_len": args.L},
        {"words_checked": rep.words_checked,
         "forbidden": len(rep.forbidden),
         "unknown_irreducible": len(rep.unknown_irreducible),
         "passed": rep.passed},
        {"forbidden_words": [_one_based(w) for w in rep.forbidden],
         "unknown_irreducible_words": [_one_based(w) for w in rep.unknown_irreducible]},
        started,
        stats={"counters": rep.counters},
    )
    lines = [f"{rep.words_checked} words checked: "
             f"{len(rep.forbidden)} forbidden combinations, "
             f"{len(rep.unknown_irreducible)} unknown-but-irreducible"]
    return _emit(args, 0 if rep.passed else 1, report, lines)


# --- parser -----------------------------------------------------------------

# let values like "-4,-12" pass as arguments instead of being read as flags
_NEGATIVE_VALUE = re.compile(r"^-\d[\d,.\-]*$")


def _allow_negative_values(parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
    parser._negative_number_matcher = _NEGATIVE_VALUE
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = _allow_negative_values(argparse.ArgumentParser(
        prog="quadsemi",
        description="Irreducibility certificates, preperiodic portraits and "
                    "case-system verification for semigroups of maps x^2 + c.",
    ))
    parser.add_argument("--version", action="version", version=f"quadsemi {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON report")
    common.add_argument("--verbose", action="store_true", help="more detail")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("orbit", parents=[common],
                       help="adjusted critical orbit and verdict of one word")
    p.add_argument("-c", required=True, help="comma-separated generator constants")
    p.add_argument("-w", required=True,
                   help="comma-separated 1-based word letters, outermost first")
    p.set_defaults(handler=cmd_orbit)

    p = sub.add_parser("scan-words", parents=[common],
                       help="verdicts for every word up to a length")
    p.add_argument("-c", required=True)
    p.add_argument("-L", type=int, required=True)
    p.set_defaults(handler=cmd_scan_words)

    p = sub.add_parser("portrait", parents=[common],
                       help="periodic and preperiodic points of one map")
    p.add_argument("-c", type=int, required=True)
    p.set_defaults(handler=cmd_portrait)

    p = sub.add_parser("exceptional", parents=[common],
                       help="classify one pair of constants")
    p.add_argument("-c1", type=int, required=True)
    p.add_argument("-c2", type=int, required=True)
    p.set_defaults(handler=cmd_exceptional)

    p = sub.add_parser("scan-pairs", parents=[common],
                       help="grid scan for exceptional pairs")
    p.add_argument("--min", type=int, required=True)
    p.add_argument("--max", type=int, required=True)
    p.set_defaults(handler=cmd_scan_pairs)

    p = sub.add_parser("construct-prefix", parents=[common],
                       help="constructive irreducible prefix for a generator set")
    p.add_argument("-c", required=True)
    p.set_defaults(handler=cmd_construct_prefix)

    p = sub.add_parser("verify-lemma", parents=[common],
                       help="compare bounded search against the case registry")
    p.add_argument("id", nargs="?", help="case id, e.g. case2.14")
    p.add_argument("--all", action="store_true", help="verify all 48 entries")
    p.add_argument("--bound", type=int, default=50)
    p.set_defaults(handler=cmd_verify_lemma)

    p = sub.add_parser("obstruction", parents=[common],
                       help="exhaustive residue check of a mod-tagged entry")
    p.add_argument("id")
    p.add_argument("--mod", type=int, choices=(4, 8), required=True)
    p.set_defaults(handler=cmd_obstruction)

    p = sub.add_parser("curve-points", parents=[common],
                       help="integer points on y^2 = a4 q^4 + a2 q^2 + a0")
    p.add_argument("--coeffs", required=True, help="a4,a2,a0")
    p.add_argument("--bound", type=int, default=1000)
    p.set_defaults(handler=cmd_curve_points)

    p = sub.add_parser("heights", parents=[common],
                       help="height minimum, integral points and iterate bound")
    p.add_argument("-c", type=int, required=True)
    p.add_argument("--iterations", type=int, default=30)
    p.add_argument("--box", type=int, default=0)
    p.set_defaults(handler=cmd_heights)

    p = sub.add_parser("mc-stability", parents=[common],
                       help="Monte Carlo estimate of the square-free word fraction")
    p.add_argument("-c", required=True)
    p.add_argument("-L", type=int, required=True)
    p.add_argument("-T", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--weights", default=None,
                   help="comma-separated positive finite weights (default uniform)")
    p.set_defaults(handler=cmd_mc_stability)

    p = sub.add_parser("cross-validate", parents=[common],
                       help="compare the orbit certificate with the exact oracle")
    p.add_argument("-c", required=True)
    p.add_argument("-L", type=int, required=True)
    p.set_defaults(handler=cmd_cross_validate)

    for child in sub.choices.values():
        _allow_negative_values(child)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify-lemma" and bool(args.all) == (args.id is not None):
        parser.error("verify-lemma needs exactly one of <id> or --all")
    try:
        return args.handler(args)
    except TheoremViolationError as exc:
        print(f"THEOREM VIOLATION: {exc}", file=sys.stderr)
        print(json.dumps({"details": repr(exc.details)}), file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
