"""Command-line surface for the library.

Every subcommand prints a human-readable summary by default and a versioned
JSON report with --json (schema described in docs/report-schema.md), on one
line; ``python3 -m json.tool`` indents it for reading.  Each handler returns
an ``Outcome``; ``main`` alone times the command, builds the report and
prints it.  A witness may already be JSON text (``_JSONText``), which
``main`` splices into the report as it stands; only ``scan-words`` makes
one, its ``certified_words``.

The module imports every library module at its top, unlike the package,
which loads each on first use: one process may serve many ``main`` calls,
and none of them should pay for an import.

``main`` builds its argument parser on its first call and reuses it, so
repeated in-process calls do not pay for it again.  When the first argument
names a subcommand, ``main`` parses the rest with that subcommand's own
parser, which is what the top parser would hand them to; anything else (no
argument, ``--version``, ``-h``, an unknown name) goes through the top
parser.  Both paths give the same namespace, messages and exit codes.

Exit codes: 0 = success / all checks passed / certificate obtained;
1 = a check failed (lemma mismatch, refuted obstruction, forbidden
certificate combination, theorem-violation diagnostic); 2 = usage error;
141 = the reader of stdout closed it before the output ended.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
import time
from typing import NamedTuple

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
    OrbitAutomaton,
    QuadraticMap,
    SequenceSampler,
    certified_counts,
    check_scan_budget,
    join_certified_words,
    monte_carlo_stability,
    orbit_entries,
    stability_certificate,
)
from .exceptional import (
    Classification,
    TheoremViolationError,
    classify_from_systems,
    construct_irreducible_prefix,
    is_exceptional_pair,
    scan_exceptional_pairs,
)
from .heights import compute_iterate_bound
from .oracle import cross_validate
from .portraits import portrait

REPORT_SCHEMA = "quadsemi-report/3"

# the exit code of a report whose reader closed stdout early: 128 + SIGPIPE,
# as a shell reports a process that SIGPIPE ended
EXIT_BROKEN_PIPE = 141


class Outcome(NamedTuple):
    """What a handler found: the report's sections, the text lines, the exit code."""

    inputs: dict
    verdicts: dict
    witnesses: dict
    lines: list[str]
    code: int = 0
    stats: dict | None = None


class _JSONText:
    """A report value that is already JSON text; `main` writes it as it stands."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text


# what json.dumps writes for a _JSONText before its text replaces it: a NUL,
# which it escapes, and which no command-line argument can hold
_SPLICE = "\x00"
_SPLICED = json.dumps(_SPLICE)


def _dumps(report: dict) -> str:
    """``json.dumps(report)``, with each `_JSONText` witness written as its text.

    A report with no such witness goes straight to ``json.dumps``.
    """
    if not any(isinstance(v, _JSONText) for v in report["witnesses"].values()):
        return json.dumps(report)
    texts = []

    def splice(value):
        if not isinstance(value, _JSONText):
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        texts.append(value.text)
        return _SPLICE

    pieces = json.dumps(report, default=splice).split(_SPLICED)
    parts = [pieces[0]]
    for text, piece in zip(texts, pieces[1:]):
        parts += (text, piece)
    return "".join(parts)


def _parse_list(text: str, what: str, convert=int, kind: str = "integers") -> list:
    """The items of a comma-separated list; an empty or malformed item is a usage error."""
    try:
        return [convert(tok) for tok in text.split(",")]
    except ValueError:
        raise ValueError(f"{what} must be a comma-separated list of {kind}, "
                         f"got {text!r}") from None


def _gens(args) -> GeneratorSet:
    return GeneratorSet.from_cs(_parse_list(args.c, "-c"))


def _parse_word(text: str, n_gens: int) -> tuple[int, ...]:
    """Word letters are 1-based indices into the -c list, outermost first."""
    letters = _parse_list(text, "-w")
    for i in letters:
        if not 1 <= i <= n_gens:
            raise ValueError(f"word index {i} out of range 1..{n_gens}")
    return tuple(i - 1 for i in letters)


def _one_based(word: tuple[int, ...]) -> list[int]:
    return [i + 1 for i in word]


# --- subcommand handlers ----------------------------------------------------

def cmd_orbit(args) -> Outcome:
    gens = _gens(args)
    word = _parse_word(args.w, len(gens))
    # the interpreter refuses to print an int past this many digits (0: no
    # limit); each entry is checked as it is built, since every later one is
    # about twice as long
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    bound = 10**limit if limit else None
    entries = []
    for k, e in enumerate(orbit_entries(gens, word), start=1):
        if bound is not None and abs(e) >= bound:
            raise ValueError(f"orbit entry {k} of the {len(word)}-letter word has more "
                             f"than {limit} digits, too many to print; use a shorter word")
        entries.append(e)
    verdict = stability_certificate(gens, word)
    return Outcome(
        {"cs": list(gens.cs), "word": _one_based(word)},
        {"entries": entries, "status": verdict.status,
         "first_square_index": verdict.first_square_index},
        {"witness_root": verdict.witness_root},
        [f"word {_one_based(word)} over {list(gens.cs)}",
         f"adjusted critical orbit: {entries}",
         f"verdict: {verdict.status}"
         + (f" (square {verdict.witness_root}^2 at position "
            f"{verdict.first_square_index})" if not verdict.certified else "")],
    )


def cmd_scan_words(args) -> Outcome:
    gens = _gens(args)
    words = check_scan_budget(len(gens), args.L)
    automaton = OrbitAutomaton(gens.cs)  # one for the count and the text: each row built once
    certified = sum(certified_counts(gens, args.L, automaton=automaton))
    lines = [f"{words} words of length <= {args.L}; {certified} certified irreducible"]
    # the word texts are built only for an output that prints them: main
    # prints the witnesses under --json and the lines otherwise
    witness = "[]"
    if certified and (args.json or args.verbose):
        heads = [f"[{i}" for i in range(1, len(gens) + 1)]
        tails = [f", {i}" for i in range(1, len(gens) + 1)]
        # the JSON list, or one "  [...]" line per word
        sep = "], " if args.json else "]\n  "
        text = join_certified_words(gens, args.L, heads, tails, sep, automaton=automaton)
        if args.json:
            witness = f"[{text}]]"
        else:
            lines.append(f"  {text}]")
    return Outcome(
        {"cs": list(gens.cs), "max_len": args.L},
        {"words": words, "certified": certified},
        {"certified_words": _JSONText(witness)},
        lines,
    )


def cmd_portrait(args) -> Outcome:
    p = portrait(args.c)
    form = None
    if p.square_form is not None:
        form = {"kind": p.square_form.kind, "s": p.square_form.s}
    return Outcome(
        {"c": args.c},
        {"fixed_points": sorted(p.fixed_points),
         "two_cycles": sorted(list(t) for t in p.two_cycles),
         "preperiodic": sorted(p.preper),
         "square_form": form},
        {},
        [f"x^2{args.c:+d}: fixed {sorted(p.fixed_points)}, "
         f"2-cycles {sorted(list(t) for t in p.two_cycles)}, "
         f"preperiodic {sorted(p.preper)}",
         f"square periodic form: {form}"],
    )


def cmd_exceptional(args) -> Outcome:
    v = is_exceptional_pair(args.c1, args.c2)
    form = None
    if v.closed_form is not None:
        form = {"kind": v.closed_form.kind, "s": v.closed_form.s}
    return Outcome(
        {"c1": args.c1, "c2": args.c2},
        {"is_exceptional": v.is_exceptional, "closed_form": form},
        {"square_periodic": list(v.square_periodic),
         "image_witnesses": [list(w) if w else None for w in v.image_witnesses]},
        [f"({args.c1}, {args.c2}): "
         + ("exceptional" if v.is_exceptional else "not exceptional")
         + (f", closed form {form}" if form else "")],
    )


def cmd_scan_pairs(args) -> Outcome:
    pairs = scan_exceptional_pairs(args.min, args.max)
    return Outcome(
        {"min": args.min, "max": args.max},
        {"count": len(pairs)},
        {"pairs": [list(p) for p in pairs]},
        [f"{len(pairs)} ordered exceptional pairs in "
         f"[{args.min}, {args.max}]^2: {pairs}"],
    )


def cmd_construct_prefix(args) -> Outcome:
    gens = _gens(args)
    recipe = construct_irreducible_prefix(gens)
    return Outcome(
        {"cs": list(gens.cs)},
        {"shape": recipe.shape,
         "outer_c": gens.maps[recipe.outer].c,
         "inner_c": gens.maps[recipe.inner].c,
         "n_iterate": recipe.n_iterate,
         "prefix_word": _one_based(recipe.prefix_word())},
        {"certificate": recipe.certificate, "rigor": recipe.rigor},
        [f"{recipe.shape} prefix, outer x^2{gens.maps[recipe.outer].c:+d} "
         f"iterated N={recipe.n_iterate}: word {_one_based(recipe.prefix_word())}",
         f"certificate: {recipe.certificate} [{recipe.rigor}]"],
    )


def _registry_entry(entries: tuple[LemmaEntry, ...], entry_id: str) -> LemmaEntry:
    for entry in entries:
        if entry.id == entry_id:
            return entry
    raise ValueError(f"unknown lemma id {entry_id!r}; ids run case1.1..case3.16")


def cmd_verify_lemma(args) -> Outcome:
    entries = registry()
    chosen = entries if args.all else [_registry_entry(entries, args.id)]
    results = verify_all(chosen, bound=args.bound)
    all_ok = all(r.matched for r in results)
    rows = [{"id": r.entry_id, "matched": r.matched,
             "extra": sorted(map(list, r.extra)), "missing": sorted(map(list, r.missing)),
             "extra_lines": sorted(map(list, r.extra_lines)),
             "missing_lines": sorted(map(list, r.missing_lines)),
             "note": r.note} for r in results]
    lines = [f"{sum(r.matched for r in results)}/{len(results)} entries match the complete "
             f"solution sets, points compared within |s|, |t| <= {args.bound}"]
    for r in results:
        if not r.matched:
            lines.append(f"  MISMATCH {r.entry_id}: extra={sorted(r.extra)[:5]} "
                         f"missing={sorted(r.missing)[:5]} "
                         f"extra_lines={sorted(r.extra_lines)} "
                         f"missing_lines={sorted(r.missing_lines)}")
        elif args.verbose:
            lines.append(f"  match    {r.entry_id}")
    verdicts = {"all_matched": all_ok,
                "matched": sum(r.matched for r in results), "total": len(results)}
    if args.all:
        derived = classify_from_systems()
        verdicts["classification"] = _classification_report(derived)
        lines.append(_classification_line(derived))
    return Outcome(
        {"which": "all" if args.all else args.id, "bound": args.bound,
         "registry": registry_provenance()},
        verdicts,
        {"results": rows},
        lines,
        code=0 if all_ok else 1,
        stats={"counters": {"pairs_tested": sum(r.pairs_tested for r in results)}},
    )


def _system_names(systems) -> list[list[str]]:
    return [[sys_.family, sys_.left, sys_.right] for sys_ in systems]


def _classification_report(derived: Classification) -> dict:
    return {"sporadic": [list(pair) for pair in derived.sporadic()],
            "families": [{"shapes": list(f.shapes), "systems": _system_names(f.systems)}
                         for f in derived.families]}


def _classification_line(derived: Classification) -> str:
    families = "; ".join(
        f"{f.shapes[0]} x {f.shapes[1]} at every s, from "
        + ", ".join(" ".join(name) for name in _system_names(f.systems))
        for f in derived.families)
    return (f"exceptional pairs derived from the 48 solved systems: sporadic "
            f"{derived.sporadic()}; families: {families or 'none'}")


def cmd_obstruction(args) -> Outcome:
    res = modular_obstruction(_registry_entry(registry(), args.id), args.mod)
    return Outcome(
        {"id": args.id, "modulus": args.mod},
        {"confirmed": res.confirmed},
        {"witness": list(res.witness) if res.witness else None},
        [f"{args.id} mod {args.mod}: "
         + ("no residue solutions (obstruction confirmed)" if res.confirmed
            else f"refuted by residues {res.witness}")],
        code=0 if res.confirmed else 1,
    )


def cmd_curve_points(args) -> Outcome:
    coeffs = _parse_list(args.coeffs, "--coeffs")
    if len(coeffs) != 3:
        raise ValueError("--coeffs needs exactly a4,a2,a0")
    a4, a2, a0 = coeffs
    pts = quartic_curve_points(a4, a2, a0, args.bound)
    return Outcome(
        {"a4": a4, "a2": a2, "a0": a0, "bound": args.bound},
        {"count": len(pts)},
        {"points": [list(p) for p in pts]},
        [f"y^2 = {a4}q^4 + {a2}q^2 + {a0}, |q| <= {args.bound}: "
         f"{len(pts)} points {pts}"],
    )


def cmd_heights(args) -> Outcome:
    m = QuadraticMap(args.c)
    try:
        bound = compute_iterate_bound(m, search_box=args.box, iterations=args.iterations)
    except ArithmeticError as exc:  # --iterations too small for the box: bad input
        raise ValueError(str(exc)) from None
    pts = sorted(bound.integral_points)
    return Outcome(
        {"c": args.c, "iterations": args.iterations, "box": args.box},
        {"hmin": bound.hmin, "B": bound.B, "N": bound.N, "rigor": bound.rigor},
        {"integral_points": [list(p) for p in pts]},
        [f"x^2{args.c:+d}: hmin={bound.hmin:.6f} B={bound.B:.6f} "
         f"N={bound.N} [{bound.rigor}]",
         f"integral points on Y^2 = f(f(X)): {pts}"],
    )


def cmd_mc_stability(args) -> Outcome:
    gens = _gens(args)
    if args.weights:
        weights = tuple(_parse_list(args.weights, "--weights", float, "numbers"))
    else:
        weights = (1.0,) * len(gens)
    sampler = SequenceSampler(weights, args.seed & ((1 << 64) - 1))
    estimate = monte_carlo_stability(gens, sampler, args.L, args.T)
    return Outcome(
        {"cs": list(gens.cs), "depth": args.L, "trials": args.T,
         "seed": sampler.seed, "weights": list(weights)},
        {"estimate": estimate},
        {},
        [f"P(length-{args.L} word is square-free) ~ {estimate} "
         f"({args.T} trials, seed {sampler.seed})"],
    )


def cmd_cross_validate(args) -> Outcome:
    gens = _gens(args)
    rep = cross_validate(gens, args.L)
    return Outcome(
        {"cs": list(gens.cs), "max_len": args.L},
        {"words_checked": rep.words_checked,
         "forbidden": len(rep.forbidden),
         "unknown_irreducible": len(rep.unknown_irreducible),
         "passed": rep.passed},
        {"forbidden_words": [_one_based(w) for w in rep.forbidden],
         "unknown_irreducible_words": [_one_based(w) for w in rep.unknown_irreducible]},
        [f"{rep.words_checked} words checked: "
         f"{len(rep.forbidden)} forbidden combinations, "
         f"{len(rep.unknown_irreducible)} unknown-but-irreducible"],
        code=0 if rep.passed else 1,
        stats={"counters": rep.counters},
    )


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
    gens = argparse.ArgumentParser(add_help=False)
    gens.add_argument("-c", required=True, help="comma-separated generator constants")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("orbit", parents=[common, gens],
                       help="adjusted critical orbit and verdict of one word")
    p.add_argument("-w", required=True,
                   help="comma-separated 1-based word letters, outermost first")
    p.set_defaults(handler=cmd_orbit)

    p = sub.add_parser("scan-words", parents=[common, gens],
                       help="verdicts for every word up to a length")
    p.add_argument("-L", type=int, required=True)
    p.add_argument("--verbose", action="store_true", help="list the certified words")
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
                       help="exceptional pairs among the square-shape constants in a box")
    p.add_argument("--min", type=int, required=True)
    p.add_argument("--max", type=int, required=True)
    p.set_defaults(handler=cmd_scan_pairs)

    p = sub.add_parser("construct-prefix", parents=[common, gens],
                       help="constructive irreducible prefix for a generator set")
    p.set_defaults(handler=cmd_construct_prefix)

    p = sub.add_parser("verify-lemma", parents=[common],
                       help="compare the complete case solutions with the registry")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("id", nargs="?", help="case id, e.g. case2.14")
    which.add_argument("--all", action="store_true", help="verify all 48 entries")
    p.add_argument("--bound", type=int, default=50)
    p.add_argument("--verbose", action="store_true", help="list the matching entries too")
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

    p = sub.add_parser("mc-stability", parents=[common, gens],
                       help="Monte Carlo estimate of the square-free word fraction")
    p.add_argument("-L", type=int, required=True)
    p.add_argument("-T", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--weights", default=None,
                   help="comma-separated positive finite weights (default uniform)")
    p.set_defaults(handler=cmd_mc_stability)

    p = sub.add_parser("cross-validate", parents=[common, gens],
                       help="compare the orbit certificate with the exact oracle")
    p.add_argument("-L", type=int, required=True)
    p.set_defaults(handler=cmd_cross_validate)

    for child in sub.choices.values():
        _allow_negative_values(child)
    return parser


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """main's own parser and its subcommand parsers by name, built on main's first call.

    build_parser() still gives each caller a fresh parser, so no caller can
    change the parsers main uses.
    """
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return parser, sub.choices


def _parse(argv: list[str] | None) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, parsed by the named subcommand's parser alone.

    The top parser hands every argument after a subcommand name to that
    subcommand's parser and reports what it leaves over as unrecognized;
    this does the same without the top parser's own pass over the arguments.
    """
    if argv is None:
        argv = sys.argv[1:]
    parser, commands = _parsers()
    command = commands.get(argv[0]) if argv else None
    if command is None:  # no argument, --version, -h or an unknown name
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def _emit(text: str | None = None) -> bool:
    """Print text, if any, and flush stdout; False if the reader has closed the pipe.

    When the reader has gone (`quadsemi ... | head`), stdout is pointed at
    devnull, so the flush at exit has somewhere to write what is still
    buffered.
    """
    try:
        if text is not None:
            print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return False
    return True


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(argv)
    except SystemExit:
        # argparse has printed help, the version or a usage error
        if not _emit():
            return EXIT_BROKEN_PIPE
        raise
    started = time.perf_counter()
    try:
        out = args.handler(args)
    except TheoremViolationError as exc:
        print(f"THEOREM VIOLATION: {exc}", file=sys.stderr)
        print(json.dumps({"details": repr(exc.details)}), file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        report = {"schema": REPORT_SCHEMA, "command": args.command, "inputs": out.inputs,
                  "verdicts": out.verdicts, "witnesses": out.witnesses}
        if out.stats is not None:
            report["stats"] = out.stats
        report["timings"] = {"elapsed_s": round(time.perf_counter() - started, 6)}
        text = _dumps(report)
    else:
        text = "\n".join(out.lines)
    return out.code if _emit(text) else EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
