"""Reference checks: each item's JSON report against answers computed here.

Every check reads only the item's own argv and the report's ``verdicts`` and
``witnesses``; ``schema``, ``inputs`` and ``timings`` are never consulted.  A
check returns None when the report is right and a short reason otherwise.
The references use plain integer loops and ``math.isqrt``; nothing here
imports the package under test.
"""

from __future__ import annotations

import math
import random
from itertools import product

from workloads import KNOWN_CURVES

MC_SIGMAS = 5
SCAN_SAMPLE = 8  # words sampled from the certified list, and as many at random


def _arg(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _ints(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",")]


def is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def orbit(cs: list[int], word: tuple[int, ...]) -> list[int]:
    """Adjusted critical orbit of a 0-based word, outermost letter first."""
    entries = [-cs[word[0]]]
    for k in range(2, len(word) + 1):
        v = 0
        for i in reversed(word[:k]):
            v = v * v + cs[i]
        entries.append(v)
    return entries


def square_free(cs: list[int], word: tuple[int, ...]) -> bool:
    return not any(is_square(v) for v in orbit(cs, word))


def square_free_count(cs: list[int], length: int) -> int:
    """Words of exactly `length` letters whose every orbit entry is a nonsquare."""

    def extend(word: tuple[int, ...]) -> int:
        if len(word) == length:
            return 1
        total = 0
        for i in range(len(cs)):
            w2 = word + (i,)
            if not is_square(orbit(cs, w2)[-1]):
                total += extend(w2)
        return total

    return extend(())


def preperiodic(c: int) -> set[int]:
    """Integer preperiodic points of x^2 + c by orbit simulation in |x| <= |c| + 1."""
    bound = abs(c) + 1
    out = set()
    for a in range(-bound, bound + 1):
        seen, v = set(), a
        while abs(v) <= bound and v not in seen:
            seen.add(v)
            v = v * v + c
        if abs(v) <= bound:
            out.add(a)
    return out


def exceptional_pairs(lo: int, hi: int) -> set[tuple[int, int]]:
    """Ordered pairs in [lo, hi]^2 matching {-1, -3} or {s^2 - s^4, -1 - s^2 - s^4}."""
    shapes = [(-1, -3)]
    s = 0
    while s * s - s**4 >= lo:  # both constants fall as s grows; stop once both are out
        shapes.append((s * s - s**4, -1 - s * s - s**4))
        s += 1
    out = set()
    for a, b in shapes:
        if lo <= a <= hi and lo <= b <= hi and a != b:
            out |= {(a, b), (b, a)}
    return out


# --- per-command checks -------------------------------------------------------

def check_verify(argv, report, ctx):
    v = report["verdicts"]
    if not (v["all_matched"] and v["matched"] == v["total"] == 1):
        return f"{argv[1]} did not match its registry claim"
    return None


def check_obstruction(argv, report, ctx):
    if report["verdicts"]["confirmed"] is not True:
        return f"{argv[1]} mod {_arg(argv, '--mod')} not confirmed"
    return None


def check_curve(argv, report, ctx):
    coeffs = tuple(_ints(_arg(argv, "--coeffs")))
    got = [tuple(p) for p in report["witnesses"]["points"]]
    if got != KNOWN_CURVES[coeffs]:
        return f"curve {coeffs}: points {got}"
    return None


def check_scan(argv, report, ctx):
    cs, length = _ints(_arg(argv, "-c")), int(_arg(argv, "-L"))
    k = len(cs)
    if report["verdicts"]["words"] != sum(k**n for n in range(1, length + 1)):
        return "word count"
    certified = {tuple(i - 1 for i in w) for w in report["witnesses"]["certified_words"]}
    if report["verdicts"]["certified"] != len(certified):
        return "certified count"
    rng = random.Random(" ".join(argv))
    sample = rng.sample(sorted(certified), min(SCAN_SAMPLE, len(certified)))
    for _ in range(SCAN_SAMPLE):
        n = rng.randint(1, length)
        sample.append(tuple(rng.randrange(k) for _ in range(n)))
    for word in sample:
        if square_free(cs, word) != (word in certified):
            return f"verdict of word {word}"
    full = sum(1 for w in certified if len(w) == length)
    ctx[("rate", tuple(cs), length)] = full / k**length
    return None


def check_mc(argv, report, ctx):
    cs, depth, trials = _ints(_arg(argv, "-c")), int(_arg(argv, "-L")), int(_arg(argv, "-T"))
    key = ("rate", tuple(cs), depth)
    if key not in ctx:
        ctx[key] = square_free_count(cs, depth) / len(cs) ** depth
    p = ctx[key]
    estimate = report["verdicts"]["estimate"]
    if abs(estimate - p) > MC_SIGMAS * math.sqrt(p * (1 - p) / trials):
        return f"estimate {estimate} vs exact rate {p}"
    return None


def check_exceptional(argv, report, ctx):
    a, b = int(_arg(argv, "-c1")), int(_arg(argv, "-c2"))
    lo, hi = min(a, b), max(a, b)
    expected = (a, b) in exceptional_pairs(lo, hi)
    if report["verdicts"]["is_exceptional"] != expected:
        return f"({a}, {b}) exceptional={report['verdicts']['is_exceptional']}"
    return None


def check_prefix(argv, report, ctx):
    cs = _ints(_arg(argv, "-c"))
    v = report["verdicts"]
    if v["n_iterate"] < 2:
        return "N < 2"
    prefix = tuple(i - 1 for i in v["prefix_word"])
    for n in range(3):
        for suffix in product(range(len(cs)), repeat=n):
            if not square_free(cs, prefix + suffix):
                return f"prefix extension {prefix + suffix} has a square"
    return None


def check_heights(argv, report, ctx):
    c = int(_arg(argv, "-c"))
    v = report["verdicts"]
    if not (v["N"] >= 2 and v["hmin"] > 0):
        return f"N={v['N']} hmin={v['hmin']}"
    for x, y in report["witnesses"]["integral_points"]:
        if y * y != (x * x + c) ** 2 + c:
            return f"({x}, {y}) is not on Y^2 = f(f(X))"
    return None


def check_portrait(argv, report, ctx):
    c = int(_arg(argv, "-c"))
    if set(report["verdicts"]["preperiodic"]) != preperiodic(c):
        return f"preperiodic set of {c}"
    return None


def check_scan_pairs(argv, report, ctx):
    lo, hi = int(_arg(argv, "--min")), int(_arg(argv, "--max"))
    got = {tuple(p) for p in report["witnesses"]["pairs"]}
    if got != exceptional_pairs(lo, hi) or report["verdicts"]["count"] != len(got):
        return "pair set differs from the closed form"
    return None


def check_crossval(argv, report, ctx):
    cs, length = _ints(_arg(argv, "-c")), int(_arg(argv, "-L"))
    v = report["verdicts"]
    if v["forbidden"] != 0:
        return f"{v['forbidden']} forbidden words"
    if v["words_checked"] != sum(len(cs) ** n for n in range(1, length + 1)):
        return "word count"
    return None


CHECKS = {
    "verify": check_verify,
    "obstruction": check_obstruction,
    "curve": check_curve,
    "scan": check_scan,
    "mc": check_mc,
    "exceptional": check_exceptional,
    "prefix": check_prefix,
    "heights": check_heights,
    "portrait": check_portrait,
    "scan-pairs": check_scan_pairs,
    "crossval": check_crossval,
}


def check(item: dict, report: dict, ctx: dict) -> str | None:
    """Run the item's reference check; a malformed report is a mismatch too."""
    try:
        return CHECKS[item["check"]](item["argv"], report, ctx)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"malformed report: {type(exc).__name__}: {exc}"
