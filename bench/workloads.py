"""Seeded item lists for the four benchmark workloads.

An item is one CLI invocation: ``{"id", "argv", "check"}``.  The benchmark
appends ``--json`` and calls ``quadsemi.cli.main`` in process.  Items come in
rounds; round ``r`` of a workload depends only on (workload, seed, r), so the
same seed always yields byte-identical inputs.  Nothing here imports the
package under test.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("audit", "words", "certify", "crossval")

# audit
AUDIT_BOUND = 300
CURVE_BOUND = 20000
# (a4, a2, a0) -> every (q, y) with y^2 = a4 q^4 + a2 q^2 + a0, y >= 0
KNOWN_CURVES = {
    (1, 0, 1): [(0, 1)],
    (1, 0, -1): [(-1, 0), (1, 0)],
    (1, -1, 1): [(-1, 1), (0, 1), (1, 1)],
    (1, 1, 1): [(0, 1)],
    (1, 1, 2): [(-1, 2), (1, 2)],
    (1, 2, 2): [],
}

# words
WORDS_C_MAX = 50
# (generators, length) per set; the counts put the run's median item among
# the L12 Monte Carlo runs and its tail among the L12 scans
WORDS_SETS = ((2, 12),) * 6 + ((3, 8),) * 4
WORDS_MC_TRIALS = 1000
README_SET = (-4, -12)
README_DEPTH = 10
README_TRIALS = 20000

# certify
CERTIFY_C_MAX = 3000
CERTIFY_PAIRS = 10
CERTIFY_BOX = 10000
FAMILY_S = tuple(range(2, 9))
# three boxes of equal width holding the same square-form rows, so that the
# run's slowest items form a group large enough to hold its tail percentile
SCAN_PAIRS_BOXES = ((-1500, 1500), (-2000, 1000), (-1750, 1250))

# crossval
CROSSVAL_C_MAX = 100
CROSSVAL_LEN = 3
CROSSVAL_IRREDUCIBLE = 20
CROSSVAL_Q_MAX = 10
CROSSVAL_REDUCIBLE = 8
# Factor searches make crossval items cost from milliseconds to seconds,
# depending on the pair: pairs with a reducible letter x^2 - q^2 take up to
# seconds when the partner constant is positive, and some of those exceed the
# oracle's node budget; so do some pairs of irreducible letters whose
# compositions resist the mod-p degree test.  A run holds one round, so a
# per-run draw would make throughput and tail follow the draw, not the code.
# The pairs therefore form one panel, drawn once with a fixed seed and
# repeated every round; --seed only shuffles their order.
CROSSVAL_PANEL_SEED = "crossval-panel"

# Call time of one round in seconds, at the reference machine's speed (the
# speed the worker scales latencies to; see worker.CALIBRATION_REF_S).  A run
# executes a fixed number of rounds, sized to fill --seconds at that speed,
# so the parent and a change always measure the same items.  A traced run
# executes half as many; being fixed too, its counts repeat exactly.
NOMINAL_ROUND_S = {"audit": 3.9, "words": 4.3, "certify": 2.45, "crossval": 16.5}


def rounds(workload: str, seconds: float) -> int:
    """Rounds in a run of about `seconds` seconds on the reference machine."""
    return max(1, round(seconds / NOMINAL_ROUND_S[workload]))


def traced_rounds(workload: str, seconds: float) -> int:
    return max(1, rounds(workload, seconds) // 2)


def is_irreducible_letter(c: int) -> bool:
    """x^2 + c is irreducible over Q exactly when -c is not a perfect square."""
    return c > 0 or math.isqrt(-c) ** 2 != -c


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _item(item_id: str, argv: list[str], check: str) -> dict:
    return {"id": item_id, "argv": argv, "check": check}


def _irreducible_pair(rng: random.Random, c_max: int) -> tuple[int, int]:
    while True:
        a, b = rng.randint(-c_max, c_max), rng.randint(-c_max, c_max)
        if a != b and is_irreducible_letter(a) and is_irreducible_letter(b):
            return a, b


def audit_round(entries: list[tuple[str, tuple[str, ...]]]) -> list[dict]:
    """One verify-lemma per entry, one obstruction per mod tag, six curves.

    ``entries`` lists (id, techniques) in registry order.
    """
    items = [_item(f"verify:{eid}", ["verify-lemma", eid, "--bound", str(AUDIT_BOUND)],
                   "verify")
             for eid, _ in entries]
    for eid, techniques in entries:
        for modulus in (4, 8):
            if f"mod{modulus}" in techniques:
                items.append(_item(f"obstruction:{eid}:{modulus}",
                                   ["obstruction", eid, "--mod", str(modulus)],
                                   "obstruction"))
    for coeffs in KNOWN_CURVES:
        items.append(_item(f"curve:{_csv(coeffs)}",
                           ["curve-points", "--coeffs", _csv(coeffs),
                            "--bound", str(CURVE_BOUND)],
                           "curve"))
    return items


def stratified_constants(rng: random.Random, count: int, c_max: int) -> list[int]:
    """Distinct irreducible-letter constants, one per magnitude stratum of [1, c_max].

    Item costs grow with |c| (orbit sizes with log|c|, height boxes with
    |c|), so a plain uniform draw makes a round's cost swing with the few
    constants it holds; one draw per stratum keeps the uniform marginal and
    steadies the total.  Returned in random order.
    """
    out: list[int] = []
    for i in range(count):
        lo, hi = 1 + i * c_max // count, (i + 1) * c_max // count
        while True:
            c = rng.choice((-1, 1)) * rng.randint(lo, hi)
            if is_irreducible_letter(c) and c not in out:
                break
        out.append(c)
    rng.shuffle(out)
    return out


def words_round(seed: int, r: int) -> list[dict]:
    rng = random.Random(f"words:{seed}:{r}")
    constants = {n: stratified_constants(
        rng, sum(g for g, _ in WORDS_SETS if g == n), WORDS_C_MAX) for n in (2, 3)}
    items = []
    for k, (n_gens, length) in enumerate(WORDS_SETS):
        cs = _csv(constants[n_gens].pop() for _ in range(n_gens))
        mc_seed = rng.getrandbits(32)
        items.append(_item(f"scan:{r}.{k}", ["scan-words", "-c", cs, "-L", str(length)],
                           "scan"))
        items.append(_item(f"mc:{r}.{k}",
                           ["mc-stability", "-c", cs, "-L", str(length),
                            "-T", str(WORDS_MC_TRIALS), "--seed", str(mc_seed)],
                           "mc"))
    items.append(_item(f"mc-readme:{r}",
                       ["mc-stability", "-c", _csv(README_SET), "-L", str(README_DEPTH),
                        "-T", str(README_TRIALS), "--seed", str(rng.getrandbits(32))],
                       "mc"))
    return items


def certify_round(seed: int, r: int) -> list[dict]:
    rng = random.Random(f"certify:{seed}:{r}")
    constants = stratified_constants(rng, 2 * CERTIFY_PAIRS, CERTIFY_C_MAX)
    items = []
    for k in range(CERTIFY_PAIRS):
        a, b = constants[2 * k], constants[2 * k + 1]
        tag = f"{r}.{k}"
        # both orders and both portraits: the quick items then outnumber the
        # rest, so the run's median item lies inside that narrow group
        items += [
            _item(f"exceptional:{tag}", ["exceptional", "-c1", str(a), "-c2", str(b)],
                  "exceptional"),
            _item(f"exceptional:{tag}r", ["exceptional", "-c1", str(b), "-c2", str(a)],
                  "exceptional"),
            _item(f"prefix:{tag}", ["construct-prefix", "-c", _csv((a, b))], "prefix"),
            _item(f"heights:{tag}", ["heights", "-c", str(a), "--box", str(CERTIFY_BOX)],
                  "heights"),
            _item(f"portrait:{tag}", ["portrait", "-c", str(a)], "portrait"),
            _item(f"portrait:{tag}r", ["portrait", "-c", str(b)], "portrait"),
        ]
    for s in FAMILY_S:
        items.append(_item(f"family:{r}.{s}",
                           ["construct-prefix", "-c", _csv((s * s - s**4, -1 - s * s - s**4))],
                           "prefix"))
    for lo, hi in SCAN_PAIRS_BOXES:
        items.append(_item(f"scan-pairs:{r}.{lo}", ["scan-pairs", "--min", str(lo),
                                                    "--max", str(hi)], "scan-pairs"))
    rng.shuffle(items)
    return items


def irreducible_letters(c_max: int) -> list[int]:
    return [c for c in range(-c_max, c_max + 1) if is_irreducible_letter(c)]


def reducible_pairs(rng: random.Random, count: int) -> list[tuple[int, int]]:
    """Pairs of the reducible letter x^2 - q^2 and an irreducible partner.

    q is uniform on 1..CROSSVAL_Q_MAX.  The partners are a systematic sample
    of the irreducible letters in [-CROSSVAL_C_MAX, CROSSVAL_C_MAX]: every
    step-th letter in increasing order, from a random start.  Like a uniform
    draw, it gives every letter the same chance; it also keeps the
    population's sign split (100 of the 190 letters are positive, so 6 or 7
    of 12 partners are), on which the oracle's failures depend.
    """
    letters = irreducible_letters(CROSSVAL_C_MAX)
    step = len(letters) / count
    start = rng.random() * step
    return [(-rng.randint(1, CROSSVAL_Q_MAX) ** 2, letters[int(start + k * step)])
            for k in range(count)]


def crossval_panel() -> list[tuple[str, tuple[int, int]]]:
    """(kind, pair): irreducible pairs, then pairs with a reducible letter."""
    rng = random.Random(CROSSVAL_PANEL_SEED)
    panel = [("irr", _irreducible_pair(rng, CROSSVAL_C_MAX))
             for _ in range(CROSSVAL_IRREDUCIBLE)]
    return panel + [("red", pair) for pair in reducible_pairs(rng, CROSSVAL_REDUCIBLE)]


def crossval_round(seed: int, r: int) -> list[dict]:
    items = [_item(f"crossval:{kind}:{r}.{k}",
                   ["cross-validate", "-c", _csv(pair), "-L", str(CROSSVAL_LEN)],
                   "crossval")
             for k, (kind, pair) in enumerate(crossval_panel())]
    random.Random(f"crossval:{seed}:{r}").shuffle(items)
    return items


def sizes(workload: str) -> dict:
    """The size parameters of a workload, recorded with every result."""
    if workload == "audit":
        return {"bound": AUDIT_BOUND, "curve_bound": CURVE_BOUND,
                "curves": len(KNOWN_CURVES)}
    if workload == "words":
        return {"sets": [list(g) for g in WORDS_SETS], "c_max": WORDS_C_MAX,
                "mc_trials": WORDS_MC_TRIALS, "readme_trials": README_TRIALS}
    if workload == "certify":
        return {"pairs": CERTIFY_PAIRS, "c_max": CERTIFY_C_MAX, "box": CERTIFY_BOX,
                "family_s": list(FAMILY_S),
                "scan_pairs_boxes": [list(b) for b in SCAN_PAIRS_BOXES]}
    if workload == "crossval":
        return {"length": CROSSVAL_LEN, "c_max": CROSSVAL_C_MAX,
                "panel": [[kind, *pair] for kind, pair in crossval_panel()]}
    raise ValueError(f"unknown workload {workload!r}")


def make_round(workload: str, seed: int, r: int,
               entries: list[tuple[str, tuple[str, ...]]]) -> list[dict]:
    if workload == "audit":
        return audit_round(entries)
    if workload == "words":
        return words_round(seed, r)
    if workload == "certify":
        return certify_round(seed, r)
    if workload == "crossval":
        return crossval_round(seed, r)
    raise ValueError(f"unknown workload {workload!r}")
