"""Slow references that the tests check the package's fast paths against.

Each one is exhaustive and obviously correct, and nothing in the package
calls it.  The tests import this module as `references`: pytest puts
`tests/` on the import path, since it holds no `__init__.py`.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import product
from typing import Callable, Sequence

from quadsemi.arith import is_perfect_square
from quadsemi.dynamics import SCAN_BUDGET, GeneratorSet, StabilityVerdict
from quadsemi.exceptional import is_exceptional_pair
from quadsemi.portraits import PREPER_TARGETS, recognize_square_periodic, shape_constant


def residue_search(
    exprs: Sequence[Callable[..., int]],
    num_vars: int,
    modulus: int,
) -> list[tuple[int, ...]]:
    """All vectors in (Z/modulus)^num_vars on which every expression vanishes mod modulus.

    The scan is exhaustive, so an empty result certifies that the system of
    expressions has no integer solutions at all (a modular obstruction).  Each
    expression is a callable taking num_vars integer arguments.
    """
    if not 1 <= num_vars <= 4:
        raise ValueError(f"residue_search supports 1..4 variables, got {num_vars}")
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    hits = []
    for vec in product(range(modulus), repeat=num_vars):
        if all(e(*vec) % modulus == 0 for e in exprs):
            hits.append(vec)
    return hits


def brute_force_preper(c: int) -> frozenset[int]:
    """Independent oracle for preper_set by direct orbit simulation.

    Tests every |a| <= |c| + 1.  An orbit that revisits a value while staying
    inside |value| <= |c| + 1 is preperiodic; any iterate outside that window
    certifies escape, since |x^2 + c| > |x| whenever |x| >= |c| + 2.
    """
    bound = abs(c) + 1
    out = set()
    for a in range(-bound, bound + 1):
        seen = set()
        v = a
        while -bound <= v <= bound and v not in seen:
            seen.add(v)
            v = v * v + c
        if -bound <= v <= bound:
            out.add(a)
    return frozenset(out)


def witness_pairs(cs: Sequence[int]) -> list[tuple[int, int]]:
    """Every c1 of cs with a square periodic point against every c2, by witnesses alone."""
    return [
        (c1, c2)
        for c1 in cs
        if recognize_square_periodic(c1) is not None
        for c2 in cs
        if c2 != c1 and is_exceptional_pair(c1, c2).is_exceptional
    ]


def witness_scan(cmin: int, cmax: int) -> list[tuple[int, int]]:
    """The ordered exceptional pairs of [cmin, cmax]^2, by a witness verdict on each
    shape constant against every constant of the box."""
    return witness_pairs(range(cmin, cmax + 1))


def partner_roots(sign: int, a: int, top: int) -> list[int]:
    """Every s in [0, top), top >= 1, with sign*s^2 + a a square: one test per root y.

    The roots y >= 0 of the values sign*s^2 + a that are squares fill a
    window, and each y gives s^2 = sign*(y^2 - a), so distinct y give
    distinct s.  For sign = +1 the values run over [a, a + (top-1)^2], so
    ceil(sqrt(max(a, 0))) <= y <= isqrt(a + (top-1)^2); for sign = -1 they
    are a - s^2 >= 0 with s <= m = min(top - 1, isqrt(a)), so
    ceil(sqrt(a - m^2)) <= y <= isqrt(a), and a < 0 leaves none.  As
    sqrt(u + v^2) - sqrt(u) <= v, the window holds at most top values.
    """
    if sign > 0:
        lo_v, hi_v = max(a, 0), a + (top - 1) ** 2
    else:
        m = min(top - 1, math.isqrt(max(a, 0)))
        lo_v, hi_v = a - m * m, a
    if hi_v < 0:
        return []
    lo = math.isqrt(lo_v - 1) + 1 if lo_v > 0 else 0
    return [s for y in range(lo, math.isqrt(hi_v) + 1)
            if (s := is_perfect_square(sign * (y * y - a))) is not None]


def window_scan(cmin: int, cmax: int) -> list[tuple[int, int]]:
    """The ordered exceptional pairs of [cmin, cmax]^2 by a search of the box, ascending.

    Condition (1) leaves only the box's shape constants, and each meets it.
    PrePer(c2) is `PREPER_TARGETS`, the values sign*s2^2 + offset of c2's
    shape, so c1's image meets it when sign*s2^2 + offset - c1 is a
    square: `partner_roots` solves that for every s2 < top, `top` the first
    s with both shapes below cmin.  The pairs met both ways are exceptional.
    This searches the box, where the package lists the pairs that the case
    systems derive; it costs O(|cmin|^(3/8)) square tests.
    """
    top = math.isqrt(math.isqrt(max(-cmin, 0))) + 2  # both shapes < cmin from s = top on
    box = {c for s in range(top) for kind in PREPER_TARGETS
           if cmin <= (c := shape_constant(kind, s)) <= cmax}
    meets = {
        (c1, c2)
        for c1 in box
        for kind, targets in PREPER_TARGETS.items()
        for sign, offset in targets
        for s2 in partner_roots(sign, offset - c1, top)
        if (c2 := shape_constant(kind, s2)) in box and c2 != c1
    }
    return sorted((c1, c2) for c1, c2 in meets if (c2, c1) in meets)


def mix64(z: int) -> int:
    """The splitmix64 finalizer (Steele, Lea and Flood, OOPSLA 2014) of one 64-bit z.

    `dynamics._mix_lanes` applies it to every lane of a packed int at once.
    """
    mask = (1 << 64) - 1
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def _gfp_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def gfp_rem(a: list[int], b: list[int], p: int) -> list[int]:
    """a mod b over GF(p) by schoolbook long division, trimmed, with
    coefficients in [0, p); b must be nonzero mod p."""
    a = _gfp_trim([c % p for c in a])
    b = _gfp_trim([c % p for c in b])
    inv = pow(b[-1], -1, p)
    while len(a) >= len(b):
        q, off = a[-1] * inv % p, len(a) - len(b)
        for j, bj in enumerate(b):
            a[off + j] = (a[off + j] - q * bj) % p
        _gfp_trim(a)
    return a


def _schoolbook_product(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def powmod_reference(base: list[int], e: int, mod: list[int], p: int) -> list[int]:
    """base^e mod `mod` over GF(p) by right-to-left square-and-multiply.

    Polynomials are coefficient lists, constant term first; the result has
    coefficients in [0, p) and no trailing zeros.
    """
    result, square = [1], gfp_rem(base, mod, p)
    while e:
        if e & 1:
            result = gfp_rem(_schoolbook_product(result, square), mod, p)
        e >>= 1
        if e:
            square = gfp_rem(_schoolbook_product(square, square), mod, p)
    return gfp_rem(result, mod, p)


def gcd_reference(a: list[int], b: list[int], p: int) -> list[int]:
    """The monic gcd of a and b over GF(p) by Euclid's algorithm ([] if both are 0)."""
    a = _gfp_trim([c % p for c in a])
    b = _gfp_trim([c % p for c in b])
    while b:
        a, b = b, gfp_rem(a, b, p)
    if not a:
        return a
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


# The square sieve's quadratic-residue tables, one for each of a fixed set of
# small prime powers m.  A square is a square modulo every m, so a residue
# mod m that fails its table proves the integer no square, without building it.
SIEVE_FACTORS = (64, 9, 25, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
SIEVE_TABLES = tuple((m, frozenset(x * x % m for x in range(m))) for m in SIEVE_FACTORS)
SIEVE_MODULUS = math.prod(SIEVE_FACTORS)


def passes_every_table(n: int) -> bool:
    """False proves n no square: its residue mod some table's modulus is no square."""
    return all(n % m in squares for m, squares in SIEVE_TABLES)


def sieved_entry_root(cs: Sequence[int], word: Sequence[int]) -> int | None:
    """Root of the word's last orbit entry if it is a square, else None.

    An entry past the first is evaluated mod SIEVE_MODULUS first; a residue
    that is no square mod some table's modulus proves the entry a nonsquare.
    Only an entry that passes every table is built exactly and tested with
    isqrt.
    """
    if len(word) == 1:
        entry = -cs[word[0]]
    else:
        v = 0
        for letter in reversed(word):
            v = (v * v + cs[letter]) % SIEVE_MODULUS
        if not passes_every_table(v):
            return None
        entry = 0
        for letter in reversed(word):
            entry = entry * entry + cs[letter]
    return math.isqrt(entry) if entry >= 0 and math.isqrt(entry) ** 2 == entry else None


@lru_cache(maxsize=16)
def dfs_scan_reference(
    gens: GeneratorSet, max_len: int
) -> tuple[tuple[tuple[int, ...], StabilityVerdict], ...]:
    """(word, verdict) for every word of length 1..max_len, in dictionary order.

    Dictionary order lists each word before its extensions, then moves to the
    next sibling; verdicts are shared down the tree, so a prefix whose orbit
    already contains a square settles its whole subtree for free.  A new
    word's last entry goes through `sieved_entry_root`, so a certified word
    costs no big-integer work.  More than SCAN_BUDGET words in all are
    rejected.  The result is cached per (generators, length), as several
    tests compare different fast paths with the same scan; `__wrapped__`
    runs it uncached.
    """
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    s = len(gens.maps)
    total = sum(s**n for n in range(1, max_len + 1))
    if total > SCAN_BUDGET:
        raise ValueError(f"{total} words exceed the scan budget {SCAN_BUDGET}")
    certified = StabilityVerdict(True)
    out: list[tuple[tuple[int, ...], StabilityVerdict]] = []
    cs = gens.cs

    # explicit preorder DFS; inherited=None marks a square-free prefix
    stack: list[tuple[tuple[int, ...], StabilityVerdict | None]] = [((), None)]
    while stack:
        word, inherited = stack.pop()
        if word:
            out.append((word, inherited if inherited is not None else certified))
        if len(word) == max_len:
            continue
        children = []
        for i in range(s):
            w2 = word + (i,)
            verdict = inherited
            if verdict is None:
                r = sieved_entry_root(cs, w2)
                if r is not None:
                    verdict = StabilityVerdict(False, len(w2), r)
            children.append((w2, verdict))
        stack.extend(reversed(children))
    return tuple(out)
