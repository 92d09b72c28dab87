"""Slow references that the tests check the package's fast paths against.

Each one is exhaustive and obviously correct, and nothing in the package
calls it.  The tests import this module as `references`: pytest puts
`tests/` on the import path, since it holds no `__init__.py`.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Sequence


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
