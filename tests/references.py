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
