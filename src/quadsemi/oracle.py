"""Exact irreducibility over Q for small monic integer polynomials.

This is the independent cross-check for the orbit-based certificate, so it
shares no machinery with it.  Reducibility is only ever concluded from an
explicit factor: an integer root, or a monic degree-d divisor reconstructed
by interpolation through integer nodes from divisor tuples of the evaluated
values (every candidate is verified by exact division).  Primes are only
ever used in the irreducible direction: a squarefree irreducible reduction
mod p certifies irreducibility, and mod-p factor degree multisets merely
prune which factor degrees the interpolation search must try.

Polynomials are coefficient lists, constant term first.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .arith import positive_divisors
from .dynamics import GeneratorSet, compose_word, stability_certificate

DEFAULT_DEGREE_CAP = 8

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)

_SEARCH_BUDGET = 5_000_000


def _trim(coeffs: list[int]) -> list[int]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _degree(f: list[int]) -> int:
    return len(f) - 1


def poly_eval(f: list[int], x: int) -> int:
    v = 0
    for a in reversed(f):
        v = v * x + a
    return v


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _divmod_monic(f: list[int], g: list[int]) -> tuple[list[int], list[int]]:
    """Exact division of f by a monic g over the integers; returns (quotient, remainder)."""
    assert g[-1] == 1
    rem = list(f)
    dg = _degree(g)
    quot = [0] * max(len(f) - dg, 1)
    for k in range(len(rem) - 1, dg - 1, -1):
        c = rem[k]
        if c == 0:
            continue
        quot[k - dg] = c
        for j in range(dg + 1):
            rem[k - dg + j] -= c * g[j]
    return _trim(quot), _trim(rem[:dg])


# --- arithmetic in GF(p)[x] for the fast path ------------------------------

def _p_trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _p_mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _p_trim(out)


def _p_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    a = list(a)
    inv = pow(b[-1], -1, p)
    db = len(b) - 1
    quot = [0] * max(len(a) - db, 1)
    for k in range(len(a) - 1, db - 1, -1):
        c = (a[k] * inv) % p
        if c == 0:
            continue
        off = k - db
        quot[off] = c
        for j, bj in enumerate(b):
            a[off + j] = (a[off + j] - c * bj) % p
    return _p_trim(quot), _p_trim(a[:db])


def _p_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _p_trim(list(a)), _p_trim(list(b))
    while b:
        a, b = b, _p_divmod(a, b, p)[1]
    if a:
        inv = pow(a[-1], -1, p)
        a = [(c * inv) % p for c in a]
    return a


def _p_powmod(base: list[int], e: int, mod: list[int], p: int) -> list[int]:
    result = [1]
    base = _p_divmod(base, mod, p)[1]
    while e:
        if e & 1:
            result = _p_divmod(_p_mul(result, base, p), mod, p)[1]
        base = _p_divmod(_p_mul(base, base, p), mod, p)[1]
        e >>= 1
    return result


def _mod_p_factor_degrees(f: list[int], p: int) -> list[int] | None:
    """Degrees of the irreducible factors of f mod p, or None if not squarefree mod p.

    Distinct-degree factorization; valid because a squarefree reduction is
    demanded first (equivalently, p does not divide the discriminant).
    """
    fp = _p_trim([c % p for c in f])
    if len(fp) != len(f):
        return None  # leading coefficient vanished (cannot happen for monic f)
    deriv = _p_trim([(i * c) % p for i, c in enumerate(fp)][1:])
    if _degree(_p_gcd(fp, deriv, p)) != 0:
        return None
    degrees: list[int] = []
    rem = fp
    h = [0, 1]  # x
    i = 0
    while _degree(rem) >= 2 * (i + 1):
        i += 1
        h = _p_powmod(h, p, fp, p)
        diff = list(h) + [0] * max(0, 2 - len(h))
        diff[1] = (diff[1] - 1) % p
        g = _p_gcd(diff, rem, p)
        if _degree(g) > 0:
            degrees.extend([i] * (_degree(g) // i))
            rem, _ = _p_divmod(rem, g, p)
    if _degree(rem) > 0:
        degrees.append(_degree(rem))
    return degrees


# --- interpolation factor search -------------------------------------------

_NODE_POOL = tuple(x for k in range(9) for x in ((k, -k) if k else (0,)))


def _newton_to_coeffs(newton: list[int], nodes: list[int]) -> list[int]:
    """Expand sum_i newton[i] * prod_{j<i}(x - nodes[j]) into a coefficient list."""
    poly = [0]
    basis = [1]
    for i, c in enumerate(newton):
        if len(poly) < len(basis):
            poly += [0] * (len(basis) - len(poly))
        for j, b in enumerate(basis):
            poly[j] += c * b
        if i < len(newton) - 1:
            basis = _poly_mul(basis, [-nodes[i], 1])
    return _trim(poly)


def _kronecker_factor(f: list[int], d: int) -> list[int] | None:
    """A monic degree-d divisor of f found by interpolation, or None.

    Candidate divisor values at d nodes run over the signed divisors of the
    f-evaluations there; Newton divided differences prune non-integral
    candidates level by level, the value at node d is forced by monicity,
    and every survivor is checked by exact division.  Exhaustive over all
    monic degree-d divisors, since such a divisor's value at each node must
    divide f there.
    """
    evals = sorted(((x, poly_eval(f, x)) for x in _NODE_POOL),
                   key=lambda xv: (abs(xv[1]), abs(xv[0])))
    nodes = [x for x, _ in evals[: d + 1]]
    values = [v for _, v in evals[: d + 1]]
    assert all(values), "integer roots must be removed before the factor search"
    choice_lists = []
    for v in values[:d]:
        signed: list[int] = []
        for q in positive_divisors(v):
            signed.append(q)
            signed.append(-q)
        choice_lists.append(signed)

    target_x, target_f = nodes[d], values[d]
    budget = _SEARCH_BUDGET
    found: list[int] | None = None

    def dfs(k: int, newton: list[int], diag: list[int]) -> None:
        nonlocal budget, found
        if found is not None:
            return
        if k == d:
            # monic leading coefficient 1 forces the value at the last node
            val, prod = 0, 1
            for i in range(d):
                val += newton[i] * prod
                prod *= target_x - nodes[i]
            val += prod
            if val == 0 or target_f % val != 0:
                return
            g = _newton_to_coeffs(newton + [1], nodes)
            quot, rem = _divmod_monic(f, g)
            if not rem and _degree(g) == d:
                found = g
            return
        for v in choice_lists[k]:
            budget -= 1
            if budget <= 0:
                raise RuntimeError("factor search budget exceeded")
            nd = [v]
            ok = True
            for i, prev in enumerate(diag):
                den = nodes[k] - nodes[k - 1 - i]
                num = nd[i] - prev
                if num % den != 0:
                    ok = False
                    break
                nd.append(num // den)
            if ok:
                dfs(k + 1, newton + [nd[-1]], nd)

    dfs(0, [], [])
    return found


def _validated(coeffs, degree_cap: int) -> list[int]:
    f = _trim(list(coeffs))
    if _degree(f) < 1:
        raise ValueError("irreducibility needs degree >= 1")
    if _degree(f) > degree_cap:
        raise ValueError(f"degree {_degree(f)} exceeds the cap {degree_cap}")
    if f[-1] != 1:
        raise ValueError("the oracle handles monic polynomials only")
    return f


def _integer_root_factor(f: list[int]) -> list[int] | None:
    """A linear factor x - r from the integer-root test (roots divide f(0))."""
    if f[0] == 0:
        return [0, 1]
    for r in positive_divisors(f[0]):
        if poly_eval(f, r) == 0:
            return [-r, 1]
        if poly_eval(f, -r) == 0:
            return [r, 1]
    return None


def _degree_filter(f: list[int], n: int) -> set[int]:
    """Factor degrees in 2..n//2 still possible after the mod-p degree scan.

    Empty means irreducible.  Conclusions drawn from primes only ever shrink
    the search or certify irreducibility, never assert reducibility.
    """
    allowed = set(range(2, n // 2 + 1))
    if not allowed:
        return allowed  # degree 2 or 3: any factor would be linear
    for p in _SMALL_PRIMES:
        degs = _mod_p_factor_degrees(f, p)
        if degs is None:
            continue
        if len(degs) == 1:
            return set()  # irreducible mod p, hence irreducible over Q
        sums = {0}
        for dgr in degs:
            sums |= {x + dgr for x in sums}
        allowed &= sums
        if not allowed:
            break
    return allowed


def find_factor(coeffs, degree_cap: int = DEFAULT_DEGREE_CAP) -> list[int] | None:
    """A proper monic factor of the polynomial, or None if it is irreducible."""
    f = _validated(coeffs, degree_cap)
    n = _degree(f)
    if n == 1:
        return None
    linear = _integer_root_factor(f)
    if linear is not None:
        return linear
    for d in sorted(_degree_filter(f, n)):
        g = _kronecker_factor(f, d)
        if g is not None:
            return g
    return None


def is_irreducible_exact(coeffs, degree_cap: int = DEFAULT_DEGREE_CAP) -> bool:
    """Exact irreducibility over the rationals for a monic integer polynomial."""
    return find_factor(coeffs, degree_cap) is None


@dataclass(frozen=True)
class CrossValidationReport:
    """Certificate-vs-oracle comparison over all words up to a length.

    `forbidden` lists words certified square-free whose polynomial the oracle
    nevertheless factored; it must be empty.  `unknown_irreducible` lists
    words with a square in the orbit that are irreducible anyway, which the
    one-sided certificate explicitly allows.
    """

    generator_cs: tuple[int, ...]
    max_len: int
    words_checked: int
    forbidden: tuple[tuple[int, ...], ...]
    unknown_irreducible: tuple[tuple[int, ...], ...]

    @property
    def passed(self) -> bool:
        return not self.forbidden


def cross_validate(
    gens: GeneratorSet,
    max_len: int,
    degree_cap: int = DEFAULT_DEGREE_CAP,
) -> CrossValidationReport:
    """Run both routes on every word of length 1..max_len and compare."""
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    if 2**max_len > degree_cap:
        raise ValueError(
            f"words of length {max_len} compose to degree {2**max_len}, "
            f"beyond the oracle cap {degree_cap}"
        )
    forbidden = []
    unknown_irreducible = []
    checked = 0
    for n in range(1, max_len + 1):
        for word in product(range(len(gens.maps)), repeat=n):
            checked += 1
            certified = stability_certificate(gens, word).certified
            irreducible = is_irreducible_exact(
                compose_word(gens, word), degree_cap=degree_cap
            )
            if certified and not irreducible:
                forbidden.append(word)
            elif not certified and irreducible:
                unknown_irreducible.append(word)
    return CrossValidationReport(
        generator_cs=gens.cs,
        max_len=max_len,
        words_checked=checked,
        forbidden=tuple(forbidden),
        unknown_irreducible=tuple(unknown_irreducible),
    )
