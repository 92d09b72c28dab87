"""Exact irreducibility over Q for monic integer polynomials up to degree 32.

This is the independent cross-check for the orbit-based certificate, so it
shares no machinery with it.  The method is Zassenhaus's (von zur Gathen and
Gerhard, *Modern Computer Algebra*, ch. 14-15).  One pass over small primes
splits f mod p by degree: a prime where f stays irreducible certifies
irreducibility, and the factor degrees of every squarefree reduction prune
the degrees a factor over Q can have.  The pass stops once a subset search
would try no more subsets (at most 2^(r-1), for the odd prime with the
fewest factors r) than it has scanned squarefree odd primes.  The search
decides at any such prime, so stopping early changes the work, never the
verdict: a coarser degree filter only lets more subsets be tried.  If some
degree survives, the factors mod the odd prime with the fewest of them are
split into irreducibles (Cantor-Zassenhaus), Hensel-lifted to p^k above
twice the Mignotte bound, and products of subsets of at most half of them
are tried.  Reducibility is only ever concluded from a candidate that
divides f exactly over the integers.  A polynomial that is squarefree
modulo no prime is not squarefree, and its factor is gcd(f, f'), found
without primes.

Polynomials are coefficient lists, constant term first.  The powers mod p
that both splits take (x^(p^d) mod f, and a^((p^d-1)/2) mod g) run in
`_PackedRing`, where a residue mod f of degree n is one integer with its n
coefficients in w-bit slots.  A product is one big-integer product, and two
more reduce it mod f; a Barrett step reduces every slot mod p at once.  The
width rule: no slot value exceeds n*(p-1)^2, so s is the bit length of
(n*(p-1)^2 + 1)*p and w that of (n*(p-1)^2 + 1)*ceil(2^s / p), which keeps
both the products and the Barrett step exact at every degree and prime.
"""

from __future__ import annotations

import random
from contextvars import ContextVar
from itertools import combinations, product
from math import gcd, isqrt
from typing import NamedTuple

from .dynamics import GeneratorSet, compose_word, join_certified_words

ORACLE_DEGREE_CAP = 32  # largest degree the oracle accepts
_SPLIT_DRAWS = 256  # most random draws one equal-degree split makes

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)

COUNTER_NAMES = ("primes_scanned", "factor_searches", "modular_factors_max",
                 "subsets_tried", "exact_divisions")

# work counters of the searches run inside cross_validate; None elsewhere
_counters: ContextVar[dict[str, int] | None] = ContextVar("oracle_counters", default=None)


def _trim(coeffs: list[int]) -> list[int]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _degree(f: list[int]) -> int:
    return len(f) - 1


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


# --- arithmetic in (Z/m)[x]: coefficients in [0, m), trimmed ---------------
# m is a prime p for the splitting steps and a power of p for Hensel lifting;
# divisors are monic or have a leading coefficient prime to p.

def _m_mul(a: list[int], b: list[int], m: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _trim([c % m for c in out])


def _m_sub(a: list[int], b: list[int], m: int) -> list[int]:
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] -= c
    return _trim([c % m for c in out])


def _m_add(a: list[int], b: list[int], m: int) -> list[int]:
    return _m_sub(a, [-c for c in b], m)


def _m_divmod(a: list[int], b: list[int], m: int) -> tuple[list[int], list[int]]:
    rem = list(a)
    db = _degree(b)
    inv = pow(b[-1], -1, m)
    quot = [0] * max(len(a) - db, 1)
    for k in range(len(rem) - 1, db - 1, -1):
        c = rem[k] * inv % m
        if c:
            off = k - db
            quot[off] = c
            for j in range(db):  # the b[db] term cancels rem[k] mod m
                rem[off + j] -= c * b[j]
    return _trim(quot), _trim([c % m for c in rem[:db]])


def _p_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """The monic gcd over GF(p) ([] if both are zero).

    Euclid's remainder sequence with no quotient: each divisor is made monic
    with one inverse, and the remainder by it is left unreduced until it is
    made monic in turn.
    """
    if not b:
        a, b = b, a
    a = list(a)
    while b:
        inv = pow(b[-1], -1, p)
        b = [c * inv % p for c in b]
        db = len(b) - 1
        for k in range(len(a) - 1, db - 1, -1):
            c = a[k] % p
            if c:
                off = k - db
                for j in range(db):  # the b[db] = 1 term cancels a[k] mod p
                    a[off + j] -= c * b[j]
        a, b = b, a[:db]
        while b and b[-1] % p == 0:
            b.pop()
    return a


def _p_xgcd(g: list[int], h: list[int], p: int) -> tuple[list[int], list[int]]:
    """s, t with s*g + t*h = 1 over GF(p), deg s < deg h, deg t < deg g (g, h coprime)."""
    r0, r1, s0, s1, t0, t1 = g, h, [1], [], [], [1]
    while r1:
        q, r = _m_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _m_sub(s0, _m_mul(q, s1, p), p)
        t0, t1 = t1, _m_sub(t0, _m_mul(q, t1, p), p)
    inv = pow(r0[0], -1, p)
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


class _PackedRing:
    """GF(p)[x]/(f) for a monic f of degree n >= 2, each residue packed into one int.

    Coefficient i of a residue, in [0, p), sits in the w-bit slot at bit w*i,
    so a product of two residues is one big-int product (Kronecker
    substitution, von zur Gathen and Gerhard, section 8.4).  Its slots are
    reduced mod p all at once by a Barrett step, and the product mod f by
    the precomputed quotient G = floor(x^(2n-2) / f) (section 9.1): for c
    of degree at most 2n-2, the quotient floor(c / f) is the top n-1
    coefficients of floor(c / x^n) * G, and c - q*f mod x^n is c plus
    q * sum((-f_i mod p) x^i), so no slot goes negative.
    """

    __slots__ = ("modulus", "p", "n", "w", "s", "mu", "quot_mask", "low", "g", "neg_f",
                 "hi_shift", "q_shift")

    def __init__(self, f: list[int], p: int):
        n = _degree(f)
        # The width rule.  Every slot the ring forms is a sum of at most n
        # products of two coefficients in [0, p), so below top = n*(p-1)^2 + 1.
        # The Barrett quotient floor(v*mu / 2^s), mu = ceil(2^s / p), is
        # floor(v / p) for every v < 2^s / p, so s is the bit length of
        # top*p.  v*mu then stays below top*mu < 2^w, so a slot holds it
        # without a carry into the next, and floor(v*mu / 2^s) < 2^(w-s)
        # is read from the slot's top w - s bits.
        top = n * (p - 1) ** 2 + 1
        s = (top * p).bit_length()
        mu = -(-(1 << s) // p)
        w = (top * mu).bit_length()
        self.modulus, self.p, self.n, self.w, self.s, self.mu = f, p, n, w, s, mu
        ones = ((1 << w * (2 * n - 1)) - 1) // ((1 << w) - 1)  # 1 in each of 2n-1 slots
        self.quot_mask = ones * ((1 << (w - s)) - 1)
        self.low = (1 << w * n) - 1
        self.hi_shift, self.q_shift = w * n, w * (n - 2)
        self.g = self.pack(_m_divmod([0] * (2 * n - 2) + [1], f, p)[0])
        self.neg_f = self.pack([-c % p for c in f[:n]])

    def pack(self, a: list[int]) -> int:
        return sum(c << self.w * i for i, c in enumerate(a))

    def unpack(self, v: int) -> list[int]:
        slot = (1 << self.w) - 1
        return _trim([v >> self.w * i & slot for i in range(self.n)])

    def reduce_slots(self, v: int) -> int:
        """Every slot of v mod p (Barrett): at most 2n-1 slots, each at most n*(p-1)^2."""
        return v - (v * self.mu >> self.s & self.quot_mask) * self.p

    def mul(self, a: int, b: int) -> int:
        c = self.reduce_slots(a * b)
        q = self.reduce_slots((c >> self.hi_shift) * self.g >> self.q_shift)
        return self.reduce_slots((c + q * self.neg_f) & self.low)


def _m_powmod(base: list[int], e: int, ring: _PackedRing) -> list[int]:
    """base^e mod the ring's modulus over GF(p), for any integer polynomial base.

    Left-to-right binary powering on packed residues: a squaring per bit of
    e after the first, and a product by the base per set bit.
    """
    b = ring.pack(_m_divmod(base, ring.modulus, ring.p)[1])
    r = b if e else 1  # the leading bit of e
    for bit in bin(e)[3:]:
        r = ring.mul(r, r)
        if bit == "1":
            r = ring.mul(r, b)
    return ring.unpack(r)


# --- factoring mod p --------------------------------------------------------

def _distinct_degree_split(f: list[int], p: int) -> list[tuple[int, list[int]]] | None:
    """[(d, product of the degree-d irreducible factors of f mod p)], or None.

    None means f is not squarefree mod p (p divides the discriminant); the
    split is only valid, and only computed, for a squarefree reduction.
    """
    fp = [c % p for c in f]
    deriv = _trim([i * c % p for i, c in enumerate(fp)][1:])
    if _degree(_p_gcd(fp, deriv, p)) != 0:
        return None
    split = []
    rem, h, d, ring = fp, [0, 1], 0, None
    while _degree(rem) >= 2 * (d + 1):
        d += 1
        if ring is None:
            ring = _PackedRing(rem, p)
        h = _m_powmod(h, p, ring)  # x^(p^d) mod rem
        g = _p_gcd(_m_sub(h, [0, 1], p), rem, p)
        if _degree(g) > 0:
            split.append((d, g))
            rem = _m_divmod(rem, g, p)[0]
            h = _m_divmod(h, rem, p)[1]
            ring = None
    if _degree(rem) > 0:
        split.append((_degree(rem), rem))
    return split


def _equal_degree_split(g: list[int], d: int, p: int, rng: random.Random) -> list[list[int]]:
    """The monic irreducible factors of g mod an odd p, all of degree d (Cantor-Zassenhaus).

    A draw splits two or more factors with probability at least 4/9 (the
    least, at p = 3 and d = 1), so _SPLIT_DRAWS failed draws mean a defect
    in the powering or the gcd, not chance, and raise an ArithmeticError.
    """
    n = _degree(g)
    if n == d:
        return [g]
    e = (p**d - 1) // 2
    ring = _PackedRing(g, p)
    for _ in range(_SPLIT_DRAWS):
        a = _trim([rng.randrange(p) for _ in range(n)])
        if _degree(a) < 1:
            continue
        h = _p_gcd(_m_sub(_m_powmod(a, e, ring), [1], p), g, p)
        if 0 < _degree(h) < n:
            return (_equal_degree_split(h, d, p, rng)
                    + _equal_degree_split(_m_divmod(g, h, p)[0], d, p, rng))
    raise ArithmeticError(f"no split of a degree-{n} product of degree-{d} factors "
                          f"mod {p} in {_SPLIT_DRAWS} draws")


def _prime_scan(f: list[int], counters: dict[str, int]
                ) -> tuple[set[int], tuple[int, list] | None]:
    """Possible factor degrees in 1..n//2, and the odd prime with the fewest factors.

    Empty degrees means irreducible.  Each squarefree reduction mod a small
    prime limits a factor's degree to the sums of its factor degrees; one
    irreducible reduction certifies irreducibility.  Primes only ever shrink
    the search or certify irreducibility, never assert reducibility.  The
    prime comes with its distinct-degree split, or is None when f is
    squarefree modulo no odd small prime.

    The scan stops once 2^(r-1) <= g, where r is the fewest factors at a
    squarefree odd prime so far and g the number of such primes scanned
    (p = 2 prunes degrees but is not counted, as it is never chosen):
    a search over the r factors then tries no more subsets than the scan
    has spent primes.  The degrees the scanned primes allow still hold
    every factor's degree, and Zassenhaus's search is exhaustive at any
    squarefree odd prime, so stopping early changes the work, never the
    verdict.  With 24 odd primes, only r <= 5 stops early.
    """
    n = _degree(f)
    allowed = set(range(1, n // 2 + 1))
    best, fewest, scanned = None, n + 1, 0
    for p in _SMALL_PRIMES:
        split = _distinct_degree_split(f, p)
        if split is None:
            continue
        counters["primes_scanned"] += 1
        degs = [d for d, g in split for _ in range(_degree(g) // d)]
        if len(degs) == 1:
            return set(), None  # irreducible mod p, hence irreducible over Q
        sums = {0}
        for dgr in degs:
            sums |= {x + dgr for x in sums}
        allowed &= sums
        if not allowed:
            return allowed, None
        if p > 2:
            scanned += 1
            if len(degs) < fewest:
                best, fewest = (p, split), len(degs)
            if 2 ** (fewest - 1) <= scanned:
                break
    return allowed, best


def _next_good_prime(f: list[int]) -> tuple[int, list]:
    """The first prime above the small ones modulo which f is squarefree.

    It exists when f is squarefree over Q: only the finitely many primes
    dividing the discriminant are bad.
    """
    p = _SMALL_PRIMES[-1]
    while True:
        p += 2
        if all(p % q for q in range(3, isqrt(p) + 1, 2)):
            split = _distinct_degree_split(f, p)
            if split is not None:
                return p, split


# --- over the integers ------------------------------------------------------

def _primitive(f: list[int]) -> list[int]:
    c = gcd(*f)
    if f[-1] < 0:
        c = -c
    return [a // c for a in f]


def _repeated_factor(f: list[int], counters: dict[str, int]) -> list[int] | None:
    """The monic gcd(f, f') when it is not constant, else None.

    A primitive remainder sequence keeps every step in the integers.  The
    monic gcd of a monic integer f has integer coefficients (Gauss), so the
    primitive gcd with positive leading coefficient is it.
    """
    a, b = f, _primitive([i * c for i, c in enumerate(f)][1:])
    while b:
        rem, lb = list(a), b[-1]
        while len(rem) >= len(b):  # pseudo-remainder of a by b
            lr, off = rem[-1], len(rem) - len(b)
            rem = [lb * c for c in rem]
            for j, bj in enumerate(b):
                rem[off + j] -= lr * bj
            _trim(rem)
        a, b = b, (_primitive(rem) if rem else [])
    a = _primitive(a)
    if _degree(a) == 0:
        return None
    counters["exact_divisions"] += 1
    if _divmod_monic(f, a)[1]:
        raise ArithmeticError("gcd(f, f') does not divide f")
    return a


def _hensel_pair(f, g, h, p: int, pk: int) -> tuple[list[int], list[int]]:
    """Lift f = g*h mod p, with g, h monic and coprime mod p, to f = g*h mod pk.

    Quadratic Hensel steps (von zur Gathen and Gerhard, Algorithm 15.10);
    pk is a power of p and each step's modulus divides the square of the last.
    """
    s, t = _p_xgcd(g, h, p)
    m = p
    while m < pk:
        m = min(m * m, pk)
        e = _m_sub(f, _m_mul(g, h, m), m)
        q, r = _m_divmod(_m_mul(s, e, m), h, m)
        g = _m_add(g, _m_add(_m_mul(t, e, m), _m_mul(q, g, m), m), m)
        h = _m_add(h, r, m)
        if m < pk:  # s and t are needed for the next step only
            b = _m_sub(_m_add(_m_mul(s, g, m), _m_mul(t, h, m), m), [1], m)
            c, d = _m_divmod(_m_mul(s, b, m), h, m)
            s = _m_sub(s, d, m)
            t = _m_sub(t, _m_add(_m_mul(t, b, m), _m_mul(c, g, m), m), m)
    return g, h


def _hensel_lift(f: list[int], factors: list[list[int]], p: int, pk: int) -> list[list[int]]:
    """Monic lifts mod pk of the pairwise coprime monic factors of f mod p, in order."""
    if len(factors) == 1:
        return [[c % pk for c in f]]
    half = len(factors) // 2
    g, h = [1], [1]
    for u in factors[:half]:
        g = _m_mul(g, u, p)
    for u in factors[half:]:
        h = _m_mul(h, u, p)
    g, h = _hensel_pair(f, g, h, p, pk)
    return _hensel_lift(g, factors[:half], p, pk) + _hensel_lift(h, factors[half:], p, pk)


def _zassenhaus(f: list[int], allowed: set[int], p: int, split: list,
                counters: dict[str, int]) -> list[int] | None:
    """A monic factor of f whose degree (or its cofactor's) is in allowed, or None.

    f is squarefree mod the odd prime p, with distinct-degree split `split`.
    Exhaustive: a factor and its cofactor split the r modular factors between
    them, so one takes at most r/2 of them, and the product of their lifts,
    reduced into (-p^k/2, p^k/2], is that factor itself, because its
    coefficients are below the Mignotte bound 2^n * ||f||_2.
    """
    n = _degree(f)
    rng = random.Random(p)
    factors = [u for d, g in split for u in _equal_degree_split(g, d, p, rng)]
    r = len(factors)
    counters["modular_factors_max"] = max(counters["modular_factors_max"], r)
    bound = 2 * 2**n * (isqrt(sum(c * c for c in f)) + 1)
    pk = p
    while pk <= bound:
        pk *= p
    lifted = _hensel_lift(f, factors, p, pk)
    half = pk // 2
    f0 = f[0]
    for size in range(1, r // 2 + 1):
        for subset in combinations(range(r), size):
            if 2 * size == r and subset[0] != 0:
                break  # the rest are complements of subsets already tried
            d = sum(_degree(lifted[i]) for i in subset)
            if min(d, n - d) not in allowed:
                continue
            counters["subsets_tried"] += 1
            c0 = 1
            for i in subset:
                c0 = c0 * lifted[i][0] % pk
            if c0 > half:
                c0 -= pk
            if (f0 % c0 if c0 else f0) != 0:
                continue  # a factor's constant term divides f(0)
            g = [1]
            for i in subset:
                g = _m_mul(g, lifted[i], pk)
            g = [c - pk if c > half else c for c in g]
            counters["exact_divisions"] += 1
            if not _divmod_monic(f, g)[1]:
                return g
    return None


def _validated(coeffs) -> list[int]:
    f = list(coeffs)
    for i, c in enumerate(f):
        if not isinstance(c, int):
            raise ValueError(f"coefficient {i} is {c!r}, not an int")
    _trim(f)
    if _degree(f) < 1:
        raise ValueError("irreducibility needs degree >= 1")
    if _degree(f) > ORACLE_DEGREE_CAP:
        raise ValueError(f"degree {_degree(f)} exceeds the cap {ORACLE_DEGREE_CAP}")
    if f[-1] != 1:
        raise ValueError("the oracle handles monic polynomials only")
    return f


def find_factor(coeffs) -> list[int] | None:
    """A proper monic factor of the polynomial, or None if it is irreducible.

    The polynomial is a monic integer coefficient list, constant term first,
    of degree at most ORACLE_DEGREE_CAP.  A returned factor always divides it
    exactly; None comes from an irreducible reduction mod a prime, from
    mod-p degrees that no factor can have, or from an exhaustive Zassenhaus
    search that found none.  Runs are deterministic.
    """
    f = _validated(coeffs)
    counters = _counters.get()
    if counters is None:
        counters = dict.fromkeys(COUNTER_NAMES, 0)
    allowed, chosen = _prime_scan(f, counters)
    if not allowed:
        return None
    counters["factor_searches"] += 1
    if chosen is None:  # f is squarefree modulo no odd small prime
        g = _repeated_factor(f, counters)
        if g is not None:
            return g
        chosen = _next_good_prime(f)
    return _zassenhaus(f, allowed, *chosen, counters)


def is_irreducible_exact(coeffs) -> bool:
    """Exact irreducibility over the rationals for a monic integer polynomial.

    The degree must lie in 1..ORACLE_DEGREE_CAP, as for `find_factor`.
    """
    return find_factor(coeffs) is None


class CrossValidationReport(NamedTuple):
    """Certificate-vs-oracle comparison over all words up to a length.

    `forbidden` lists words certified square-free whose polynomial the oracle
    nevertheless factored; it must be empty.  `unknown_irreducible` lists
    words with a square in the orbit that are irreducible anyway, which the
    one-sided certificate explicitly allows.  `counters` holds the oracle's
    work over the run, keyed by COUNTER_NAMES: squarefree reductions scanned,
    words its degree filter left open, the most modular factors at a chosen
    prime, subsets tried and exact divisions.  They repeat exactly between
    runs.
    """

    generator_cs: tuple[int, ...]
    max_len: int
    words_checked: int
    forbidden: tuple[tuple[int, ...], ...]
    unknown_irreducible: tuple[tuple[int, ...], ...]
    counters: dict[str, int]

    @property
    def passed(self) -> bool:
        return not self.forbidden


def cross_validate(gens: GeneratorSet, max_len: int) -> CrossValidationReport:
    """Run both routes on every word of length 1..max_len and compare.

    The orbit certificate's verdicts are read from `join_certified_words`,
    the certified-word list that `scan-words` prints, so a set over
    SCAN_BUDGET words is rejected before any oracle call.  Every word, by
    length and then in dictionary order, then goes to the exact oracle,
    whose Zassenhaus search always decides, so every word gets both
    verdicts.  Words compose to degree 2^max_len, which must not exceed
    ORACLE_DEGREE_CAP (32, so max_len <= 5).
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    if 2**max_len > ORACLE_DEGREE_CAP:
        raise ValueError(
            f"words of length {max_len} compose to degree {2**max_len}, "
            f"beyond the oracle cap {ORACLE_DEGREE_CAP}"
        )
    letters = range(len(gens.maps))
    text = join_certified_words(gens, max_len, [str(p) for p in letters],
                                [f",{p}" for p in letters], "\n")
    certified = {tuple(map(int, line.split(","))) for line in text.splitlines()}
    words = [w for n in range(1, max_len + 1) for w in product(letters, repeat=n)]
    forbidden, unknown_irreducible = [], []
    counters = dict.fromkeys(COUNTER_NAMES, 0)
    token = _counters.set(counters)
    try:
        for word in words:
            irreducible = is_irreducible_exact(compose_word(gens, word))
            if word in certified and not irreducible:
                forbidden.append(word)
            elif word not in certified and irreducible:
                unknown_irreducible.append(word)
    finally:
        _counters.reset(token)
    return CrossValidationReport(
        generator_cs=gens.cs,
        max_len=max_len,
        words_checked=len(words),
        forbidden=tuple(forbidden),
        unknown_irreducible=tuple(unknown_irreducible),
        counters=counters,
    )
