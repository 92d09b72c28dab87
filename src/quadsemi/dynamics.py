"""Composition words over generator sets of quadratic maps x^2 + c.

A word lists generator indices outermost first: word (i1, ..., in) denotes
the composition f_{i1} o ... o f_{in}, applied right to left.  The adjusted
critical orbit attached to that word is the integer sequence

    -f_{i1}(0),  f_{i1}(f_{i2}(0)),  ...,  f_{i1}(f_{i2}(... f_{in}(0)))

with one entry per letter.  If no entry is a perfect square, the composed
polynomial is irreducible over the rationals.  The converse does not hold,
so a word with a square in its orbit gets the verdict "unknown", never
"reducible".

Entries grow doubly exponentially (about 11,000 bits at length 12 with
|c| <= 50), so the certificate first evaluates each entry modulo the square
sieve's modulus M with small-integer arithmetic (`arith._SIEVE_MODULUS`).
A square is a square modulo every divisor of M, so an entry whose residue
fails a factor's quadratic-residue table is proved a nonsquare.  Only an
entry that passes every table is built exactly and tested with `isqrt`,
and every reported square and root comes from that exact entry.

Evaluating entry k alone takes k modular steps, because the new letter is
the innermost map.  The many-word paths share that work instead through one
level-order verdict table, `_verdict_levels`, which derives each word's last
residue from the residue of its inner suffix in one modular step.
`scan_words` walks its levels, `monte_carlo_stability` looks up every short
prefix in them, and `oracle.cross_validate` reads them through `scan_words`.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterator, Sequence

from .arith import _SIEVE_MODULUS, _passes_square_sieve, is_perfect_square

COMPOSE_DEGREE_CAP = 256  # largest degree compose_word builds
SCAN_BUDGET = 1 << 20  # most words scan_words visits
SCAN_LETTER_BUDGET = 19 * SCAN_BUDGET  # most letters in the words scan_words builds


@dataclass(frozen=True)
class QuadraticMap:
    """The map x -> x^2 + c with an exact integer constant."""

    c: int

    def __call__(self, x: int) -> int:
        return x * x + self.c

    def iterate(self, n: int, x: int) -> int:
        """n-fold application; n = 0 returns x unchanged."""
        if n < 0:
            raise ValueError("iteration count must be >= 0")
        c = self.c
        for _ in range(n):
            x = x * x + c
        return x

    def __str__(self) -> str:
        return f"x^2{self.c:+d}" if self.c else "x^2"


@dataclass(frozen=True)
class GeneratorSet:
    """An ordered tuple of quadratic maps with pairwise distinct constants."""

    maps: tuple[QuadraticMap, ...]

    def __post_init__(self) -> None:
        if not self.maps:
            raise ValueError("generator set must be nonempty")
        cs = [m.c for m in self.maps]
        if len(set(cs)) != len(cs):
            raise ValueError(f"generator constants must be distinct, got {cs}")

    @classmethod
    def from_cs(cls, cs: Sequence[int]) -> "GeneratorSet":
        return cls(tuple(QuadraticMap(c) for c in cs))

    @property
    def cs(self) -> tuple[int, ...]:
        return tuple(m.c for m in self.maps)

    def __len__(self) -> int:
        return len(self.maps)

    def __getitem__(self, i: int) -> QuadraticMap:
        return self.maps[i]


@dataclass(frozen=True)
class StabilityVerdict:
    """Outcome of the square-free-orbit certificate for one word.

    certified=True means every orbit entry is a nonsquare, which proves the
    composition irreducible.  certified=False records the first square found
    (1-based orbit position and its root) and proves nothing.
    """

    certified: bool
    first_square_index: int | None = None
    witness_root: int | None = None

    @property
    def status(self) -> str:
        return "certified-irreducible" if self.certified else "unknown"


_CERTIFIED = StabilityVerdict(True)


def _check_word(gens: GeneratorSet, word: Sequence[int]) -> None:
    if len(word) == 0:
        raise ValueError("word must be nonempty")
    k = len(gens.maps)
    for i in word:
        if not 0 <= i < k:
            raise ValueError(f"word index {i} out of range for {k} generators")


def _entry(cs: Sequence[int], word: Sequence[int], k: int, modulus: int = 0) -> int:
    """Orbit entry k (1-based) of `word`: exact, or reduced mod `modulus` if nonzero.

    Entry k depends only on the first k letters.  Mod `modulus` no
    intermediate value exceeds modulus**2.
    """
    if k == 1:
        v = -cs[word[0]]
        return v % modulus if modulus else v
    v = 0
    if modulus:
        for j in range(k - 1, -1, -1):
            v = (v * v + cs[word[j]]) % modulus
    else:
        for j in range(k - 1, -1, -1):
            v = v * v + cs[word[j]]
    return v


def _entry_root(cs: Sequence[int], word: Sequence[int], k: int) -> int | None:
    """Root of orbit entry k if that entry is a perfect square, else None.

    The sieve sees the entry mod M; only an entry that passes it is built
    exactly and tested with `is_perfect_square`.
    """
    if not _passes_square_sieve(_entry(cs, word, k, _SIEVE_MODULUS)):
        return None
    return is_perfect_square(_entry(cs, word, k))


def adjusted_critical_orbit(gens: GeneratorSet, word: Sequence[int]) -> list[int]:
    """The full orbit [-f1(0), f1(f2(0)), ..., f1(...fn(0))] for the word."""
    _check_word(gens, word)
    cs = gens.cs
    return [_entry(cs, word, k) for k in range(1, len(word) + 1)]


def stability_certificate(gens: GeneratorSet, word: Sequence[int]) -> StabilityVerdict:
    """Certify irreducibility of the composed word by scanning its orbit for squares.

    Each entry is sieved mod M first; a sieve rejection proves the entry a
    nonsquare, because a square stays a square modulo every divisor of M.
    Stops at the first perfect square; entries after it are never computed.
    """
    _check_word(gens, word)
    cs = gens.cs
    for k in range(1, len(word) + 1):
        r = _entry_root(cs, word, k)
        if r is not None:
            return StabilityVerdict(False, first_square_index=k, witness_root=r)
    return _CERTIFIED


def compose_word(gens: GeneratorSet, word: Sequence[int]) -> list[int]:
    """Exact coefficients (constant term first) of the composed polynomial.

    The result is monic of degree 2^len(word); words whose degree would
    exceed COMPOSE_DEGREE_CAP are rejected.
    """
    _check_word(gens, word)
    if 2 ** len(word) > COMPOSE_DEGREE_CAP:
        raise ValueError(
            f"composition degree 2^{len(word)} exceeds cap {COMPOSE_DEGREE_CAP}"
        )
    poly = [gens.maps[word[-1]].c, 0, 1]
    for i in reversed(word[:-1]):
        poly = _poly_square(poly)
        poly[0] += gens.maps[i].c
    return poly


def _poly_square(p: list[int]) -> list[int]:
    out = [0] * (2 * len(p) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(p):
            out[i + j] += a * b
    return out


def _verdict_levels(gens: GeneratorSet, max_len: int) -> Iterator[list[StabilityVerdict]]:
    """For k = 1..max_len, the verdicts of all s^k length-k words in index order.

    Index a length-k word in base s with its first letter w1 as the most
    significant digit, and let V_k[idx] be f_{w1}(...f_{wk}(0)) mod M.  The
    innermost letter is the last one, so V_k[idx] = V_{k-1}[idx mod s^(k-1)]^2
    + c_{w1}: one modular step per word gives the residue of its last orbit
    entry.  A word whose prefix (idx // s) already holds a square takes the
    prefix's verdict; any other word has its last entry sieved mod M, and only
    an entry that passes the sieve is built exactly, from the word decoded
    from idx, as in `stability_certificate`.  Square-free words share the
    `_CERTIFIED` verdict.  Only one residue level is kept from level to
    level; each yielded list holds one pointer per word.
    """
    s = len(gens.maps)
    cs = gens.cs
    modulus = _SIEVE_MODULUS
    verdicts = [_CERTIFIED]
    residues = [0]
    for k in range(1, max_len + 1):
        residues = [(v * v + c) % modulus for c in cs for v in residues]
        # entry 1 is -c_{w1}, the negated level-1 value
        entries = residues if k > 1 else [-v % modulus for v in residues]
        verdicts = [v for v in verdicts for _ in range(s)]  # each word's prefix
        for idx, v in enumerate(entries):
            if verdicts[idx] is _CERTIFIED and _passes_square_sieve(v):
                word = [idx // s**j % s for j in range(k - 1, -1, -1)]
                r = is_perfect_square(_entry(cs, word, k))
                if r is not None:
                    verdicts[idx] = StabilityVerdict(False, k, r)
        yield verdicts


def _check_scan_budget(s: int, max_len: int) -> None:
    """Reject a scan of s generators to max_len over SCAN_BUDGET or SCAN_LETTER_BUDGET.

    The scan builds every word as a tuple: sum s^k words holding sum k*s^k
    letters, k = 1..max_len.  With s >= 2 the word budget admits max_len <= 19
    only, so its letters are at most 19 * SCAN_BUDGET and the letter budget
    rejects nothing more; it bounds the one-generator scan, whose one word
    per length adds up to max_len * (max_len + 1) / 2 letters.
    """
    words = letters = 0
    size = 1
    for k in range(1, max_len + 1):
        size *= s
        words += size
        letters += k * size
        if words > SCAN_BUDGET:
            raise ValueError(f"a scan to length {max_len} visits more than "
                             f"{SCAN_BUDGET} words (the scan budget)")
    if letters > SCAN_LETTER_BUDGET:
        raise ValueError(f"a scan to length {max_len} builds more than "
                         f"{SCAN_LETTER_BUDGET} letters (the scan budget)")


def scan_words(
    gens: GeneratorSet, max_len: int
) -> list[tuple[tuple[int, ...], StabilityVerdict]]:
    """(word, verdict) for every word of length 1..max_len, in dictionary order.

    The verdicts come from `_verdict_levels`; the words are built during a
    preorder walk over its levels.  A scan over either budget
    (`_check_scan_budget`) is rejected before any work.
    """
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    s = len(gens.maps)
    _check_scan_budget(s, max_len)
    if max_len == 0:
        return []
    levels = list(_verdict_levels(gens, max_len))

    # dictionary order is the preorder walk of the tree of words
    out: list[tuple[tuple[int, ...], StabilityVerdict]] = []
    k, idx, word = 1, 0, (0,)
    while k:
        out.append((word, levels[k - 1][idx]))
        if k < max_len:
            k, idx, word = k + 1, idx * s, word + (0,)
            continue
        while k and idx % s == s - 1:
            k, idx, word = k - 1, idx // s, word[:-1]
        idx += 1
        word = word[:-1] + (idx % s,)
    return out


@dataclass(frozen=True)
class SequenceSampler:
    """Seeded sampler of random generator sequences.

    `weights` gives one positive weight per generator (normalized internally);
    `seed` selects the deterministic stream.  Trial i draws its letters from
    the stream keyed by (seed, i), so its letters depend on nothing else.
    """

    weights: tuple[float, ...]
    seed: int

    def __post_init__(self) -> None:
        if not self.weights:
            raise ValueError("sampler needs at least one weight")
        if not all(math.isfinite(w) and w > 0 for w in self.weights):
            raise ValueError(f"all weights must be positive and finite, got {self.weights}")

    @classmethod
    def uniform(cls, k: int, seed: int) -> "SequenceSampler":
        return cls((1.0,) * k, seed)

    def _cumulative(self) -> list[float]:
        total = float(sum(self.weights))
        acc, cum = 0.0, []
        for w in self.weights:
            acc += w / total
            cum.append(acc)
        cum[-1] = 1.0
        return cum


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_STREAM = 0xD1342543DE82EF95


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def monte_carlo_stability(
    gens: GeneratorSet,
    sampler: SequenceSampler,
    depth: int,
    trials: int,
) -> float:
    """Estimated probability that a random length-`depth` word has a square-free orbit.

    Returns (#square-free samples) / trials.  The estimate is reproducible:
    trial t draws its letters from the stream keyed by (sampler.seed, t), so
    the same seed gives the same value.  A trial draws its letters one at a
    time and stops at the first square entry, so letters after it are never
    drawn.

    Trials share their short prefixes, so those are looked up, not decided
    per trial: the memo is every level of `_verdict_levels` with s^k <=
    trials, indexed as there, at most about 2 * trials verdict pointers.
    Building it holds two residue levels at once; traced with tracemalloc,
    the peak was about 75 bytes per trial at {-14, 40}, depth 20, 4096
    trials, and 9.4 MiB at 200,000 trials.  Deeper entries are decided per
    trial.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if len(sampler.weights) != len(gens.maps):
        raise ValueError("sampler weight count must match the generator count")
    cum = sampler._cumulative()
    s = len(gens.maps)
    last = s - 1
    cs = gens.cs
    memo_depth, size = 0, s
    while memo_depth < depth and size <= trials:
        memo_depth += 1
        size *= s
    memo = list(_verdict_levels(gens, memo_depth))
    seed = sampler.seed
    hits = 0
    for t in range(trials):
        state = _mix64((seed ^ (t * _STREAM)) & _MASK64)
        word: list[int] = []
        idx = 0
        for k in range(1, depth + 1):
            state = (state + _GOLDEN) & _MASK64
            u = _mix64(state) / 18446744073709551616.0  # 2**64, can round to 1.0
            letter = min(bisect_right(cum, u), last)
            word.append(letter)
            if k <= memo_depth:
                idx = idx * s + letter
                if memo[k - 1][idx] is not _CERTIFIED:
                    break
            elif _entry_root(cs, word, k) is not None:
                break
        else:
            hits += 1
    return hits / trials
