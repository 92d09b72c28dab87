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
|c| <= 50), yet every square entry is small, and the words whose orbit
meets one are read by a finite automaton that builds no entry.  Write a
word as (p1, p2, p3, ..., pj) and let v = f_{p3}(...f_{pj}(0)), with v = 0
for j = 2.  Entry j is f_{p1}(f_{p2}(v)), a square exactly when v is the
X-coordinate of an integral point on the curve

    Y^2 = (X^2 + c2)^2 + c1,    c1 = c_{p1}, c2 = c_{p2}.

With c1 = 0 entry 1, which is -c1, is already the square 0.  Otherwise
(Y - U)(Y + U) = c1 with U = X^2 + c2 and |Y| != |U|, so |c1| >= 2|U| - 1
and X^2 <= (|c1| + 1)/2 + |c2|.  Let C = max |c| and take an escape radius
R with R(R - 1) > C and R^2 >= 2C + 1.  Then every point has |X| <= R, and
|x| > R gives |x^2 + c| > |x|: a value that leaves [-R, R] never returns.
So an inner value v that lies on the curve lies in B, the set of integers
reached from 0 by chains of the maps that stay inside [-R, R].  B is small
(at most 10 elements over 3,000 random sets of up to 4 constants with |c|
up to 10^12), and it is listed directly; the curve's points are never
enumerated, which would take about sqrt(C) steps.

The automaton reads a word outermost letter first.  After p1, with entry
1 a nonsquare, its state is the set Q(c1) of the values u = v^2 + c (v in
B, c a constant) with u^2 + c1 a square, and each further letter p maps a
value set X to {y in B : y^2 + c_p in X}.  So after p2 it is S_2 = {v in B :
(v^2 + c2)^2 + c1 a square}.  By induction on j, a y in B lies in S_j
exactly when f_{p3}(...f_{pj}(y)) lies on the curve: if f_{pj}(y) stays
inside [-R, R] it lies in B, and if not, no later value is a point.  So
entry j is a square exactly when S_j holds 0.  That state is the absorbing
dead state; the empty set is absorbing too and certifies every longer word.
Q(c1) holds 0 when c1 is a nonzero square, yet entry 1 is -c1, not c1, so
its state is keyed by c1 and stays live.  Every later state is a subset of
B, so only a few occur.

`OrbitAutomaton` holds the transition table and builds each state's row
whole, on its first use, from one pass over B and the state's values.
`stability_certificate` steps it once per letter, and only a word that
dies builds an exact entry: the one square entry, for its root.
`monte_carlo_stability` steps it once per drawn letter, and draws the
letters of 1,024 trials at a time, as packed 64-bit lanes of one int.
Two readers build no word at all, since a word's certified extensions
depend only on its state and the letters left: `certified_counts` counts
the words reaching each state, length by length, and
`join_certified_words` builds one text per (state, letters left).  The
`scan-words` command lends both one automaton, so each row is built once,
and `oracle.cross_validate` checks the very text that command prints.
"""

from __future__ import annotations

import math
import sys
from array import array
from bisect import bisect_left, bisect_right
from typing import Iterator, NamedTuple, Sequence

from .arith import is_perfect_square

COMPOSE_DEGREE_CAP = 256  # largest degree compose_word builds
SCAN_BUDGET = 1 << 20  # most words join_certified_words visits
SCAN_LETTER_BUDGET = 19 * SCAN_BUDGET  # most letters in the words a scan builds


class QuadraticMap(NamedTuple):
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


class GeneratorSet:
    """An ordered tuple of quadratic maps with pairwise distinct constants.

    Frozen, compared and hashed by `maps`.  Not a NamedTuple: `len` and
    indexing run over the maps, not over the record's fields.
    """

    __slots__ = ("maps", "cs")

    def __init__(self, maps: tuple[QuadraticMap, ...]) -> None:
        if not maps:
            raise ValueError("generator set must be nonempty")
        cs = tuple(m.c for m in maps)
        if len(set(cs)) != len(cs):
            raise ValueError(f"generator constants must be distinct, got {list(cs)}")
        object.__setattr__(self, "maps", maps)
        object.__setattr__(self, "cs", cs)  # the constants, in the maps' order

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle rebuild it through __init__
        return type(self), (self.maps,)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.maps == other.maps
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.maps,))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(maps={self.maps!r})"

    @classmethod
    def from_cs(cls, cs: Sequence[int]) -> "GeneratorSet":
        return cls(tuple(QuadraticMap(c) for c in cs))

    def __len__(self) -> int:
        return len(self.maps)

    def __getitem__(self, i: int) -> QuadraticMap:
        return self.maps[i]


class StabilityVerdict(NamedTuple):
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


def _entry(cs: Sequence[int], word: Sequence[int], k: int) -> int:
    """Exact orbit entry k (1-based) of `word`; it depends only on the first k letters."""
    if k == 1:
        return -cs[word[0]]
    v = 0
    for j in range(k - 1, -1, -1):
        v = v * v + cs[word[j]]
    return v


_DEAD, _FREE, _START = 0, 1, 2  # ids of the fixed automaton states


def _escape_radius(cs: Sequence[int]) -> int:
    """R with R(R - 1) > max|c| and R^2 >= 2 max|c| + 1 (see the module docstring)."""
    big = max(abs(c) for c in cs)
    return max((1 + math.isqrt(1 + 4 * big)) // 2 + 1, math.isqrt(2 * big + 1) + 2)


def _bounded_reach(cs: Sequence[int], radius: int) -> frozenset[int]:
    """B: the integers reached from 0 by chains of x -> x^2 + c inside [-radius, radius]."""
    ordered = sorted(cs)
    reach = {0}
    todo = [0]
    while todo:
        sq = todo.pop() ** 2
        # x^2 + c lies in [-radius, radius] exactly for c in [-radius - sq, radius - sq]
        lo = bisect_left(ordered, -radius - sq)
        for c in ordered[lo:bisect_right(ordered, radius - sq, lo)]:
            y = sq + c
            if y not in reach:
                reach.add(y)
                todo.append(y)
    return frozenset(reach)


class OrbitAutomaton:
    """The orbit automaton of a generator tuple (module docstring), filled on demand.

    States have integer ids: _DEAD (an entry so far is a square), _FREE (the
    empty set: no later entry can be a square), _START, and then, in order
    of discovery, the first-letter states, keyed by their constant c1 and
    standing for Q(c1), and the nonempty subsets S of B.  `trans[state]` is
    the state's row, the next state's id for every letter, or None until
    `row` first builds it, so only the rows of states a caller reaches are
    ever built.  A scan of one-letter words over s generators builds the
    start row alone: s square tests, and neither B nor any Q(c1) is listed.
    One automaton lent to `certified_counts` and `join_certified_words`, as
    their `automaton` keyword, builds each row once for both.
    """

    def __init__(self, cs: Sequence[int]) -> None:
        self.cs = tuple(cs)
        s = len(self.cs)
        self.trans: list[list[int] | None] = [[_DEAD] * s, [_FREE] * s, None]
        self.keys: list[object] = [None, frozenset(), None]
        self.ids: dict[object, int] = {}
        self._reach: frozenset[int] | None = None  # B, built on first use
        self._sorted_cs = sorted(self.cs)

    def _id(self, key: object) -> int:
        if isinstance(key, frozenset):
            if 0 in key:
                return _DEAD
            if not key:
                return _FREE
        state = self.ids.get(key)
        if state is None:
            state = self.ids[key] = len(self.keys)
            self.keys.append(key)
            self.trans.append(None)
        return state

    def _square_values(self, c1: int) -> frozenset[int]:
        """Q(c1), c1 != 0: the u = v^2 + c (v in B, c a constant) with u^2 + c1 a square.

        Every point of Y^2 = U^2 + c1 has |U| <= (|c1| + 1) // 2, so each v^2
        meets one window of constants; each u is tested once.
        """
        if self._reach is None:
            self._reach = _bounded_reach(self.cs, _escape_radius(self.cs))
        half, ordered = (abs(c1) + 1) // 2, self._sorted_cs
        candidates = {sq + c for sq in {v * v for v in self._reach}
                      for c in ordered[bisect_left(ordered, -half - sq):
                                       bisect_right(ordered, half - sq)]}
        return frozenset(u for u in candidates if is_perfect_square(u * u + c1) is not None)

    def row(self, state: int) -> list[int]:
        """The next state's id for every letter read in `state`; built once, whole."""
        row = self.trans[state]
        if row is None:
            key, cs = self.keys[state], self.cs
            if state == _START:
                row = [_DEAD if is_perfect_square(-c) is not None else self._id(c) for c in cs]
            else:  # letter c sends the values X to {v in B : v^2 + c in X}
                values = self._square_values(key) if isinstance(key, int) else key
                hits: dict[int, list[int]] = {}
                for v in self._reach:
                    sq = v * v
                    for x in values:
                        hits.setdefault(x - sq, []).append(v)
                row = [self._id(frozenset(hits.get(c, ()))) for c in cs]
            self.trans[state] = row
        return row

    def step(self, state: int, letter: int) -> int:
        """The state after reading `letter` in `state`."""
        return self.row(state)[letter]


def _automaton_of(gens: GeneratorSet, automaton: OrbitAutomaton | None) -> OrbitAutomaton:
    """`automaton`, checked to be that of gens' constants, or a new one."""
    if automaton is None:
        return OrbitAutomaton(gens.cs)
    if automaton.cs != gens.cs:
        raise ValueError("the automaton belongs to other generator constants")
    return automaton


def orbit_entries(gens: GeneratorSet, word: Sequence[int]) -> Iterator[int]:
    """The adjusted critical orbit -f1(0), f1(f2(0)), ..., f1(...fn(0)) of the word.

    Each entry is built when it is asked for.  The word is checked at once; a
    caller that stops early builds no later entry.
    """
    _check_word(gens, word)
    cs = gens.cs
    return (_entry(cs, word, k) for k in range(1, len(word) + 1))


def stability_certificate(gens: GeneratorSet, word: Sequence[int]) -> StabilityVerdict:
    """Certify irreducibility of the composed word by scanning its orbit for squares.

    The orbit automaton reads one letter per entry and stops at the first
    square entry, the only entry built exactly (for its root), or at the
    empty state, which certifies the rest of the word.
    """
    _check_word(gens, word)
    automaton = OrbitAutomaton(gens.cs)
    state = _START
    for k, letter in enumerate(word, start=1):
        state = automaton.step(state, letter)
        if state == _DEAD:
            return StabilityVerdict(False, k, is_perfect_square(_entry(gens.cs, word, k)))
        if state == _FREE:
            break
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


def check_scan_budget(s: int, max_len: int) -> int:
    """sum s^k, k = 1..max_len: the words a scan of s generators visits.

    A negative max_len, or a scan over SCAN_BUDGET or SCAN_LETTER_BUDGET, is
    rejected instead.  A scan that certifies every word writes them all as
    text: sum s^k words holding sum k*s^k letters.  With s >= 2 the word
    budget admits max_len <= 19 only, so its letters are at most 19 *
    SCAN_BUDGET and the letter budget rejects nothing more; it bounds the
    one-generator scan, whose one word per length adds up to max_len *
    (max_len + 1) / 2 letters.
    """
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
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
    return words


_MARK = "\x00"  # a word's start in the templates of join_certified_words


def join_certified_words(
    gens: GeneratorSet, max_len: int, heads: Sequence[str], tails: Sequence[str], sep: str,
    *, automaton: OrbitAutomaton | None = None,
) -> str:
    """The certified words of length 1..max_len as one text, in dictionary order.

    Word (p1, p2, ..., pn) is written heads[p1] + tails[p2] + ... + tails[pn]
    and the words are joined by sep.  A scan over either budget
    (`check_scan_budget`) is rejected before any work.  heads and tails
    hold one piece per generator, and no piece, sep included, may hold a
    NUL: either is rejected with a ValueError.

    The certified words below a word depend only on its automaton state and
    the letters left, so the texts below each such node are built once, as
    one template: a NUL before each word's suffix text, in dictionary order.
    A node's template joins, letter by letter, each live child's NUL and
    piece, then the child's template with every NUL followed by that piece.
    The text is the start's, with sep and the heads in place of NUL and the
    tails; past the node work it is built by `str.replace` and `str.join`.
    The templates are released before that last join.  `automaton`, as in
    `certified_counts`, lends its rows.
    """
    s = len(gens.maps)
    check_scan_budget(s, max_len)
    if len(heads) != s or len(tails) != s:
        raise ValueError(f"heads and tails need one piece per generator ({s}), "
                         f"got {len(heads)} and {len(tails)}")
    if any(_MARK in piece for piece in (sep, *heads, *tails)):
        raise ValueError("no piece of the text may hold a NUL")
    automaton = _automaton_of(gens, automaton)
    trans, row = automaton.trans, automaton.row
    if s == 1:
        # A node's template holds the text of every word below it, so each
        # character is copied once per level above it.  With s >= 2 the word
        # budget keeps max_len <= 19: at most 19 copies.  One generator has
        # one word per length, to L = 6311 under the letter budget, and its
        # templates would copy O(L^3) characters and recurse L deep; one
        # string step per word keeps this chain linear in its text.
        state, text, texts = _START, heads[0], []
        while len(texts) < max_len:
            state = automaton.step(state, 0)
            if state == _DEAD:
                break
            texts.append(text)
            text += tails[0]
        return sep.join(texts)
    memo: dict[tuple[int, int], str] = {}

    def spread(state: int, left: int, mark: str, pieces: Sequence[str]) -> list[str]:
        # each live child's lead, then its template with every _MARK made that lead
        parts = []
        for p, nxt in enumerate(trans[state] or row(state)):
            if nxt != _DEAD:
                lead = mark + pieces[p]
                parts += (lead, below(nxt, left - 1).replace(_MARK, lead))
        return parts

    def below(state: int, left: int) -> str:
        text = memo.get((state, left))
        if text is None:
            text = memo[(state, left)] = "".join(spread(state, left, _MARK, tails)) if left else ""
        return text

    parts = spread(_START, max_len, sep, heads) if max_len else []
    memo.clear()  # the templates are copied into parts: release them before the join
    if parts:
        parts[0] = parts[0][len(sep):]  # the first word's lead, without sep
    return "".join(parts)


def certified_counts(
    gens: GeneratorSet, max_len: int, *, automaton: OrbitAutomaton | None = None
) -> list[int]:
    """The number of certified words of each length 1..max_len, exactly.

    A forward count over the automaton's states: how many words of each
    length reach each state other than _DEAD.  It takes O(max_len * states *
    s) steps and builds no word, so no scan budget applies.  An `automaton`
    of gens' constants lends the rows it has built and keeps those built
    here, so a caller that also joins the words builds each row once.
    """
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    automaton = _automaton_of(gens, automaton)
    counts, level = [], {_START: 1}
    for _ in range(max_len):
        reached: dict[int, int] = {}
        for state, n in level.items():
            for nxt in automaton.row(state):
                if nxt != _DEAD:
                    reached[nxt] = reached.get(nxt, 0) + n
        level = reached
        counts.append(sum(level.values()))
    return counts


def _left_sum(weights: Sequence[float]) -> float:
    # sum() as it was before Python 3.12 made float sums compensated: added
    # left to right, so the cuts are the same on every version
    total = 0
    for w in weights:
        total += w
    return total


class _SamplerFields(NamedTuple):
    weights: tuple[float, ...]
    seed: int


class SequenceSampler(_SamplerFields):
    """Seeded sampler of random generator sequences.

    `weights` gives one positive weight per generator (normalized internally);
    `seed` selects the deterministic stream.  Trial i draws its letters from
    the stream keyed by (seed, i), so its letters depend on nothing else.
    """

    __slots__ = ()

    def __new__(cls, weights: tuple[float, ...], seed: int) -> SequenceSampler:
        if not weights:
            raise ValueError("sampler needs at least one weight")
        if not all(math.isfinite(w) and w > 0 for w in weights):
            raise ValueError(f"all weights must be positive and finite, got {weights}")
        if not math.isfinite(_left_sum(weights)):
            raise ValueError(f"the weights must have a finite sum, got {weights}")
        return super().__new__(cls, weights, seed)

    @classmethod
    def uniform(cls, k: int, seed: int) -> "SequenceSampler":
        return cls((1.0,) * k, seed)

    def _cumulative(self) -> list[float]:
        total = float(_left_sum(self.weights))
        acc, cum = 0.0, []
        for w in self.weights:
            acc += w / total
            cum.append(acc)
        cum[-1] = 1.0
        return cum

    def _cuts(self) -> list[int]:
        """Integer cuts: a 64-bit draw z takes letter bisect_right(cuts, z).

        The float rule gives z the letter min(bisect_right(cum, z / 2**64),
        s - 1), cum from `_cumulative`.  That letter never falls as z grows:
        z / 2**64 rounds monotonically, and cum rises, except that its last
        entry, set to 1.0, may lie below the one before.  Below 1.0
        bisection counts the entries <= z / 2**64; at exactly 1.0 its path
        takes at least that count.  So with cut i the least z whose letter
        exceeds i (2**64 if none), both rules agree.  Such a z has z / 2**64
        >= cum[i] or rounds to 1.0, and rounding moves z by at most half a
        float spacing, 2^10 below 2^64: the cut lies among the 2^12 integers
        below min(ceil(cum[i] * 2**64), 2**64), and the search runs there.
        """
        cum, last = self._cumulative(), len(self.weights) - 1
        cuts = []
        for i in range(last):
            hi = min(math.ceil(cum[i] * 2.0**64), 1 << 64)
            lo = max(hi - (1 << 12), 0)
            while lo < hi:
                mid = (lo + hi) // 2
                if bisect_right(cum, mid / 2.0**64) > i:  # as min(., last) > i, for last > i
                    hi = mid
                else:
                    lo = mid + 1
            cuts.append(lo)
        return cuts


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_STREAM = 0xD1342543DE82EF95
# the multipliers of the splitmix64 finalizer (Steele, Lea and Flood, OOPSLA
# 2014), which mixes the stream
_MIX1, _MIX2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


# Packed lanes: 64-bit values in the low halves of the 128-bit slots of one
# int, so that a lane times a 64-bit constant stays inside its slot.
_SLOT = 128
_CHUNK = 1024  # trials monte_carlo_stability draws together, one lane each


def _pack(values: Sequence[int]) -> int:
    """The 64-bit `values` as one int, value i in the low half of slot i."""
    slots = array("Q", bytes(_SLOT // 8 * len(values)))
    slots[::2] = array("Q", values)
    if sys.byteorder == "big":
        slots.byteswap()
    return int.from_bytes(slots, "little")


def _unpack(packed: int, n: int) -> array:
    """The lanes of the first n slots of `packed`, whose high halves are 0."""
    slots = array("Q", packed.to_bytes(_SLOT // 8 * n, "little"))
    if sys.byteorder == "big":
        slots.byteswap()
    return slots[::2]


_ONES = _pack([1] * _CHUNK)  # 1 in each of _CHUNK slots


def _lane_masks(n: int) -> tuple[int, int]:
    """1, and 2^64 - 1, in each of the first n slots."""
    ones = _ONES >> _SLOT * (_CHUNK - n)
    return ones, ones * _MASK64


def _mix_lanes(z: int, lanes: int) -> int:
    """The splitmix64 finalizer of every lane of z; `lanes` holds 2^64 - 1 in each of z's slots.

    A right shift brings the next slot's low bits into a slot's high half,
    and a product fills it; masking after each keeps the lanes apart.
    """
    z = ((z ^ (z >> 30)) & lanes) * _MIX1 & lanes
    z = ((z ^ (z >> 27)) & lanes) * _MIX2 & lanes
    return (z ^ (z >> 31)) & lanes


def monte_carlo_stability(
    gens: GeneratorSet,
    sampler: SequenceSampler,
    depth: int,
    trials: int,
) -> float:
    """Estimated probability that a random length-`depth` word has a square-free orbit.

    Returns (#square-free samples) / trials.  The estimate is reproducible:
    trial t draws its letters from the stream keyed by (sampler.seed, t), so
    the same seed gives the same value.  Letter k of trial t is the
    splitmix64 finalizer of base + k * _GOLDEN, where base is the finalizer
    of seed xor t * _STREAM, and a 64-bit draw picks its letter by the
    sampler's cuts.

    Each drawn letter is one step of the orbit automaton, a table lookup
    once the state's row is built.  A trial stops at its first square
    entry, and at the empty state, whose word stays square-free whatever
    letters follow; its later letters are never drawn, and the estimate is
    the same, since every trial has its own stream.

    The trials go through the stream _CHUNK at a time, one packed lane
    each: `_mix_lanes` draws letter k of every live trial in a few big-int
    operations, and the lanes are unpacked once per letter to step each
    trial's state.  Trials that stop drop out, and the survivors' bases are
    packed again.  A run keeps one chunk of lanes and the transition table,
    so its memory does not grow with the trial count.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if len(sampler.weights) != len(gens.maps):
        raise ValueError("sampler weight count must match the generator count")
    cuts = sampler._cuts()
    automaton = OrbitAutomaton(gens.cs)
    trans, row = automaton.trans, automaton.row
    seed = sampler.seed & _MASK64
    hits = 0
    for first in range(0, trials, _CHUNK):
        n = min(_CHUNK, trials - first)
        ones, lanes = _lane_masks(n)
        keys = (_pack(range(first, first + n)) * _STREAM & lanes) ^ ones * seed
        base = _mix_lanes(keys, lanes)
        bases, states = _unpack(base, n), [_START] * n
        for k in range(1, depth + 1):
            if len(states) < n:  # some trials stopped: pack the others' bases again
                n = len(states)
                ones, lanes = _lane_masks(n)
                base = _pack(bases)
            step = ones * (k * _GOLDEN & _MASK64)
            draws = _unpack(_mix_lanes((base + step) & lanes, lanes), n)
            live_bases, live_states = [], []
            for b, state, z in zip(bases, states, draws):
                nxt = (trans[state] or row(state))[bisect_right(cuts, z)]
                if nxt > _FREE:
                    live_bases.append(b)
                    live_states.append(nxt)
                elif nxt == _FREE:
                    hits += 1
            bases, states = live_bases, live_states
            if not states:
                break
        hits += len(states)
    return hits / trials
