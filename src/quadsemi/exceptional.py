"""Exceptional pairs, square-image certificates, and irreducible prefix recipes.

A pair of distinct maps x^2 + c1, x^2 + c2 is *exceptional* when (1) both
have a periodic point that is a perfect square and (2) each map's integer
image meets the other's preperiodic set.  Exceptional pairs are exactly

    {c1, c2} = {-1, -3}   or   {c1, c2} = {s^2 - s^4, -1 - s^2 - s^4}

for some integer s.  Three routes reach that list here, independently: the
witness route (`is_exceptional_pair`) decides one pair from the definition,
the closed-form route (`closed_form_of`) matches the shapes above, and
`classify_from_systems` derives the whole list, for every integer, from the
complete solutions of the 48 case systems.  `scan-pairs` lists the derived
classification; the tests hold the routes to each other.

For a non-exceptional pair, iterating one map N times on top of the other
kills all square values, which certifies every word with that prefix
irreducible; the family pairs with |s| >= 2 need the longer three-letter
prefix.  Any empirical contradiction of these facts raises
TheoremViolationError with the full diagnostic payload instead of being
silently absorbed.

Every N is exact and minimal, and needs no floats.  For f = x^2 + c, c != 0,
f^N(z) (N >= 2) is a square exactly when z lies in T_(N-2), where T_0 holds
the X-coordinates of the integral points on Y^2 = f(f(X)) (a monic quartic
with 4 a4 a0 - a2^2 = 4c != 0, so factoring lists them all) and
T_j = {y : y^2 + c in T_(j-1)} (`arith.square_preimages`).  So N
certifies a prefix f^N o g exactly when T_(N-2), pulled back the same way
through g, is empty.  Once some T_j repeats an earlier one the sequence
cycles, so if no N has certified by then, none ever will.  A repeat must
come: if every t in T_(j-1) has |t| <= M with M >= |c| + 1, every y in T_j
has y^2 <= M + |c| <= M^2, so all T_j lie in one interval [-M, M].
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from .arith import is_perfect_square, square_preimages
from .diophantine import System, legal_systems, phi2_curve_points, solve_system_complete
from .dynamics import GeneratorSet
from .portraits import (
    FIXED_SQUARE,
    TWO_CYCLE_SQUARE,
    SquareForm,
    preper_set,
    recognize_square_periodic,
    shape_constant,
)

CERTIFIED = "certified"
REFUTED = "refuted"
INAPPLICABLE = "inapplicable"

SPORADIC_PAIR = "sporadic-pair"  # {-1, -3}
FAMILY = "family"                # {s^2 - s^4, -1 - s^2 - s^4}

TWO_LETTER = "two-letter"
THREE_LETTER = "three-letter"

RIGOR_EXACT = "exact"


class TheoremViolationError(RuntimeError):
    """An empirical contradiction of a proved statement; carries diagnostics."""

    def __init__(self, message: str, details: dict):
        super().__init__(message)
        self.details = details


class ClosedForm(NamedTuple):
    """Which classified shape a pair matches."""

    kind: str  # SPORADIC_PAIR or FAMILY
    s: int | None = None


class ExceptionalVerdict(NamedTuple):
    """Classification of one ordered pair (c1, c2).

    square_periodic[k] is a square periodic point of map k (None if none);
    image_witnesses[k] is a pair (b, p) with map_k(b) = p landing in the other
    map's preperiodic set.  The pair is exceptional iff all four witnesses
    exist.  closed_form is matched syntactically and independently.
    """

    c1: int
    c2: int
    is_exceptional: bool
    square_periodic: tuple[int | None, int | None]
    image_witnesses: tuple[tuple[int, int] | None, tuple[int, int] | None]
    closed_form: ClosedForm | None


def _family_parameter(a: int, b: int) -> int | None:
    """s >= 0 with a = s^2 - s^4 and b = -1 - s^2 - s^4 (b fixes s), if any."""
    form = recognize_square_periodic(b)
    if form is None or form.kind != TWO_CYCLE_SQUARE:
        return None
    return form.s if a == shape_constant(FIXED_SQUARE, form.s) else None


def closed_form_of(c1: int, c2: int) -> ClosedForm | None:
    """Match (c1, c2) against the classified shapes, in either order."""
    if {c1, c2} == {-1, -3}:
        return ClosedForm(SPORADIC_PAIR)
    for a, b in ((c1, c2), (c2, c1)):
        s = _family_parameter(a, b)
        if s is not None:
            return ClosedForm(FAMILY, s)
    return None


def _square_periodic_witness(form: SquareForm | None) -> int | None:
    return None if form is None else form.s * form.s


def _image_witness(c_self: int, c_other: int) -> tuple[int, int] | None:
    """Smallest b >= 0 with b^2 + c_self inside the other map's preperiodic set."""
    best: tuple[int, int] | None = None
    for p in preper_set(c_other):
        b = is_perfect_square(p - c_self)
        if b is not None and (best is None or b < best[0]):
            best = (b, p)
    return best


def is_exceptional_pair(c1: int, c2: int) -> ExceptionalVerdict:
    """Decide exceptionality of a pair of distinct constants by finite witness search."""
    if c1 == c2:
        raise ValueError("the pair must consist of distinct constants")
    sq1 = _square_periodic_witness(recognize_square_periodic(c1))
    sq2 = _square_periodic_witness(recognize_square_periodic(c2))
    w1 = _image_witness(c1, c2)
    w2 = _image_witness(c2, c1)
    exceptional = all(x is not None for x in (sq1, sq2, w1, w2))
    return ExceptionalVerdict(
        c1=c1,
        c2=c2,
        is_exceptional=exceptional,
        square_periodic=(sq1, sq2),
        image_witnesses=(w1, w2),
        closed_form=closed_form_of(c1, c2),
    )


class DerivedPair(NamedTuple):
    """A pair {c1, c2}, c1 < c2, given by finite solutions of the listed systems."""

    pair: tuple[int, int]
    systems: tuple[System, ...]


class DerivedFamily(NamedTuple):
    """The pairs (shape_constant(shapes[0], u), shape_constant(shapes[1], u)), u >= 0,
    given by a line family of each listed system."""

    shapes: tuple[str, str]
    systems: tuple[System, ...]


class Classification(NamedTuple):
    """The exceptional pairs as `classify_from_systems` derives them."""

    finite: tuple[DerivedPair, ...]     # ascending by pair
    families: tuple[DerivedFamily, ...]

    def sporadic(self) -> list[tuple[int, int]]:
        """The finite pairs that no family gives at any u."""
        return [p.pair for p in self.finite
                if not any(p.pair in _family_pairs(f.shapes, p.pair[0])
                           for f in self.families)]


def _family_pairs(shapes: tuple[str, str], cmin: int) -> list[tuple[int, int]]:
    """The family's pairs {c1, c2}, c1 < c2, for u = 0, 1, ... while c1 or c2 is >= cmin.

    Both shapes' constants are nonincreasing in u >= 0 (0, 0, -12, -72, ...
    and -1, -3, -21, -91, ...), so no later u has a constant >= cmin: the
    list holds every pair of the family with both constants >= cmin, and
    costs O(|cmin|^(1/4)) steps.  The two constants of one u are distinct,
    since the shapes differ and s^2 - s^4 - (-1 - s^2 - s^4) = 1 + 2s^2.
    """
    out = []
    u = 0
    while max(cs := [shape_constant(kind, u) for kind in shapes]) >= cmin:
        out.append((min(cs), max(cs)))
        u += 1
    return out


@functools.cache
def classify_from_systems() -> Classification:
    """Derive every exceptional pair from the complete solutions of the case systems.

    A pair (c1, c2) of distinct constants is exceptional exactly when some
    system x^2 + A(s) = L(t), y^2 + B(t) = R(s) has a solution with
    {c1, c2} = {A(s), B(t)}.  That rests on three facts:

    1. Condition (1) puts both constants in a square shape: rational
       periodic points of x^2 + c are integers of period 1 or 2, so a
       square one makes c = `shape_constant(kind, s)` (`portraits`).
    2. The preperiodic set of a shape constant is `PREPER_TARGETS` for
       every s, so condition (2) reads x^2 + A(s) = L(t) and
       y^2 + B(t) = R(s) for targets L, R of the two shapes.  The proof
       is a test (tests/test_portraits.py,
       `test_preper_set_is_the_closed_form_for_every_s`): each preimage
       condition and each periodic-point discriminant is a quartic in s
       whose integral points `diophantine.quartic_curve_points` lists in
       full.
    3. Every legal (family, left, right) system is solved: `legal_systems`
       builds all 48 from the shapes and selectors, not from the registry,
       and `solve_system_complete` returns every solution of each.  Family
       B (fixed, cycle) read both ways covers a pair of mixed shapes.

    So each finite solution (x, y, s, t) gives the pair {A(s), B(t)}, and
    each line family, |s| = |t| = u, the pairs {A(u), B(u)}; pairs with
    c1 = c2 are not pairs of distinct maps and are dropped, as is a line
    whose two shapes agree.  The result is the paper's classification: the
    finite pairs {-3, -1}, {-3, 0} and {-1, 0}, the last two being the
    family at u = 1 and u = 0, and the one family
    (s^2 - s^4, -1 - s^2 - s^4).  Computed once, on first use.
    """
    finite: dict[tuple[int, int], dict[System, None]] = {}
    families: dict[tuple[str, str], dict[System, None]] = {}
    for system in legal_systems():
        points, lines = solve_system_complete(system)
        for _, _, s, t in points:
            c1, c2 = system.left_constant(s), system.right_constant(t)
            if c1 != c2:
                finite.setdefault((min(c1, c2), max(c1, c2)), {})[system] = None
        if lines and system.shapes[0] != system.shapes[1]:
            families.setdefault(system.shapes, {})[system] = None
    return Classification(
        tuple(DerivedPair(pair, tuple(systems)) for pair, systems in sorted(finite.items())),
        tuple(DerivedFamily(shapes, tuple(systems)) for shapes, systems in families.items()),
    )


def scan_exceptional_pairs(cmin: int, cmax: int) -> list[tuple[int, int]]:
    """All ordered exceptional pairs (c1, c2), c1 != c2, in [cmin, cmax]^2, ascending.

    Lists `classify_from_systems` in the box: its finite pairs, and each
    family's pairs for u = 0, 1, ... while a constant is still >= cmin
    (`_family_pairs`).  That is O(|cmin|^(1/4)) steps, the size of the
    output, with no square test, witness verdict (`is_exceptional_pair`) or
    preperiodic set per pair.
    """
    if cmin > cmax:
        raise ValueError(f"--min must not exceed --max, got [{cmin}, {cmax}]")
    derived = classify_from_systems()
    pairs = [p.pair for p in derived.finite]
    for family in derived.families:
        pairs += _family_pairs(family.shapes, cmin)
    return sorted({(a, b) for pair in pairs for a, b in (pair, pair[::-1])
                   if cmin <= a <= cmax and cmin <= b <= cmax})


def _square_set(c: int) -> frozenset[int]:
    """T_0 for x^2 + c, c != 0: the X-coordinates on Y^2 = f(f(X)), complete by factoring."""
    return frozenset(q for q, _ in phi2_curve_points(c))


def _minimal_iterate(c_outer: int, inner: tuple[int, ...]) -> int | None:
    """Least N >= 2 with f_outer^N(g(b)) never a square, or None if no N works.

    g composes the maps x^2 + c for c in `inner`, outermost first; the T_j
    are those of the module docstring.
    """
    t = _square_set(c_outer)
    seen = set()
    n = 2
    while t not in seen:
        seen.add(t)
        hits = t
        for c in inner:
            hits = square_preimages(hits, c)
        if not hits:
            return n
        t = square_preimages(t, c_outer)
        n += 1
    return None


class SquareImageCertificate(NamedTuple):
    """Whether f_outer^N(f_inner(b)) can be a perfect square for integer b.

    'certified' asserts it cannot for the recorded N, the least such;
    'refuted' asserts that no N works and carries the smallest b >= 0 whose
    image is a square at N = 2; 'inapplicable' means the hypotheses
    (distinct constants outside {0, -1}) fail.
    """

    status: str
    outer_c: int
    inner_c: int
    n_iterate: int | None = None
    rigor: str | None = None
    reason: str = ""
    witness_b: int | None = None
    witness_value: int | None = None


def certify_no_square_images(c1: int, c2: int) -> SquareImageCertificate:
    """Certified / refuted / inapplicable verdict for squares among f1^N(f2(b)).

    f1^N(f2(b)) is a square exactly when b^2 + c2 lies in T_(N-2), the
    integer preimages under f1^(N-2) of the X-coordinates on Y^2 = f1(f1(X)).
    A certificate carries the least N for which no b does; the T_j lie in one
    interval, so they repeat, and a repeat before any such N refutes every N
    (module docstring).
    """
    if c1 in (0, -1) or c2 in (0, -1) or c1 == c2:
        return SquareImageCertificate(
            INAPPLICABLE, c1, c2,
            reason="needs distinct constants outside {0, -1}",
        )
    n = _minimal_iterate(c1, (c2,))
    if n is not None:
        return SquareImageCertificate(
            CERTIFIED, c1, c2, n_iterate=n, rigor=RIGOR_EXACT,
            reason=(f"no integer image of the inner map lies in T_{n - 2}, "
                    f"the set where f^{n} takes square values"),
        )
    b = min(map(abs, square_preimages(_square_set(c1), c2)))
    p = b * b + c2
    v = (p * p + c1) ** 2 + c1
    return SquareImageCertificate(
        REFUTED, c1, c2, n_iterate=2, rigor=RIGOR_EXACT,
        reason=(f"f^2({p}) = {v} is a perfect square, and the preimage sets "
                "repeat with a square image at every N"),
        witness_b=b, witness_value=v,
    )


class ExceptionalPrefixReport(NamedTuple):
    """Finite certificate that f1^N o f2 o f1 avoids square values on the family pair.

    n_iterate is the least such N, or None if none exists.
    """

    s: int
    c1: int
    c2: int
    n_iterate: int | None
    subchecks: tuple[tuple[str, bool], ...]

    @property
    def passed(self) -> bool:
        return self.n_iterate is not None and all(ok for _, ok in self.subchecks)


def check_exceptional_prefix(s: int) -> ExceptionalPrefixReport:
    """Re-verify, for the family pair with parameter s, that f1^N(f2(f1(b))) is never square.

    Reproduces each finite step of the argument computationally: the only
    candidate preperiodic images are +-s^2 and +-(1-s^2); the 1-s^2 branch dies
    because 1-s^2 < 0, and the +-s^2 branches die by a mod-4 obstruction and
    the nonsquareness of s^4 + 1.  N is the least with no f2(f1(b)) in
    T_(N-2), the preimage set where f1^N takes square values; the search
    ends because the T_j repeat (module docstring).
    """
    if s in (0, 1, -1):
        raise ValueError("the family prefix needs |s| >= 2")
    s = abs(s)
    c1 = shape_constant(FIXED_SQUARE, s)
    c2 = shape_constant(TWO_CYCLE_SQUARE, s)

    subchecks = []
    # landing on +-(1 - s^2) would force the square 1 - s^2, which is negative
    subchecks.append(
        ("fixed-point image 1 - s^2 is not a square",
         is_perfect_square(1 - s * s) is None)
    )
    # landing on s^2 via z = -(s^2+1) requires b^2 + 2s^2 - s^4 + 1 = 0
    subchecks.append(
        ("b^2 + 2s^2 - s^4 + 1 = 0 has no solutions mod 4",
         all((b * b + 2 * t * t - t**4 + 1) % 4 for b in range(4) for t in range(4)))
    )
    # landing on s^2 via z = s^2+1, or on -s^2, both require s^4 + 1 square
    subchecks.append(
        (f"{s}^4 + 1 is not a square",
         is_perfect_square(s**4 + 1) is None)
    )
    # the middle orbit entry f1^N(f2(0)) = f1^N(c2) stays nonsquare because
    # c2 is not preperiodic for f1
    subchecks.append(
        ("the partner constant is outside the outer map's preperiodic set",
         c2 not in preper_set(c1))
    )

    return ExceptionalPrefixReport(
        s=s, c1=c1, c2=c2, n_iterate=_minimal_iterate(c1, (c2, c1)),
        subchecks=tuple(subchecks),
    )


class PrefixRecipe(NamedTuple):
    """A constructive prefix: every word prefix_word() + F has a square-free orbit.

    outer/inner are indices into the generator set; the prefix reads
    outer^N o inner (two-letter) or outer^N o inner o outer (three-letter,
    needed exactly for the exceptional family pairs).
    """

    outer: int
    inner: int
    n_iterate: int
    shape: str  # TWO_LETTER or THREE_LETTER
    certificate: str
    rigor: str = RIGOR_EXACT

    def prefix_word(self) -> tuple[int, ...]:
        w = (self.outer,) * self.n_iterate + (self.inner,)
        if self.shape == THREE_LETTER:
            w = w + (self.outer,)
        return w

    def expand(self, suffix: tuple[int, ...] | list[int]) -> tuple[int, ...]:
        return self.prefix_word() + tuple(suffix)


def construct_irreducible_prefix(gens: GeneratorSet) -> PrefixRecipe:
    """Build a prefix whose extensions by arbitrary words are all certified irreducible.

    Picks the first two generators x^2 + c with -c nonsquare (the irreducible
    ones).  A non-exceptional pair yields a two-letter recipe from the
    ordering that certifies with the smaller N, the listed one on a tie;
    the reverse ordering is tried only when the listed one does not certify
    at N = 2, the least N there is.  The family pair yields the
    three-letter recipe with the square-fixed-point map outermost.  Failure of both orderings for a
    non-exceptional pair contradicts the classification and raises
    TheoremViolationError rather than guessing.  The certificates come from
    `certify_no_square_images` and `check_exceptional_prefix`.
    """
    irr = [k for k, m in enumerate(gens.maps) if is_perfect_square(-m.c) is None]
    if len(irr) < 2:
        raise ValueError(
            "need at least two irreducible generators "
            "(maps x^2 + c with -c not a perfect square)"
        )
    i0, j0 = irr[0], irr[1]
    c1, c2 = gens.maps[i0].c, gens.maps[j0].c
    verdict = is_exceptional_pair(c1, c2)

    if not verdict.is_exceptional:
        certs = [certify_no_square_images(c1, c2)]
        if certs[0].status != CERTIFIED or certs[0].n_iterate > 2:
            certs.append(certify_no_square_images(c2, c1))
        found = [(cert.n_iterate, k)
                 for k, cert in enumerate(certs) if cert.status == CERTIFIED]
        if found:
            k = min(found)[1]  # a tie keeps the listed ordering
            oi, ii = ((i0, j0), (j0, i0))[k]
            return PrefixRecipe(
                outer=oi, inner=ii, n_iterate=certs[k].n_iterate, shape=TWO_LETTER,
                certificate=certs[k].reason,
            )
        raise TheoremViolationError(
            "both orderings of a non-exceptional pair were refuted, "
            "contradicting the classification of exceptional pairs",
            details={"pair": (c1, c2), "certificates": certs},
        )

    form = verdict.closed_form
    if form is None or form.kind != FAMILY:
        # the sporadic pair {-1, -3} contains the reducible map x^2 - 1 and
        # cannot appear among irreducible generators
        raise TheoremViolationError(
            "an exceptional pair of irreducible generators did not match the family form",
            details={"pair": (c1, c2), "verdict": verdict},
        )
    s = form.s
    assert s is not None and s >= 2  # s in {0, 1} forces a reducible generator
    fixed_c = shape_constant(FIXED_SQUARE, s)
    outer, inner = (i0, j0) if c1 == fixed_c else (j0, i0)
    report = check_exceptional_prefix(s)
    if not report.passed:
        raise TheoremViolationError(
            "the exceptional-prefix certificate failed",
            details={"pair": (c1, c2), "report": report},
        )
    checks = "; ".join(name for name, _ in report.subchecks)
    return PrefixRecipe(
        outer=outer, inner=inner, n_iterate=report.n_iterate, shape=THREE_LETTER,
        certificate=(
            f"family pair with s={s}: {checks}; no integer b has f2(f1(b)) in "
            f"T_{report.n_iterate - 2}, the set where f1^{report.n_iterate} "
            "takes square values"
        ),
    )
