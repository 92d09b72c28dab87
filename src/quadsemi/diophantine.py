"""The 48 case systems: registry, complete solver, comparator, obstructions,
and the integral points of the quartic curves behind them.

Each case couples two equations in integers x, y, s, t:

    x^2 + A(s) = L(t)        and        y^2 + B(t) = R(s)

where A, B are the constants of a square-fixed-point map or a square-2-cycle
map, fixed by the family letter, and L, R select one preperiodic target of
the partner map (`portraits.shape_constant` and `portraits.PREPER_TARGETS`
define both shapes and their targets).  The bundled registry lists all 48
systems together with their complete solution sets and the techniques that
settle them; it is data, not code, so the case table can be audited without
reading source (docs/registry-schema.md documents the format, and
QUADSEMI_REGISTRY overrides the file path).

Everything below depends only on x^2, y^2, s^2, t^2, so solutions are stored
canonically with x, y >= 0 and s, t signed.  The left equation reads
x^2 = s^4 + e s^2 + C(t) with e = +-1, a monic quartic in s, so its factoring
box (`_quartic_box`) gives s^2 <= t^2 + c1; the right equation
gives t^2 <= s^2 + c2 in the same way, with constants c1, c2 <= 2 fixed by
the system.  So |s^2 - t^2| <= max(c1, c2), and every solution lies in a
small triangle |s| + |t| <= max(c1, c2) or on the line |s| = |t|, where the
system is two quartics in one variable.  `solve_system_complete` solves
both parts outright: its answer is a finite set plus at most one line
family.  The registry's claims take the same form, finite points plus
lines (a template in u must be a line), so `verify_lemma` compares the two
sets point by point and key by key, in time independent of the bound.
"""

from __future__ import annotations

import functools
import json
import math
import os
import re
from importlib import resources
from typing import Iterable, NamedTuple

from .arith import is_perfect_square, positive_divisors
from .portraits import FIXED_SQUARE, PREPER_TARGETS, TWO_CYCLE_SQUARE, shape_constant

# the interpreter's own SHA-256, which loads no OpenSSL, unlike hashlib's
try:
    from _sha2 import sha256 as _new_sha256  # CPython 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256 as _new_sha256  # CPython 3.10 and 3.11
    except ImportError:  # a build without the built-in hashes
        def _new_sha256(data: bytes):
            import hashlib
            return hashlib.sha256(data)

SCHEMA = "quadsemi-lemma-registry/1"
ENV_REGISTRY = "QUADSEMI_REGISTRY"

# selector name -> (sign, offset): the selector maps q to sign*q^2 + offset
_SELECTORS: dict[str, tuple[int, int]] = {
    "+q^2": (1, 0),
    "-q^2": (-1, 0),
    "+(q^2-1)": (1, -1),
    "-(q^2-1)": (-1, 1),
    "+(q^2+1)": (1, 1),
    "-(q^2+1)": (-1, -1),
}

# (left-constant shape, right-constant shape) per family
_FAMILY_SHAPES = {
    "A": (FIXED_SQUARE, FIXED_SQUARE),
    "B": (FIXED_SQUARE, TWO_CYCLE_SQUARE),
    "C": (TWO_CYCLE_SQUARE, TWO_CYCLE_SQUARE),
}

TECHNIQUES = {"mod4", "mod8", "sandwich", "curve", "factor"}


class RegistryError(ValueError):
    """The registry file is malformed or fails validation."""


class _SystemFields(NamedTuple):
    family: str
    left: str   # selector applied to t on the left equation
    right: str  # selector applied to s on the right equation


class System(_SystemFields):
    """One coupled pair of equations, determined by family letter and selectors."""

    __slots__ = ()

    def __new__(cls, family: str, left: str, right: str) -> System:
        # a selector is legal when it names a preperiodic target of the partner map
        if family not in _FAMILY_SHAPES:
            raise RegistryError(f"unknown family {family!r}")
        left_shape, right_shape = _FAMILY_SHAPES[family]
        for side, selector, partner in (("left", left, right_shape),
                                        ("right", right, left_shape)):
            if _SELECTORS.get(selector) not in PREPER_TARGETS[partner]:
                raise RegistryError(f"selector {selector!r} is not legal on the "
                                    f"{side} of family {family}")
        return super().__new__(cls, family, left, right)

    @property
    def shapes(self) -> tuple[str, str]:
        """The shapes of the left constant A and of the right constant B."""
        return _FAMILY_SHAPES[self.family]

    def left_constant(self, s: int) -> int:
        return shape_constant(self.shapes[0], s)

    def right_constant(self, t: int) -> int:
        return shape_constant(self.shapes[1], t)

    def x_square(self, s: int, t: int) -> int:
        """The value x^2 must take: L(t) - A(s)."""
        sign, offset = _SELECTORS[self.left]
        return sign * t * t + offset - self.left_constant(s)

    def y_square(self, s: int, t: int) -> int:
        """The value y^2 must take: R(s) - B(t)."""
        sign, offset = _SELECTORS[self.right]
        return sign * s * s + offset - self.right_constant(t)

    def residue_solutions(self, modulus: int) -> list[tuple[int, int, int, int]]:
        """Every (x, y, s, t) in (Z/modulus)^4 solving both equations mod modulus.

        The list is ascending, the order of an exhaustive scan over all
        modulus^4 vectors, but only the modulus^2 pairs (s, t) are visited:
        each is joined with the tabulated square roots of x^2 and y^2.  Each
        of x^2 = L(t) - A(s) and y^2 = R(s) - B(t) is a difference of two
        one-variable terms, so the four terms are tabulated once per residue.
        """
        if modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {modulus}")
        roots: dict[int, list[int]] = {}
        for r in range(modulus):
            roots.setdefault(r * r % modulus, []).append(r)
        (a_shape, b_shape), residues = self.shapes, range(modulus)
        left_sign, left_offset = _SELECTORS[self.left]
        right_sign, right_offset = _SELECTORS[self.right]
        left_t = [left_sign * t * t + left_offset for t in residues]
        b_t = [shape_constant(b_shape, t) for t in residues]
        hits = []
        for s in residues:
            a_s = shape_constant(a_shape, s)
            right_s = right_sign * s * s + right_offset
            for t in residues:
                xs = roots.get((left_t[t] - a_s) % modulus)
                ys = roots.get((right_s - b_t[t]) % modulus)
                if xs and ys:
                    hits += [(x, y, s, t) for x in xs for y in ys]
        hits.sort()
        return hits

    def is_solution(self, x: int, y: int, s: int, t: int) -> bool:
        return x * x == self.x_square(s, t) and y * y == self.y_square(s, t)


def legal_systems() -> tuple[System, ...]:
    """Every legal system: families A, B, C in turn, selectors in `_SELECTORS` order.

    A selector is legal where it names a preperiodic target of the partner
    map, four of the six for each shape, so each family has 16 systems and
    there are 48 in all.  They are built from the shapes and the selectors
    alone, not read from the registry.
    """
    return tuple(
        System(family, left, right)
        for family, (left_shape, right_shape) in _FAMILY_SHAPES.items()
        for left, left_target in _SELECTORS.items()
        if left_target in PREPER_TARGETS[right_shape]
        for right, right_target in _SELECTORS.items()
        if right_target in PREPER_TARGETS[left_shape]
    )


_COORD_RE = re.compile(r"^(±)?(?:(-?\d+)|(u)|(u\^2)|\(u\^2([+-]\d+)\))$")


class _Coord(NamedTuple):
    pm: bool
    a0: int
    a1: int  # coefficient of u
    a2: int  # coefficient of u^2

    def signs(self) -> set[int]:
        """The values of a coordinate without u: a0, and -a0 too when marked ±."""
        return {self.a0, -self.a0} if self.pm else {self.a0}


def _parse_coord(token: str) -> _Coord:
    m = _COORD_RE.match(token.strip())
    if m is None:
        raise RegistryError(f"cannot parse solution coordinate {token!r}")
    pm = m.group(1) is not None
    if m.group(2) is not None:
        return _Coord(pm, int(m.group(2)), 0, 0)
    if m.group(3) is not None:
        return _Coord(pm, 0, 1, 0)
    if m.group(4) is not None:
        return _Coord(pm, 0, 0, 1)
    return _Coord(pm, int(m.group(5)), 0, 1)


_PM_U = _Coord(True, 0, 1, 0)  # the coordinate "±u"


class SolutionFamily(NamedTuple):
    """One claimed solution shape, e.g. "(±u^2, ±(u^2-1), ±u, ±u)" or "(0, ±1, ±1, 0)".

    Coordinates are read in the order (x, y, s, t); a ± expands to both signs
    independently.  A template in u must be a line (`line_key`), whose s and
    t are both ±u, so it holds for every integer u.
    """

    template: str
    coords: tuple[_Coord, _Coord, _Coord, _Coord]

    @classmethod
    def parse(cls, template: str) -> "SolutionFamily":
        inner = template.strip()
        if not (inner.startswith("(") and inner.endswith(")")):
            raise RegistryError(f"solution template {template!r} must be parenthesized")
        parts = [p for p in inner[1:-1].split(",")]
        if len(parts) != 4:
            raise RegistryError(f"solution template {template!r} must have 4 coordinates")
        fam = cls(template, tuple(_parse_coord(p) for p in parts))  # type: ignore[arg-type]
        if fam.parametric and fam.line_key() is None:
            raise RegistryError(f"solution template {template!r} uses u but is not "
                                f"a line (u^2+k1, u^2+k2, ±u, ±u)")
        return fam

    @property
    def parametric(self) -> bool:
        return any(c.a1 or c.a2 for c in self.coords)

    def line_key(self) -> tuple[int, int] | None:
        """(k1, k2) when this shape is the line (|u^2 + k1|, |u^2 + k2|, ±u, ±u), else None.

        That line is the shape of the families `solve_system_complete`
        returns; x and y enter canonically as absolute values, so their ±
        marks do not matter, but s and t must both be exactly ±u.
        """
        xs, ys, ss, ts = self.coords
        if ss != _PM_U or ts != _PM_U:
            return None
        if xs.a2 != 1 or ys.a2 != 1:  # u^2 or (u^2±k), so a1 = 0 too
            return None
        return xs.a0, ys.a0

    def points(self) -> set[tuple[int, int, int, int]]:
        """The canonical tuples (x>=0, y>=0, s, t) of a template without u; none for a line."""
        if self.parametric:
            return set()
        xs, ys, ss, ts = self.coords
        return {(abs(xs.a0), abs(ys.a0), s, t) for s in ss.signs() for t in ts.signs()}


class LemmaEntry(NamedTuple):
    """One registry record: the system plus its claimed solutions and techniques."""

    id: str
    system: System
    claimed: tuple[SolutionFamily, ...]
    techniques: frozenset[str]

    @property
    def symmetry_target(self) -> str | None:
        for tag in self.techniques:
            if tag.startswith("symmetry:"):
                return tag.split(":", 1)[1]
        return None


def registry_path() -> str:
    """Path of the registry in effect: QUADSEMI_REGISTRY if set, else the bundled file."""
    override = os.environ.get(ENV_REGISTRY)
    if override:
        return override
    return _bundled_path()


@functools.cache
def _bundled_path() -> str:
    # found once: the package cannot move under a running interpreter
    return str(resources.files(__package__) / "data" / "lemma_registry.json")


def registry_checksum(path: str | None = None) -> str:
    """sha256 hex digest of the bytes now in the registry file (default `registry_path()`).

    Reads the file anew and raises RegistryError if it cannot, as `registry()` does.
    """
    return _sha256(_read_registry(path or registry_path()))


@functools.lru_cache(maxsize=1)
def _sha256(data: bytes) -> str:
    # the one slot holds the digest of the bytes last hashed, so provenance
    # hashes a loaded registry once
    return _new_sha256(data).hexdigest()


class _Loaded(NamedTuple):
    """One validated registry and what identifies the bytes it came from."""

    path: str
    source: str  # "env" or "bundled"
    data: bytes  # the file's bytes, as validated
    entries: tuple[LemmaEntry, ...]


# the one cache slot, holding the registry that `registry()` last returned;
# it is refilled in place, so no binding of this module changes after import
_last: list[_Loaded] = []


def registry() -> tuple[LemmaEntry, ...]:
    """The validated case registry at `registry_path()`.

    Checks the schema tag, the 48-entry count (16 per family), the field
    types of each entry, selector legality, technique tags, symmetry targets
    (which must name an earlier entry), that every claimed point solves its
    system, and that every claimed line is one, as an identity in u
    (`_is_line_of`).  Raises RegistryError on any defect.

    Every call reads the file, but its bytes are validated only when the
    path, the source or the bytes differ from those of the registry last
    returned, so repeated calls on unchanged bytes return the same tuple,
    while a rewritten file or a changed QUADSEMI_REGISTRY takes effect on
    the next call.  Nothing is hashed here: `registry_provenance()` takes
    the digest when it is first asked for.  A failed load raises on every
    call and is never cached.  The entries are frozen and the result is a
    tuple, so every caller can share it.
    """
    return _load().entries


def registry_provenance() -> dict[str, str]:
    """Provenance of the registry that `registry()` last returned, free of any path.

    ``source`` is "env" when QUADSEMI_REGISTRY named the file, else
    "bundled"; ``sha256`` is the digest of the very bytes those entries
    were validated from, kept from the load and hashed on the first request
    (the file is not read again), so a report cannot name a file rewritten
    after the entries were read.  Loads the registry first if none is loaded
    yet.  Reports carry this instead of the path, so they do not depend on
    the install location.
    """
    loaded = _last[0] if _last else _load()
    return {"source": loaded.source, "sha256": _sha256(loaded.data)}


def _load() -> _Loaded:
    path = registry_path()
    source = "env" if os.environ.get(ENV_REGISTRY) else "bundled"
    data = _read_registry(path)
    if _last and (_last[0].path, _last[0].source, _last[0].data) == (path, source, data):
        return _last[0]
    loaded = _Loaded(path, source, data, _validate(data, path))
    _last[:] = [loaded]
    return loaded


def _read_registry(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise RegistryError(f"cannot read registry at {path}: {exc}") from exc


def _check_record_shape(rec: object, index: int) -> None:
    """Raise RegistryError unless rec has the field types of a registry entry."""
    if not isinstance(rec, dict):
        raise RegistryError(f"entries[{index}] must be an object")
    for key in ("id", "family", "left", "right"):
        if not isinstance(rec.get(key), str):
            raise RegistryError(f"entries[{index}]: {key!r} must be a string")
    for key in ("solutions", "techniques"):
        value = rec.get(key)
        if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
            raise RegistryError(f"entries[{index}]: {key!r} must be a list of strings")


def _validate(data: bytes, path: str) -> tuple[LemmaEntry, ...]:
    """The entries encoded by ``data``, the bytes of the file at ``path``."""
    try:
        doc = json.loads(data.decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise RegistryError(f"cannot read registry at {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise RegistryError("registry must be a JSON object")
    if doc.get("schema") != SCHEMA:
        raise RegistryError(f"unexpected registry schema {doc.get('schema')!r}")
    raw = doc.get("entries")
    if not isinstance(raw, list) or len(raw) != 48:
        raise RegistryError("registry must contain exactly 48 entries")

    entries: list[LemmaEntry] = []
    seen: set[str] = set()
    per_family = {"A": 0, "B": 0, "C": 0}
    for index, rec in enumerate(raw):
        _check_record_shape(rec, index)
        entry_id = rec["id"]
        if entry_id in seen:
            raise RegistryError(f"duplicate entry id {entry_id}")
        seen.add(entry_id)
        system = System(rec["family"], rec["left"], rec["right"])
        per_family[system.family] += 1
        try:
            claimed = tuple(SolutionFamily.parse(t) for t in rec["solutions"])
        except RegistryError as exc:
            raise RegistryError(f"{entry_id}: {exc}") from None
        techniques = frozenset(rec["techniques"])
        for tag in techniques:
            base = tag.split(":", 1)[0]
            if base not in TECHNIQUES and base != "symmetry":
                raise RegistryError(f"{entry_id}: unknown technique tag {tag!r}")
        entry = LemmaEntry(entry_id, system, claimed, techniques)
        target = entry.symmetry_target
        if target is not None and target not in seen:
            raise RegistryError(
                f"{entry_id}: symmetry target {target!r} must appear earlier"
            )
        entries.append(entry)
    if any(n != 16 for n in per_family.values()):
        raise RegistryError(f"each family needs 16 entries, got {per_family}")

    for entry in entries:
        for fam in entry.claimed:
            key = fam.line_key()
            if key is not None and not _is_line_of(entry.system, key):
                raise RegistryError(f"{entry.id}: claimed line {fam.template!r} "
                                    f"does not solve the system at every u")
            for x, y, s, t in fam.points():
                if not entry.system.is_solution(x, y, s, t):
                    raise RegistryError(
                        f"{entry.id}: claimed family {fam.template!r} fails "
                        f"the system at (x,y,s,t)=({x},{y},{s},{t})"
                    )
    return tuple(entries)


def _system_quartics(system: System) -> tuple[tuple[int, int], tuple[int, int], int, int]:
    """The system as two monic quartics: ((e, C0), (f, D0), lam, sigma).

    With the left selector L(t) = lam t^2 + l, the right one R(s) =
    sigma s^2 + rho, and the shape constants -A(s) = s^4 + e s^2 - A(0),
    -B(t) = t^4 + f t^2 - B(0) (e, f = +-1), the equations read

        x^2 = s^4 + e s^2 + lam t^2 + C0,   C0 = l - A(0),
        y^2 = t^4 + f t^2 + sigma s^2 + D0,  D0 = rho - B(0).
    """
    lam, l = _SELECTORS[system.left]
    sigma, rho = _SELECTORS[system.right]
    a0, b0 = system.left_constant(0), system.right_constant(0)
    e = a0 - system.left_constant(1) - 1
    f = b0 - system.right_constant(1) - 1
    return (e, l - a0), (f, rho - b0), lam, sigma


def _is_line_of(system: System, key: tuple[int, int]) -> bool:
    """Whether (|u^2 + k1|, |u^2 + k2|, ±u, ±u) solves the system at every integer u.

    On |s| = |t| = u the system reads x^2 = u^4 + (e + lam) u^2 + C0 and
    y^2 = u^4 + (f + sigma) u^2 + D0 (`_system_quartics`), and (u^2 + k)^2 =
    u^4 + 2k u^2 + k^2, so the line solves it at every u exactly when the
    coefficients agree.
    """
    (e, c0), (f, d0), lam, sigma = _system_quartics(system)
    k1, k2 = key
    return (2 * k1, k1 * k1, 2 * k2, k2 * k2) == (e + lam, c0, f + sigma, d0)


def _canonical_solutions(
    system: System, pairs: Iterable[tuple[int, int]]
) -> set[tuple[int, int, int, int]]:
    """The canonical solutions whose (|s|, |t|) is one of ``pairs``: two exact square tests each."""
    sols: set[tuple[int, int, int, int]] = set()
    for s, t in pairs:
        y = is_perfect_square(system.y_square(s, t))
        if y is None:
            continue
        x = is_perfect_square(system.x_square(s, t))
        if x is None:
            continue
        for ss in {s, -s}:
            for tt in {t, -t}:
                sols.add((x, y, ss, tt))
    return sols


def _square_points(a2: int, a0: int) -> frozenset[int] | None:
    """The q >= 0 where q^4 + a2 q^2 + a0 is a square, or None if it is one at every q."""
    if 4 * a0 == a2 * a2:
        return None  # the quartic is (q^2 + a2/2)^2
    box = _quartic_box(1, a2, a0)  # q <= q^2 <= box at every point
    return frozenset(q for q, _ in quartic_curve_points(1, a2, a0, box + 1) if q >= 0)


def solve_system_complete(
    system: System, counters: dict[str, int] | None = None
) -> tuple[set[tuple[int, int, int, int]], set[tuple[int, int]]]:
    """Every canonical solution (x>=0, y>=0, s, t), as (finite, families).

    ``families`` holds keys (k1, k2), each standing for the solutions
    (|u^2 + k1|, |u^2 + k2|, s, t) with |s| = |t| = u, for every u >= 0;
    ``finite`` holds every other solution.  No solution is in both.

    Proof.  Write the system as two monic quartics (`_system_quartics`):

        x^2 = s^4 + e s^2 + lam t^2 + C0,   y^2 = t^4 + f t^2 + sigma s^2 + D0,

    with e, f, lam, sigma = +-1.  As a quartic in s the first has
    4 a0 - a2^2 = 4(lam t^2 + C0) - 1, odd and so nonzero, and its factoring
    box (`_quartic_box`) gives, since |4 lam t^2 + 4 C0 - 1| <= 4 t^2 +
    |4 C0 - 1| and 4 t^2 is a multiple of 4,

        s^2 <= (|4(lam t^2 + C0) - 1| + 3) // 4 <= t^2 + c1,
        c1 = (|4 C0 - 1| + 3) // 4 = _quartic_box(1, e, C0).

    The second gives t^2 <= s^2 + c2 with c2 = _quartic_box(1, f, D0) in the
    same way, so |s^2 - t^2| <= c = max(c1, c2) (c <= 2 for every legal
    system).  If |s| != |t|, then ||s| - |t|| >= 1 and

        |s| + |t| <= ||s| - |t|| (|s| + |t|) = |s^2 - t^2| <= c,

    so (|s|, |t|) is one of the pairs s, t >= 0, s + t <= c, s != t of the
    triangle, each of which gets the two exact square tests.  If |s| = |t| =
    q, the system is two quartics in q alone:

        x^2 = q^4 + (e + lam) q^2 + C0,   y^2 = q^4 + (f + sigma) q^2 + D0.

    A quartic q^4 + a2 q^2 + a0 with 4 a0 != a2^2 has finitely many integral
    points, all in its factoring box (`_quartic_box`); one with
    4 a0 = a2^2 is (q^2 + a2/2)^2, a square at every q.  If both are squares
    at every q, the line is the family (|u^2 + (e + lam)/2|,
    |u^2 + (f + sigma)/2|, ±u, ±u), the one test of `_is_line_of`.
    Otherwise the q >= 0 where both can be squares, a square-everywhere
    quartic allowing every q, are finitely many, and each gets the same two
    square tests as a pair (q, q).

    When ``counters`` is given, its "pairs_tested" entry grows by the number
    of pairs (s, t), s, t >= 0, that were tested: the triangle's and the
    line's together, a number that does not depend on any bound.
    """
    (e, c0), (f, d0), lam, sigma = _system_quartics(system)
    c = max(_quartic_box(1, e, c0), _quartic_box(1, f, d0))
    pairs = [(s, t) for s in range(c + 1) for t in range(c + 1 - s) if s != t]
    families: set[tuple[int, int]] = set()
    key = ((e + lam) // 2, (f + sigma) // 2)
    if _is_line_of(system, key):
        families.add(key)
    else:
        x_line = _square_points(e + lam, c0)
        y_line = _square_points(f + sigma, d0)
        line = x_line if y_line is None else y_line if x_line is None else x_line & y_line
        pairs += [(q, q) for q in line]
    if counters is not None:
        counters["pairs_tested"] = counters.get("pairs_tested", 0) + len(pairs)
    return _canonical_solutions(system, pairs), families


def _on_line(point: tuple[int, int, int, int], families: set[tuple[int, int]]) -> bool:
    """Whether the canonical point is an instance of one of the line families."""
    x, y, s, t = point
    u = abs(s)
    return abs(t) == u and any((abs(u * u + k1), abs(u * u + k2)) == (x, y)
                               for k1, k2 in families)


class LemmaVerification(NamedTuple):
    """Solver-vs-claim comparison for one entry, its points within one bound."""

    entry_id: str
    bound: int
    extra: frozenset[tuple[int, int, int, int]]    # found by the solver, not claimed
    missing: frozenset[tuple[int, int, int, int]]  # claimed, not found
    extra_lines: frozenset[tuple[int, int]]        # line keys found, not claimed
    missing_lines: frozenset[tuple[int, int]]      # line keys claimed, not found
    note: str = ""
    pairs_tested: int = 0  # pairs (s, t), s, t >= 0, the complete solver tested

    @property
    def matched(self) -> bool:
        return not (self.extra or self.missing or self.extra_lines or self.missing_lines)


def verify_lemma(entry: LemmaEntry, bound: int = 50) -> LemmaVerification:
    """Compare the system's complete solution set with the claimed one.

    Both sets are finite points plus lines (|u^2 + k1|, |u^2 + k2|, ±u, ±u)
    keyed (k1, k2): the solver's from `solve_system_complete`, the claims'
    from their templates (`SolutionFamily.points` and `line_key`).
    ``extra`` holds the solver's points with |s|, |t| <= bound that are
    neither claimed nor on a claimed line, ``missing`` the claimed points
    within the bound that are neither found nor on a line of the solver;
    ``extra_lines`` and ``missing_lines`` are the two differences of the key
    sets.  Each point costs one O(1) test and nothing loops to the bound, so
    the cost and the size of every report do not depend on it.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    counters = {"pairs_tested": 0}
    finite, families = solve_system_complete(entry.system, counters)
    claimed = set().union(*(fam.points() for fam in entry.claimed))
    lines = {fam.line_key() for fam in entry.claimed} - {None}

    def within(point: tuple[int, int, int, int]) -> bool:
        return abs(point[2]) <= bound and abs(point[3]) <= bound

    extra = {p for p in finite - claimed if within(p) and not _on_line(p, lines)}
    missing = {p for p in claimed - finite if within(p) and not _on_line(p, families)}
    note = ""
    if "curve" in entry.techniques:
        note = (
            "complete check: the factoring boxes of the system's quartics confine "
            "every solution to |s| + |t| <= 2 or to the line |s| = |t|, whose "
            "quartic curves are solved by factoring (solve_system_complete); "
            "the comparison is within the bound"
        )
    return LemmaVerification(
        entry_id=entry.id,
        bound=bound,
        extra=frozenset(extra),
        missing=frozenset(missing),
        extra_lines=frozenset(families - lines),
        missing_lines=frozenset(lines - families),
        note=note,
        pairs_tested=counters["pairs_tested"],
    )


def verify_all(entries: Iterable[LemmaEntry], bound: int = 50) -> list[LemmaVerification]:
    """verify_lemma on each entry, in order."""
    return [verify_lemma(e, bound) for e in entries]


class ObstructionResult(NamedTuple):
    """Outcome of the exhaustive residue scan for one mod-tagged entry."""

    entry_id: str
    modulus: int
    confirmed: bool
    witness: tuple[int, int, int, int] | None = None


def modular_obstruction(entry: LemmaEntry, modulus: int) -> ObstructionResult:
    """Exhaustively confirm that the entry's system has no solutions mod 4 or mod 8.

    Only valid on entries carrying the matching mod4/mod8 tag; both equations
    are imposed simultaneously on all modulus^4 residue vectors.
    """
    if modulus not in (4, 8):
        raise ValueError("modulus must be 4 or 8")
    tag = f"mod{modulus}"
    if tag not in entry.techniques:
        raise ValueError(f"entry {entry.id} is not tagged {tag}")
    hits = entry.system.residue_solutions(modulus)
    return ObstructionResult(
        entry_id=entry.id,
        modulus=modulus,
        confirmed=not hits,
        witness=hits[0] if hits else None,
    )


def quartic_curve_points(
    a4: int, a2: int, a0: int, bound: int
) -> list[tuple[int, int]]:
    """All (q, y) with |q| <= bound, y >= 0 and y^2 = a4 q^4 + a2 q^2 + a0, in ascending q.

    When a4 = k^2 > 0 and n = 4 a4 a0 - a2^2 != 0, the curve reads
    (Y - U)(Y + U) = m with U = h (a4 q^2 + a2/2), Y = h k y and m = h^2 n/4,
    where h = 1 for even a2 and h = 2 for odd a2.  Every point comes from one
    signed divisor pair d e = m, with Y = (e + d)/2 >= 0 and U = (e - d)/2,
    so the list is every integral point within the bound, whatever the bound.
    Other curves are scanned over q >= 0 (each point mirrored to -q) up to
    bound, or for a4 < 0 up to the box beyond which the quartic is negative;
    their list is complete only within the scan.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    k = is_perfect_square(a4)
    n = 4 * a4 * a0 - a2 * a2
    pts: set[tuple[int, int]] = set()
    if k and n:
        h = 1 + a2 % 2
        m, shift, scale = h * h * n // 4, h * a2 // 2, h * a4
        for p in positive_divisors(m):
            for d in (p, -p):
                e = m // d
                if e + d < 0 or (e - d) % 2:
                    continue
                u = (e - d) // 2 - shift  # h a4 q^2
                q = None if u % scale else is_perfect_square(u // scale)
                if q is not None and q <= bound:
                    y = (e + d) // (2 * h * k)  # exact: (Y/hk)^2 is the integer quartic
                    pts |= {(q, y), (-q, y)}
        return sorted(pts)
    # for a4 < 0 and q >= 1 the quartic is at most -|a4| q^4 + (|a2| + |a0|) q^2,
    # which is negative once q^2 > (|a2| + |a0|) / |a4|
    limit = bound if a4 >= 0 else min(bound, math.isqrt((abs(a2) + abs(a0)) // -a4) + 1)
    for q in range(limit + 1):
        y = is_perfect_square(a4 * q**4 + a2 * q * q + a0)
        if y is not None:
            pts |= {(q, y), (-q, y)}
    return sorted(pts)


def _quartic_box(a4: int, a2: int, a0: int) -> int:
    """A bound on q^2 at every integral point of y^2 = a4 q^4 + a2 q^2 + a0.

    Valid when a4 = k^2 > 0 and n = 4 a4 a0 - a2^2 != 0: then
    (2ky - 2a4 q^2 - a2)(2ky + 2a4 q^2 + a2) = n.  Two integers with product
    n != 0 differ by at most |n| + 1, so 2 |2a4 q^2 + a2| <= |n| + 1 and
    4a4 q^2 <= |n| + 1 + 2|a2|.
    """
    return (abs(4 * a4 * a0 - a2 * a2) + 1 + 2 * abs(a2)) // (4 * a4)


def phi2_curve_points(c: int) -> list[tuple[int, int]]:
    """Every integral point (X, Y), Y >= 0, of Y^2 = f(f(X)) for f(x) = x^2 + c, c != 0.

    The curve is Y^2 = X^4 + 2c X^2 + c^2 + c, that is (Y - U)(Y + U) = c with
    U = X^2 + c, and `quartic_curve_points` lists its points from the divisor
    pairs of c.  Each has X^2 = U - c <= 2|c|, within the bound |c| + 1.
    """
    if c == 0:
        raise ValueError("Y^2 = X^4 has a point at every X; c must be nonzero")
    return quartic_curve_points(1, 2 * c, c * c + c, abs(c) + 1)
