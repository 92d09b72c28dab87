"""The 48 case systems: registry, bounded solver, comparator, obstructions,
and the integral points of the quartic curves behind them.

Each case couples two equations in integers x, y, s, t:

    x^2 + A(s) = L(t)        and        y^2 + B(t) = R(s)

where A, B are the constants of a square-fixed-point map (v^2 - v^4) or a
square-2-cycle map (-1 - v^2 - v^4), fixed by the family letter, and L, R
select one preperiodic target of the partner map (+-q^2, +-(q^2-1) or
+-(q^2+1)).  The bundled registry lists all 48 systems together with their
complete solution sets and the techniques that settle them; it is data, not
code, so the case table can be audited without reading source
(docs/registry-schema.md documents the format, and QUADSEMI_REGISTRY
overrides the file path).

Everything below depends only on x^2, y^2, s^2, t^2, so solutions are stored
canonically with x, y >= 0 and s, t signed.  The bounded solver uses the
same symmetry to scan only s, t >= 0 and expand the signs afterwards, and it
scans a sandwich window instead of the (s, t) grid: for fixed t, y^2 must lie
within bound^2 of a value of size ~t^4, so only about bound^2 / (2 t^2)
candidates for y remain, each fixing s by one exact square test.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
from dataclasses import dataclass
from importlib import resources
from typing import Callable, Iterable

from .arith import is_perfect_square, residue_search

SCHEMA = "quadsemi-lemma-registry/1"
ENV_REGISTRY = "QUADSEMI_REGISTRY"

FIXED_FORM = "fixed"   # c = v^2 - v^4
CYCLE_FORM = "cycle"   # c = -1 - v^2 - v^4

_FORMS: dict[str, Callable[[int], int]] = {
    FIXED_FORM: lambda v: v * v - v**4,
    CYCLE_FORM: lambda v: -1 - v * v - v**4,
}

_SELECTORS: dict[str, Callable[[int], int]] = {
    "+q^2": lambda q: q * q,
    "-q^2": lambda q: -q * q,
    "+(q^2-1)": lambda q: q * q - 1,
    "-(q^2-1)": lambda q: -(q * q - 1),
    "+(q^2+1)": lambda q: q * q + 1,
    "-(q^2+1)": lambda q: -(q * q + 1),
}

# (left-constant form, right-constant form) per family, and the selectors a
# family may legally use (the preperiodic targets its partner map offers)
_FAMILY_FORMS = {
    "A": (FIXED_FORM, FIXED_FORM),
    "B": (FIXED_FORM, CYCLE_FORM),
    "C": (CYCLE_FORM, CYCLE_FORM),
}
_LEGAL_SELECTORS = {
    "A": ({"+q^2", "-q^2", "+(q^2-1)", "-(q^2-1)"},
          {"+q^2", "-q^2", "+(q^2-1)", "-(q^2-1)"}),
    "B": ({"+q^2", "-q^2", "+(q^2+1)", "-(q^2+1)"},
          {"+q^2", "-q^2", "+(q^2-1)", "-(q^2-1)"}),
    "C": ({"+q^2", "-q^2", "+(q^2+1)", "-(q^2+1)"},
          {"+q^2", "-q^2", "+(q^2+1)", "-(q^2+1)"}),
}

TECHNIQUES = {"mod4", "mod8", "sandwich", "curve", "factor"}


class RegistryError(ValueError):
    """The registry file is malformed or fails validation."""


@dataclass(frozen=True)
class System:
    """One coupled pair of equations, determined by family letter and selectors."""

    family: str
    left: str   # selector applied to t on the left equation
    right: str  # selector applied to s on the right equation

    def __post_init__(self) -> None:
        if self.family not in _FAMILY_FORMS:
            raise RegistryError(f"unknown family {self.family!r}")
        legal_left, legal_right = _LEGAL_SELECTORS[self.family]
        if self.left not in legal_left:
            raise RegistryError(
                f"selector {self.left!r} is not legal on the left of family {self.family}"
            )
        if self.right not in legal_right:
            raise RegistryError(
                f"selector {self.right!r} is not legal on the right of family {self.family}"
            )

    def left_constant(self, s: int) -> int:
        return _FORMS[_FAMILY_FORMS[self.family][0]](s)

    def right_constant(self, t: int) -> int:
        return _FORMS[_FAMILY_FORMS[self.family][1]](t)

    def x_square(self, s: int, t: int) -> int:
        """The value x^2 must take: L(t) - A(s)."""
        return _SELECTORS[self.left](t) - self.left_constant(s)

    def y_square(self, s: int, t: int) -> int:
        """The value y^2 must take: R(s) - B(t)."""
        return _SELECTORS[self.right](s) - self.right_constant(t)

    def residuals(self) -> tuple[Callable[[int, int, int, int], int], ...]:
        """Both equations as vanishing expressions in (x, y, s, t)."""
        return (
            lambda x, y, s, t: x * x - self.x_square(s, t),
            lambda x, y, s, t: y * y - self.y_square(s, t),
        )

    def is_solution(self, x: int, y: int, s: int, t: int) -> bool:
        return x * x == self.x_square(s, t) and y * y == self.y_square(s, t)


_COORD_RE = re.compile(r"^(±)?(?:(-?\d+)|(u)|(u\^2)|\(u\^2([+-]\d+)\))$")


@dataclass(frozen=True)
class _Coord:
    pm: bool
    a0: int
    a1: int  # coefficient of u
    a2: int  # coefficient of u^2

    def value(self, u: int) -> int:
        return self.a0 + self.a1 * u + self.a2 * u * u

    @property
    def uses_u(self) -> bool:
        return self.a1 != 0 or self.a2 != 0


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


@dataclass(frozen=True)
class SolutionFamily:
    """One claimed solution shape, e.g. "(±u^2, ±(u^2-1), ±u, ±u)" or "(0, ±1, ±1, 0)".

    Coordinates are read in the order (x, y, s, t); a ± expands to both signs
    independently; u ranges over the integers for parametric shapes.
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
        coords = tuple(_parse_coord(p) for p in parts)
        for label, coord in zip("xy", coords[:2]):
            if coord.a1 != 0:
                raise RegistryError(
                    f"{label}-coordinate of {template!r} may not be linear in u"
                )
        return cls(template=template, coords=coords)  # type: ignore[arg-type]

    @property
    def parametric(self) -> bool:
        return any(c.uses_u for c in self.coords)

    def instantiate(self, bound: int) -> set[tuple[int, int, int, int]]:
        """Canonical tuples (x>=0, y>=0, s, t) of this shape with |s|, |t| <= bound.

        All coordinates depend on u only through u^2 or as ±u, so u >= 0 with
        independent sign expansion of the ± marks covers every instance.
        """
        xs, ys, ss, ts = self.coords
        out: set[tuple[int, int, int, int]] = set()
        u_range: Iterable[int] = range(bound + 1) if self.parametric else (0,)
        for u in u_range:
            x, y = abs(xs.value(u)), abs(ys.value(u))
            for s in {ss.value(u), -ss.value(u)} if ss.pm else {ss.value(u)}:
                if abs(s) > bound:
                    continue
                for t in {ts.value(u), -ts.value(u)} if ts.pm else {ts.value(u)}:
                    if abs(t) > bound:
                        continue
                    out.add((x, y, s, t))
        return out


@dataclass(frozen=True)
class LemmaEntry:
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

    def claimed_solutions(self, bound: int) -> set[tuple[int, int, int, int]]:
        out: set[tuple[int, int, int, int]] = set()
        for fam in self.claimed:
            out |= fam.instantiate(bound)
        return out


def registry_path() -> str:
    """Path of the registry in effect: QUADSEMI_REGISTRY if set, else the bundled file."""
    override = os.environ.get(ENV_REGISTRY)
    if override:
        return override
    return str(resources.files(__package__) / "data" / "lemma_registry.json")


def registry_checksum(path: str | None = None) -> str:
    """sha256 hex digest of the registry file bytes."""
    with open(path or registry_path(), "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def registry_provenance() -> dict[str, str]:
    """Provenance of the registry in effect, free of any filesystem path.

    ``source`` is "env" when QUADSEMI_REGISTRY names the file, else
    "bundled"; ``sha256`` pins the file's content.  Reports carry this
    instead of the path, so they do not depend on the install location.
    """
    return {"source": "env" if os.environ.get(ENV_REGISTRY) else "bundled",
            "sha256": registry_checksum()}


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


def registry(path: str | None = None, validate_claims: bool = True) -> list[LemmaEntry]:
    """Load and validate the case registry.

    Checks the schema tag, the 48-entry count (16 per family), the field
    types of each entry, selector legality, technique tags, symmetry targets
    (which must name an earlier entry), and that every claimed solution
    family actually satisfies its system for |u| <= 10.  Raises
    RegistryError on any defect.
    """
    path = path or registry_path()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
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
        claimed = tuple(SolutionFamily.parse(t) for t in rec["solutions"])
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

    if validate_claims:
        for entry in entries:
            for fam in entry.claimed:
                for x, y, s, t in fam.instantiate(10):
                    if not entry.system.is_solution(x, y, s, t):
                        raise RegistryError(
                            f"{entry.id}: claimed family {fam.template!r} fails "
                            f"the system at (x,y,s,t)=({x},{y},{s},{t})"
                        )
    return entries


def solve_system_bounded(
    system: System, bound: int
) -> set[tuple[int, int, int, int]]:
    """Exhaustive canonical solutions (x>=0, y>=0, s, t) with |s|, |t| <= bound.

    Both equations depend on s and t only through s^2 and t^2, so the scan
    covers s, t >= 0 and expands the signs afterwards.  With the right
    selector written R(s) = sigma*s^2 + rho (sigma = +-1), fixing t turns the
    right equation into y^2 = sigma*s^2 + k with k = rho - B(t), so y^2 lies
    in a window of width bound^2 next to k.  Once |k| ~ t^4 is large only
    about bound^2 / (2 t^2) values of y fit (a value strictly between
    consecutive squares is no square), and each one determines s by a single
    square test; while the window still holds more than bound + 1 values of
    y, s is scanned directly instead.  The cost is O(bound^1.5) exact square
    tests instead of the full grid's O(bound^2).
    """
    if bound < 0:
        raise ValueError("bound must be >= 0")
    left_sel = _SELECTORS[system.left]
    rho = _SELECTORS[system.right](0)
    sigma = _SELECTORS[system.right](1) - rho
    span = bound * bound
    sols: set[tuple[int, int, int, int]] = set()
    for t in range(bound + 1):
        lt = left_sel(t)
        k = rho - system.right_constant(t)
        lo, hi = (k, k + span) if sigma > 0 else (k - span, k)
        if hi < 0:
            continue
        y_min = math.isqrt(lo - 1) + 1 if lo > 0 else 0
        y_max = math.isqrt(hi)
        if y_max - y_min + 1 > bound + 1:
            pairs = ((s, is_perfect_square(sigma * s * s + k))
                     for s in range(bound + 1))
        else:
            pairs = ((is_perfect_square(sigma * (y * y - k)), y)
                     for y in range(y_min, y_max + 1))
        for s, y in pairs:
            if s is None or y is None:
                continue
            x = is_perfect_square(lt - system.left_constant(s))
            if x is None:
                continue
            for ss in {s, -s}:
                for tt in {t, -t}:
                    sols.add((x, y, ss, tt))
    return sols


@dataclass(frozen=True)
class LemmaVerification:
    """Search-vs-claim comparison for one entry at one bound."""

    entry_id: str
    bound: int
    extra: frozenset[tuple[int, int, int, int]]    # found by search, not claimed
    missing: frozenset[tuple[int, int, int, int]]  # claimed, not found
    note: str = ""

    @property
    def matched(self) -> bool:
        return not self.extra and not self.missing


def verify_lemma(entry: LemmaEntry, bound: int = 50) -> LemmaVerification:
    """Compare the exhaustive bounded search against the claimed solution set."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    found = solve_system_bounded(entry.system, bound)
    claimed = entry.claimed_solutions(bound)
    note = ""
    if "curve" in entry.techniques:
        note = (
            "bounded desk-scale check; the integral points of the associated "
            "quartic curves are complete by factoring (quartic_curve_points), "
            "and the step from this system to its curve is the paper's argument"
        )
    return LemmaVerification(
        entry_id=entry.id,
        bound=bound,
        extra=frozenset(found - claimed),
        missing=frozenset(claimed - found),
        note=note,
    )


def verify_all(entries: Iterable[LemmaEntry], bound: int = 50) -> list[LemmaVerification]:
    """verify_lemma on each entry, in order."""
    return [verify_lemma(e, bound) for e in entries]


@dataclass(frozen=True)
class ObstructionResult:
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
    hits = residue_search(entry.system.residuals(), 4, modulus)
    return ObstructionResult(
        entry_id=entry.id,
        modulus=modulus,
        confirmed=not hits,
        witness=hits[0] if hits else None,
    )


def quartic_curve_points(
    a4: int, a2: int, a0: int, bound: int
) -> list[tuple[int, int]]:
    """All (q, y) with |q| <= bound, y >= 0 and y^2 = a4 q^4 + a2 q^2 + a0.

    The curve depends on q only through q^2, so q >= 0 is scanned and each
    hit with q > 0 is mirrored to -q; points come in ascending q.  When a4 is
    a positive square and 4 a4 a0 != a2^2, factoring confines every integral
    point to a box |q| <= Q, and the scan stops there: the list is then every
    integral point of the curve as soon as bound >= Q.  When a4 < 0 the
    quartic is negative beyond a box of the same kind, and the scan stops
    there too.  Other curves are scanned to bound, and their list is
    complete only within it.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    limit = bound
    k = is_perfect_square(a4)
    n = 4 * a4 * a0 - a2 * a2
    if k and n:
        # with a4 = k^2: (2ky - 2a4 q^2 - a2)(2ky + 2a4 q^2 + a2) = n.  Two
        # integers with product n != 0 differ by at most |n| + 1, so
        # 2 |2a4 q^2 + a2| <= |n| + 1 and 4a4 q^2 <= |n| + 1 + 2|a2|
        limit = min(bound, math.isqrt((abs(n) + 1 + 2 * abs(a2)) // (4 * a4)))
    elif a4 < 0:
        # for q >= 1 the quartic is at most -|a4| q^4 + (|a2| + |a0|) q^2,
        # which is negative once q^2 > (|a2| + |a0|) / |a4|
        limit = min(bound, math.isqrt((abs(a2) + abs(a0)) // -a4) + 1)
    pts = []
    for q in range(limit + 1):
        y = is_perfect_square(a4 * q**4 + a2 * q * q + a0)
        if y is not None:
            pts.append((q, y))
    return [(-q, y) for q, y in reversed(pts) if q > 0] + pts
