"""Auditing the 48 case systems behind the classification.

The registry is a data file (src/quadsemi/data/lemma_registry.json) holding
each system, its complete solution set, and the techniques that settle it.
This demo replays the whole audit: each system's complete solution set
against the claims, residue obstructions, and the integral points of the
quartic curves.
"""

from collections import Counter

from quadsemi import (
    modular_obstruction,
    quartic_curve_points,
    registry,
    solve_system_complete,
    verify_all,
    verify_lemma,
)

entries = registry()
print(f"registry: {len(entries)} entries")
tech = Counter(t.split(':')[0] for e in entries for t in e.techniques)
print("technique usage:", dict(sorted(tech.items())))

print("\n-- one entry in detail --")
e = next(x for x in entries if x.id == "case1.1")
print(f"{e.id}: family {e.system.family}, left {e.system.left}, "
      f"right {e.system.right}")
print("claimed:", [f.template for f in e.claimed])
finite, lines = solve_system_complete(e.system)
print("complete solutions:", sorted(finite),
      "plus", [f"(|u^2{k1:+d}|, |u^2{k2:+d}|, ±u, ±u)" for k1, k2 in sorted(lines)])
print("verify at bound 50:", "match" if verify_lemma(e, 50).matched else "MISMATCH")

print("\n-- the full audit at bound 50 --")
results = verify_all(entries, bound=50)
print(f"{sum(r.matched for r in results)}/{len(results)} entries match")

print("\n-- modular obstructions --")
for entry in entries:
    for modulus in (4, 8):
        if f"mod{modulus}" in entry.techniques:
            res = modular_obstruction(entry, modulus)
            print(f"{entry.id}: no solutions mod {modulus} -> "
                  f"{'confirmed' if res.confirmed else 'REFUTED'}")

print("\n-- quartic curves behind the case analysis --")
for label, coeffs in [("y^2 = q^4 + 1", (1, 0, 1)),
                      ("y^2 = q^4 - 1", (1, 0, -1)),
                      ("y^2 = q^4 - q^2 + 1", (1, -1, 1)),
                      ("y^2 = q^4 + q^2 + 1", (1, 1, 1)),
                      ("y^2 = q^4 + q^2 + 2", (1, 1, 2)),
                      ("y^2 = q^4 + 2q^2 + 2", (1, 2, 2))]:
    pts = quartic_curve_points(*coeffs, bound=1000)
    print(f"{label}: {pts if pts else 'no integral points'}")
print("each list is complete: a4 = 1 is a square, so factoring bounds |q|")
