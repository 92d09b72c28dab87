"""Rational periodic and preperiodic points of x^2 + c.

Shows the two one-parameter shapes whose periodic part contains a perfect
square, the closed-form preperiodic sets they produce, and a direct orbit
simulation that confirms every claim.
"""

from quadsemi import (
    portrait,
    preper_set,
    rational_periodic_points,
    recognize_square_periodic,
)

print("-- portraits of some small maps --")
for c in [0, -1, -2, -3, -12, -21, 1, 2]:
    p = portrait(c)
    form = p.square_form
    form_text = f"{form.kind} (s={form.s})" if form else "no square periodic point"
    print(f"c={c:>4}: fixed {sorted(p.fixed_points) or '-'}, "
          f"2-cycles {sorted(map(list, p.two_cycles)) or '-'}, "
          f"preperiodic {sorted(p.preper) or '-'}   [{form_text}]")

print("\n-- the square-fixed-point family c = s^2 - s^4 --")
for s in range(4):
    c = s * s - s**4
    print(f"s={s}: c={c:>4}, preperiodic {sorted(preper_set(c))}")

print("\n-- the square-2-cycle family c = -1 - s^2 - s^4 --")
for s in range(4):
    c = -1 - s * s - s**4
    fixed, cycles = rational_periodic_points(c)
    print(f"s={s}: c={c:>4}, 2-cycle {sorted(map(list, cycles))}, "
          f"preperiodic {sorted(preper_set(c))}")


def simulated_preper(c):
    """The a with |a| <= |c| + 1 whose orbit under x^2 + c repeats a value.

    An orbit that leaves |x| <= |c| + 1 escapes: |x^2 + c| > |x| beyond it.
    """
    bound = abs(c) + 1
    out = set()
    for a in range(-bound, bound + 1):
        seen, v = set(), a
        while abs(v) <= bound and v not in seen:
            seen.add(v)
            v = v * v + c
        if abs(v) <= bound:
            out.add(a)
    return out


print("\n-- closed forms vs orbit simulation --")
disagreements = sum(preper_set(c) != simulated_preper(c) for c in range(-300, 301))
print(f"|c| <= 300: {disagreements} disagreements "
      f"between preper_set and the orbit simulation")

print("\n-- maps outside both families have no square periodic point --")
for c in [-4, 5, -11]:
    print(f"c={c}: recognize_square_periodic -> {recognize_square_periodic(c)}")
