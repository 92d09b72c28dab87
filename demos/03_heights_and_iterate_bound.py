"""Canonical heights, integral points on Y^2 = f(f(X)), and the iterate bound.

The bound N has the property that f^N(a) being a perfect square forces a to
be preperiodic; it is assembled from an exact integral-point enumeration
(divisor factoring of the constant) and a box-searched minimal positive
height, and the box caveat travels with every result as a rigor flag.
No certificate uses this bound any more: the square-image certificates of
demo 04 take their N exactly from the same integral points and their
integer preimages, and carry the rigor flag "exact".
"""

from quadsemi import (
    QuadraticMap,
    canonical_height,
    compute_iterate_bound,
    integral_points_on_phi2,
    min_positive_height,
)

f = QuadraticMap(-12)
print(f"map: {f}")

print("\n-- canonical heights, 30 iterations --")
for a in [4, -3, 0, 1, 5]:
    est = canonical_height(f, a, 30)
    kind = "preperiodic" if est.value <= est.error else "wandering"
    print(f"a={a:>3}: value {est.value:.9f}  +- {est.error:.2e}   [{kind}]")

print("\n-- height doubling in action --")
a = 5
h_a = canonical_height(f, a, 30).value
h_fa = canonical_height(f, f(a), 30).value
print(f"h(5) = {h_a:.9f},  h(f(5)) = {h_fa:.9f},  ratio {h_fa / h_a:.9f}")

print("\n-- integral points on Y^2 = f(f(X)) by divisor factoring --")
for c in [-12, 3, 2, -30]:
    pts = sorted(integral_points_on_phi2(QuadraticMap(c)))
    print(f"c={c:>4}: {pts if pts else 'no integral points'}")

print("\n-- the iterate bound --")
for c in [-12, -21, 3, 1, 17]:
    m = QuadraticMap(c)
    hmin, rigor = min_positive_height(m)
    bound = compute_iterate_bound(m)
    print(f"c={c:>4}: hmin {bound.hmin:.6f}, B {bound.B:.6f}, "
          f"N = {bound.N}   [{rigor}]")

print("\nA square value of f^N can only come from a preperiodic argument.")
print("The prefix certificates (demo 04) need no height: f^N(z) is a square")
print("exactly when f^(N-2)(z) is the X of an integral point on Y^2 = f(f(X)).")
