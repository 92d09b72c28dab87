"""Composition words, adjusted critical orbits, and the stability certificate.

Walks through the headline phenomenon for S = {x^2 - 4, x^2 - 12}: every word
except the constant x^2 - 12 words picks up a perfect square in its orbit, so
the square-free certificate succeeds exactly on the constant words.
"""

from itertools import product

from quadsemi import (
    GeneratorSet,
    SequenceSampler,
    certified_counts,
    monte_carlo_stability,
    orbit_entries,
    stability_certificate,
)

S = GeneratorSet.from_cs([-4, -12])
print("generators:", ", ".join(str(m) for m in S.maps))

print("\n-- single words --")
for word in [(0,), (1,)]:
    orbit = list(orbit_entries(S, word))
    verdict = stability_certificate(S, word)
    print(f"word {word}: orbit {orbit} -> {verdict.status}")

print("\n-- the constant word stays square-free, everything else dies --")
for word in [(1, 1, 1), (1, 0), (1, 1, 0), (0, 1, 1)]:
    orbit = list(orbit_entries(S, word))
    verdict = stability_certificate(S, word)
    where = f" (square at position {verdict.first_square_index})" \
        if not verdict.certified else ""
    print(f"word {word}: orbit {orbit} -> {verdict.status}{where}")

print("\n-- exhaustive scan, length <= 8 --")
words = sorted(w for n in range(1, 9) for w in product(range(2), repeat=n))
certified = [w for w in words if stability_certificate(S, w).certified]
print(f"{len(words)} words, {len(certified)} square-free:")
for w in certified:
    print("   ", w, "   (all letters x^2-12)" if set(w) == {1} else "")

print("\n-- Monte Carlo agreement --")
# exactly 1 of the 2^10 length-10 words survives, so the true rate is 2^-10
sampler = SequenceSampler.uniform(2, seed=7)
estimate = monte_carlo_stability(S, sampler, depth=10, trials=50_000)
print(f"estimated square-free rate at depth 10: {estimate:.6f} "
      f"(true value {2**-10:.6f})")

print("\n-- a single irreducible generator never dies --")
S1, L1 = GeneratorSet.from_cs([1]), 6
# one generator has one word per length; certified_counts counts the
# certified ones without building them
print(f"x^2+1 words up to length {L1}: {sum(certified_counts(S1, L1))}/{L1} certified")
