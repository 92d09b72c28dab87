"""Composition words, adjusted critical orbits, and the stability certificate.

Walks through the headline phenomenon for S = {x^2 - 4, x^2 - 12}: every word
except the constant x^2 - 12 words picks up a perfect square in its orbit, so
the square-free certificate succeeds exactly on the constant words.
"""

from quadsemi import (
    GeneratorSet,
    SequenceSampler,
    monte_carlo_stability,
    orbit_entries,
    scan_words,
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
results = scan_words(S, 8)
certified = [w for w, v in results if v.certified]
print(f"{len(results)} words, {len(certified)} square-free:")
for w in certified:
    print("   ", w, "   (all letters x^2-12)" if set(w) == {1} else "")

print("\n-- Monte Carlo agreement --")
# exactly 1 of the 2^10 length-10 words survives, so the true rate is 2^-10
sampler = SequenceSampler.uniform(2, seed=7)
estimate = monte_carlo_stability(S, sampler, depth=10, trials=50_000)
print(f"estimated square-free rate at depth 10: {estimate:.6f} "
      f"(true value {2**-10:.6f})")

print("\n-- a single irreducible generator never dies --")
S1 = GeneratorSet.from_cs([1])
results = scan_words(S1, 6)
print(f"x^2+1 words up to length 6: "
      f"{sum(v.certified for _, v in results)}/{len(results)} certified")
