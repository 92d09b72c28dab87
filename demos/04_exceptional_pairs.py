"""Exceptional pairs and the constructive irreducible prefixes.

A pair is exceptional when both maps have square periodic points and each
map's integer image meets the other's preperiodic set.  The classification
says these are exactly {-1,-3} and {s^2-s^4, -1-s^2-s^4}; the scan below
rediscovers that list from the witness definition alone, and the prefix
construction turns it into explicit families of irreducible compositions.
"""

import itertools

from quadsemi import (
    GeneratorSet,
    certify_no_square_images,
    construct_irreducible_prefix,
    is_exceptional_pair,
    scan_exceptional_pairs,
    stability_certificate,
)

print("-- classify a few pairs --")
for c1, c2 in [(-12, -21), (-1, -3), (-4, -12), (1, 3)]:
    v = is_exceptional_pair(c1, c2)
    print(f"({c1}, {c2}): exceptional={v.is_exceptional}, "
          f"closed_form={v.closed_form}, witnesses={v.image_witnesses}")

print("\n-- grid scan [-100, 100] --")
pairs = scan_exceptional_pairs(-100, 100)
unordered = sorted({tuple(sorted(p)) for p in pairs})
print("exceptional pairs:", unordered)

# condition (1) forces both constants into the two square shapes, so the
# scan pairs only those constants; an exact test of condition (2), one
# square test per preperiodic target, leaves the full verdict to the
# exceptional pairs alone, so the scan reaches far wider boxes
for e in (6, 9):
    print(f"\n-- grid scan [-10^{e}, 10^{e}] --")
    pairs = scan_exceptional_pairs(-10**e, 10**e)
    unordered = sorted({tuple(sorted(p)) for p in pairs})
    assert all(is_exceptional_pair(*p).closed_form is not None for p in unordered)
    print(f"{len(pairs)} ordered pairs; the most negative: {unordered[0]}")

print("\n-- square-image certificates --")
for c1, c2 in [(1, 3), (-12, -21)]:
    cert = certify_no_square_images(c1, c2)
    print(f"outer {c1}, inner {c2}: {cert.status} "
          f"(N={cert.n_iterate}; {cert.reason})")

print("\n-- constructive prefixes --")
for cs in [[1, 3], [-12, -21], [-12, -21, -4]]:
    S = GeneratorSet.from_cs(cs)
    recipe = construct_irreducible_prefix(S)
    print(f"S={cs}: {recipe.shape}, outer {S.maps[recipe.outer]}, "
          f"N={recipe.n_iterate}, prefix word {recipe.prefix_word()}")
    n_checked = 0
    for n in range(1, 4):
        for F in itertools.product(range(len(S)), repeat=n):
            assert stability_certificate(S, recipe.expand(F)).certified
            n_checked += 1
    print(f"        every one of the {n_checked} extensions of length <= 3 "
          "is certified irreducible")
