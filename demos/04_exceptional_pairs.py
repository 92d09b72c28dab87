"""Exceptional pairs and the constructive irreducible prefixes.

A pair is exceptional when both maps have square periodic points and each
map's integer image meets the other's preperiodic set.  The classification
says these are exactly {-1,-3} and {s^2-s^4, -1-s^2-s^4}.  Below, that list
is derived from the complete solutions of the 48 case systems, the scan
lists it in a box, and the witness definition confirms every listed pair;
the prefix construction then turns the pairs into explicit families of
irreducible compositions.
"""

import itertools

from quadsemi import (
    GeneratorSet,
    certify_no_square_images,
    classify_from_systems,
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

# each solution (x, y, s, t) of a system x^2 + A(s) = L(t), y^2 + B(t) = R(s)
# is an exceptional pair {A(s), B(t)}, and each line family a family of them
print("\n-- the classification derived from the 48 solved case systems --")
derived = classify_from_systems()


def named(systems):
    return ", ".join(f"{x.family} {x.left} {x.right}" for x in systems)


for p in derived.finite:
    print(f"finite pair {p.pair} from {named(p.systems)}")
for f in derived.families:
    print(f"family {f.shapes[0]} x {f.shapes[1]} at every s from {named(f.systems)}")
print("sporadic (on no family):", derived.sporadic())

# the scan lists that classification in a box, so it reaches wide boxes;
# the witness definition confirms every pair it lists
for e in (2, 6, 9):
    print(f"\n-- grid scan [-10^{e}, 10^{e}] --")
    pairs = scan_exceptional_pairs(-10**e, 10**e)
    assert all(is_exceptional_pair(*p).is_exceptional for p in pairs)
    unordered = sorted({tuple(sorted(p)) for p in pairs})
    print(f"{len(pairs)} ordered pairs, each confirmed by its witnesses; "
          f"the most negative: {unordered[0]}")
    if e == 2:
        print("exceptional pairs:", unordered)

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
