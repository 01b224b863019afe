"""The three-clause rule that a cover's pairing table lies over its base.

This is how the cover was checked before its table was derived from the
base's: the cover pairings over each base pair sum to twice the base
pairing, the two preimages of a split curve are disjoint, and every cover
pairing equals that of its image under the deck involution tau.  The tests
hold ``cover.pullback_violations`` and ``cover.lift_configuration`` to it.
"""

from typing import Mapping

from blowdown.configuration import Configuration, pair_key


def tau(base_of: Mapping[str, str]) -> dict[str, str]:
    """The deck involution: it swaps the two cover ids over a base id, fixes a lone one."""
    first, image = {}, {}
    for x, a in base_of.items():
        y = image[x] = first.setdefault(a, x)
        image[y] = x
    return image


def reference_violations(base: Configuration, cover: Configuration,
                         base_of: Mapping[str, str]) -> list[str]:
    """Where the cover's pairings fail to lie over the base (cover id -> base
    id in base_of); empty means they do.  Pair-sum problems come first, in
    sorted order of the base pair, then the cover pairings that differ from
    the pairing of their tau-image, in sorted order."""
    # excess[(a, b)] is the cover total minus 2 * (a . b), and excess[(a, "")]
    # the pairing between the two preimages of a; only pairs with a pairing can fail
    excess = {key: -2 * v for key, v in base.pairings.items()
              if key[0] in base.curves and key[1] in base.curves}
    for (x, y), v in cover.pairings.items():
        a, b = base_of[x], base_of[y]
        key = (a, "") if a == b else (a, b) if a < b else (b, a)
        excess[key] = excess.get(key, 0) + v
    problems = []
    for a, b in sorted(key for key, d in excess.items() if d):
        if not b:
            problems.append(f"the two preimages of split curve {a!r} must be disjoint "
                            "(their self-intersections already account for the pullback)")
        else:
            want = 2 * base.pairing(a, b)
            problems.append(f"pullback pairing sum violated for {a}.{b}: cover total "
                            f"{want + excess[a, b]}, expected {want}")
    # a broken pair is named once, from its nonzero side
    image, swapped = tau(base_of), []
    for (x, y), v in cover.pairings.items():
        other = pair_key(image[x], image[y])
        w = cover.pairings.get(other, 0)
        if v != w and v and (not w or (x, y) < other):
            swapped.append(f"deck involution violated: {x}.{y} = {v} but "
                           f"{other[0]}.{other[1]} = {w}")
    return problems + sorted(swapped)
