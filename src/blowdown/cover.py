"""Unramified double-cover lifting of configurations.

Which curves split upstairs is monodromy data that cannot be inferred from
intersection numbers alone, so a lift is driven by a declaration: every base
curve maps either to two disjoint copies (Split) or to one connected double
cover (Connected, shape doubled with genus 2g - 1), and the cover's pairing
table is declared explicitly.  It lies over the base (pullback_violations)
when, for every base pair, the sum of cover pairings over the preimages of
{a, b} is 2 * (a . b), and every cover pairing equals that of its image
under the deck involution tau, which swaps the two preimages of a split
curve or a base blow-up.  Each base blow-up lifts to two: one over its
centre and one at that point's tau-image (lift_violations).  Such a pair
changes the cover over each base pair by twice what the base step does, so
a cover that lies over its base still does after the program.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping, Sequence

from .configuration import ChainSearch, Configuration, Curve, InvariantSet, PointSpec, pair_key
from .hjcf import Chain


class CoverError(ValueError):
    pass


@dataclass(frozen=True)
class SplittingDecl:
    """Lift declaration: preimage names per base curve plus cover pairings.

    Each pairing key (a, b) has a < b.  build also sorts the entries; the
    scenario parser keeps them in file order.
    """

    splits: tuple[tuple[str, tuple[str, str]], ...]
    connected: tuple[tuple[str, str], ...] = ()
    pairings: tuple[tuple[tuple[str, str], int], ...] = ()

    @classmethod
    def build(cls, splits: Mapping[str, tuple[str, str]],
              connected: Mapping[str, str] | None = None,
              pairings: Mapping[tuple[str, str], int] | None = None) -> "SplittingDecl":
        return cls(
            splits=tuple(sorted((k, (v[0], v[1])) for k, v in splits.items())),
            connected=tuple(sorted((connected or {}).items())),
            pairings=tuple(sorted((pair_key(*k), v)
                                  for k, v in (pairings or {}).items())),
        )

    def preimages(self, base_id: str) -> tuple[str, ...]:
        for k, (a, b) in self.splits:
            if k == base_id:
                return (a, b)
        for k, v in self.connected:
            if k == base_id:
                return (v,)
        raise CoverError(f"no lift declared for base curve {base_id!r}")

    @cached_property
    def base_of(self) -> dict[str, str]:
        """The base curve under each declared cover curve (built once; read only)."""
        base_of = {x: k for k, pre in self.splits for x in pre}
        base_of.update((x, k) for k, x in self.connected)
        return base_of


def lift_configuration(base: Configuration, decl: SplittingDecl) -> Configuration:
    """Lift a configuration along the declared unramified double cover."""
    if base.pi1_order is None:
        raise CoverError("base fundamental-group order unknown; cannot certify "
                         "a connected double cover")
    if base.pi1_order % 2 != 0:
        raise CoverError(f"base pi1 order {base.pi1_order} is odd; no connected "
                         "double cover exists")

    lifts = list(decl.splits) + [(k, (x,)) for k, x in decl.connected]
    declared = {k for k, _ in lifts}
    if len(lifts) != len(base.curves) or declared != base.curves.keys():
        raise CoverError("splitting declaration mismatch: missing "
                         f"{sorted(base.curves.keys() - declared)}, "
                         f"unknown {sorted(declared - base.curves.keys())}")

    curves: dict[str, Curve] = {}
    for base_id, preimages in lifts:
        src = base.curves[base_id]
        if len(preimages) == 1 and src.genus < 1:
            raise CoverError(f"{base_id!r}: a rational curve has no connected unramified "
                             "double cover; declare a split")
        shape = ((src.self_int, src.genus, src.k_degree, src.node_count) if len(preimages) == 2
                 else (2 * src.self_int, 2 * src.genus - 1, 2 * src.k_degree, 2 * src.node_count))
        for new_id in preimages:
            if new_id in curves:
                raise CoverError(f"cover curve id {new_id!r} reused")
            curves[new_id] = Curve(new_id, *shape)

    pairings: dict[tuple[str, str], int] = {}
    for (a, b), v in decl.pairings:  # keys already sorted
        if a not in curves or b not in curves:
            cid = a if a not in curves else b
            raise CoverError(f"cover pairing names unknown curve {cid!r}")
        if v < 0:
            raise CoverError(f"negative cover pairing {a}.{b}")
        if v:
            pairings[a, b] = v

    ambient = InvariantSet(2 * base.ambient.e, 2 * base.ambient.sigma)
    cover = Configuration(curves, pairings, ambient, base.pi1_order // 2)
    problems = pullback_violations(base, cover, decl.base_of)
    if problems:
        raise CoverError(problems[0])
    return cover


def _tau(base_of: Mapping[str, str]) -> dict[str, str]:
    """The deck involution: it swaps the two cover ids over a base id, fixes a lone one."""
    first, tau = {}, {}
    for x, a in base_of.items():
        y = tau[x] = first.setdefault(a, x)
        tau[y] = x
    return tau


def pullback_violations(base: Configuration, cover: Configuration,
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
    tau, swapped = _tau(base_of), []
    for (x, y), v in cover.pairings.items():
        image = pair_key(tau[x], tau[y])
        w = cover.pairings.get(image, 0)
        if v != w and v and (not w or (x, y) < image):
            swapped.append(f"deck involution violated: {x}.{y} = {v} but "
                           f"{image[0]}.{image[1]} = {w}")
    return problems + sorted(swapped)


def _centre(point: PointSpec, rename: Callable[[str], str] = str) -> tuple:
    """point's incidences, node and consumed intersections, curve ids renamed, in any
    order; a consume equal to the product of the multiplicities is the default, left out."""
    m = point.multiplicity
    return (sorted([(rename(x), k) for x, k in point.incidences]),
            point.node_of and rename(point.node_of),
            sorted([(sorted([rename(x), rename(y)]), v)
                    for (x, y), v in point.pairwise_local if v != m(x) * m(y)]))


def lift_violations(steps: Sequence[PointSpec], lifts: Sequence[tuple[str, PointSpec, PointSpec]],
                    base_of: Mapping[str, str]) -> list[str]:
    """One message per lift (base step id, a, b) not over its step, in steps' order: a's
    curves must map one to one onto the step's under base_of, with the same multiplicities,
    node and consumed intersections, and b must be a's tau-image."""
    over, tau, problems = base_of.__getitem__, _tau(base_of).__getitem__, []
    for step, (_, a, b) in zip(steps, lifts):
        if _centre(a, over) != _centre(step):
            problems.append(f"lift of {step.new_id}: {a.new_id} does not lie over {step.new_id}")
        elif _centre(a, tau) != _centre(b):
            problems.append(f"lift of {step.new_id}: {b.new_id} is not the image of {a.new_id}")
    return problems


def lift_chains(cover: Configuration, base_of: Mapping[str, str], base_chains: Sequence[tuple],
                targets: Sequence[Chain]) -> tuple[ChainSearch, tuple[int, ...]]:
    """Embed the targets among the lifts of the base chains; give the base
    chain under each embedding.  A base chain lifts once from each preimage
    of its first curve, each step moving to the one preimage of the next curve
    at pairing 1 (none or two end the lift).  Each target takes the least lift
    with its entries, either way round, that misses those taken before it."""
    near, lifts = cover.neighbours, []  # (ids, entries, base chain), in both directions
    for k, chain in enumerate(base_chains):
        for path in ([x] for x, a in base_of.items() if a == chain[0]):
            for c in chain[1:]:
                step = [y for y, v in near[path[-1]].items() if v == 1 and base_of.get(y) == c]
                if len(step) != 1:
                    break
                path.append(step[0])
            else:
                entries = tuple(-cover.curves[x].self_int for x in path)
                lifts += [(tuple(path), entries, k), (tuple(path[::-1]), entries[::-1], k)]
    used, found = set(), []
    for t, target in enumerate(targets):
        hits = [l for l in lifts if l[1] == target.entries and used.isdisjoint(l[0])]
        if not hits:
            return ChainSearch(False, (), t), ()
        found.append(min(hits))
        used.update(found[-1][0])
    return ChainSearch(True, tuple(l[0] for l in found)), tuple(l[2] for l in found)
