"""Unramified double-cover lifting of configurations.

Which curves split upstairs is monodromy data that cannot be inferred from
intersection numbers alone, so a lift is driven by a declaration: every base
curve maps either to two disjoint copies (Split) or to one connected double
cover (Connected, shape doubled with genus 2g - 1).  The deck involution tau
swaps the two preimages of a split curve, and the cover pairings over a base
pair a.b = k sum to 2k.  So the cover's table follows from the base's
(lifted_pairings): for split X and Y, Xa.Ya = Xb.Yb = s and Xa.Yb = Xb.Ya =
k - s, with the sheet count s stated; otherwise each pairing over a.b is k,
or 2k between connected curves.  Each base blow-up lifts to two: one over
its centre and one at that point's tau-image (lift_violations).  Such a pair
changes the cover over each base pair by twice what the base step does, so
a cover that lies over its base still does after the program.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Collection, Mapping, Sequence

from .configuration import ChainSearch, Configuration, Curve, InvariantSet, PointSpec, pair_key
from .hjcf import Chain


class CoverError(ValueError):
    pass


@dataclass(frozen=True)
class SplittingDecl:
    """Lift declaration: preimage names per base curve, a split's sheet a first, and
    stated cover pairings (constraints of lifted_pairings) keyed (a, b) with a < b.
    build sorts the entries; the scenario parser keeps them in file order."""

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

    pairings, failed = lifted_pairings(base, decl.base_of, decl.pairings)
    if failed:
        raise CoverError(min(failed))
    ambient = InvariantSet(2 * base.ambient.e, 2 * base.ambient.sigma)
    return Configuration(curves, pairings, ambient, base.pi1_order // 2)


def lifted_pairings(base: Configuration, base_of: Mapping[str, str],
                    stated: Collection[tuple[tuple[str, str], int]]) -> tuple[dict, list[str]]:
    """The cover's table over base (cover id -> base id, a split's sheet a first)
    and what fails: a split pair a.b = k with no stated line, or whose first
    one gives s outside 0..k, and each stated line that differs from the table."""
    pre: dict[str, list[str]] = {}
    for x, a in base_of.items():
        pre.setdefault(a, []).append(x)
    first: dict[tuple[str, str], tuple] = {}  # base pair -> its first stated line
    try:
        for line in stated:
            a, b = base_of[line[0][0]], base_of[line[0][1]]
            first.setdefault((a, b) if a < b else (b, a), line)
    except KeyError as err:
        raise CoverError(f"cover pairing names unknown curve {err.args[0]!r}") from None
    table, failed = {}, []
    for (a, b), k in base.pairings.items():
        xs, ys = pre.get(a, ()), pre.get(b, ())
        if len(xs) == 2 == len(ys) and k > 0:
            if (a, b) not in first:
                failed.append(f"split pair {a}.{b} = {k} has no stated cover pairing")
                continue
            (x, y), v = first[a, b]
            s = v if (x in (xs[0], ys[0])) == (y in (xs[0], ys[0])) else k - v  # same sheet
            if not 0 <= s <= k:
                failed.append(f"cover pairing {x}.{y} = {v} is outside 0..{k}, over {a}.{b}")
            cells = [(xs[0], ys[0], s), (xs[1], ys[1], s),
                     (xs[0], ys[1], k - s), (xs[1], ys[0], k - s)]
        else:
            cells = [(x, y, 2 * k // (len(xs) * len(ys))) for x in xs for y in ys]
        for x, y, w in cells:
            if w > 0:
                table[(x, y) if x < y else (y, x)] = w
    failed += [f"cover pairing {x}.{y} = {v} does not lie over the base: the lift gives {w}"
               for (x, y), v in stated if (w := table.get((x, y), 0)) != v]
    return table, failed


def _tau(base_of: Mapping[str, str]) -> dict[str, str]:
    """The deck involution: it swaps the two cover ids over a base id, fixes a lone one."""
    first, tau = {}, {}
    for x, a in base_of.items():
        y = tau[x] = first.setdefault(a, x)
        tau[y] = x
    return tau


def pullback_violations(base: Configuration, cover: Configuration,
                        base_of: Mapping[str, str]) -> list[str]:
    """Where the cover's pairings fail to lie over the base (cover id -> base id in base_of),
    sorted: what lifted_pairings finds with them as stated lines and a 0 for each one lacked."""
    table, _ = lifted_pairings(base, base_of, cover.pairings.items())
    stated = [*cover.pairings.items(), *((key, 0) for key in table.keys() - cover.pairings.keys())]
    return sorted(lifted_pairings(base, base_of, stated)[1])


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
    """One message per base step, in order, whose lift (step id, a, b) is missing or off it,
    then one per lift of no step.  a's curves must map one to one onto the step's under
    base_of, with its multiplicities, node and consumed intersections; b is a's tau-image."""
    over, tau, problems = base_of.__getitem__, _tau(base_of).__getitem__, []
    pending = {step_id: (a, b) for step_id, a, b in lifts}
    for step in steps:
        a, b = pending.pop(step.new_id, (None, None))
        if a is None:
            problems.append(f"lift of {step.new_id}: none given")
        elif _centre(a, over) != _centre(step):
            problems.append(f"lift of {step.new_id}: {a.new_id} does not lie over {step.new_id}")
        elif _centre(a, tau) != _centre(b):
            problems.append(f"lift of {step.new_id}: {b.new_id} is not the image of {a.new_id}")
    return problems + [f"lift of {step_id}: no base step {step_id}" for step_id in pending]


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
