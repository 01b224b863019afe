"""Unramified double-cover lifting of configurations.

Which curves split upstairs is monodromy data that cannot be inferred from
intersection numbers alone, so a lift is driven by a declaration: every base
curve maps either to two disjoint copies (Split) or to one connected double
cover (Connected), and the cover's pairing table is declared explicitly and
validated against the pullback rule

    sum of cover pairings over the preimages of {a, b}  =  2 * (a . b).

Ambient invariants double (e, sigma, K^2), the fundamental-group order
halves, and each base blow-up lifts to exactly two cover blow-ups at the two
preimages of its centre.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from .configuration import Configuration, Curve, InvariantSet, pair_key


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

    declared = [k for k, _ in decl.splits] + [k for k, _ in decl.connected]
    if len(declared) != len(base.curves) or set(declared) != base.curves.keys():
        missing = set(base.curves) - set(declared)
        extra = set(declared) - set(base.curves)
        raise CoverError(f"splitting declaration mismatch: missing {sorted(missing)}, "
                         f"unknown {sorted(extra)}")

    curves: dict[str, Curve] = {}
    for base_id, (a, b) in decl.splits:
        src = base.curves[base_id]
        for new_id in (a, b):
            if new_id in curves:
                raise CoverError(f"cover curve id {new_id!r} reused")
            curves[new_id] = Curve(new_id, src.self_int, src.genus, src.k_degree,
                                   src.node_count)
    for base_id, new_id in decl.connected:
        src = base.curves[base_id]
        if src.genus < 1:
            raise CoverError(
                f"{base_id!r}: a rational curve has no connected unramified "
                "double cover; declare a split")
        if new_id in curves:
            raise CoverError(f"cover curve id {new_id!r} reused")
        curves[new_id] = Curve(new_id, self_int=2 * src.self_int,
                               genus=2 * src.genus - 1,
                               k_degree=2 * src.k_degree,
                               node_count=2 * src.node_count)

    pairings: dict[tuple[str, str], int] = {}
    for (a, b), v in decl.pairings:  # keys already sorted
        if a not in curves or b not in curves:
            cid = a if a not in curves else b
            raise CoverError(f"cover pairing names unknown curve {cid!r}")
        if v < 0:
            raise CoverError(f"negative cover pairing {a}.{b}")
        if v:
            pairings[a, b] = v

    # pullback sum rule for every base pair, and disjoint preimages of splits:
    # excess[(a, b)] is the cover total minus 2 * (a . b), and excess[(a, "")]
    # the pairing between the two preimages of a.  Only pairs with a base or
    # a cover pairing can fail; the first failure in sorted order is raised.
    base_of = decl.base_of
    excess = {key: -2 * v for key, v in base.pairings.items()
              if key[0] in base.curves and key[1] in base.curves}
    for (x, y), v in pairings.items():
        a, b = base_of[x], base_of[y]
        if a == b:
            key = (a, "")
        else:
            key = (a, b) if a < b else (b, a)
        excess[key] = excess.get(key, 0) + v
    bad = [key for key, d in excess.items() if d]
    if bad:
        a, b = min(bad)
        if not b:
            raise CoverError(
                f"the two preimages of split curve {a!r} must be disjoint "
                "(their self-intersections already account for the pullback)")
        want = 2 * base.pairing(a, b)
        raise CoverError(
            f"pullback pairing sum violated for {a}.{b}: cover total "
            f"{want + excess[(a, b)]}, expected {want}")

    ambient = InvariantSet.derive(2 * base.ambient.e, 2 * base.ambient.sigma)
    return Configuration(curves, pairings, ambient, base.pi1_order // 2)


def check_doubling(base: Configuration, cover: Configuration) -> list[str]:
    """Verify the invariant-doubling identity; empty list means clean."""
    problems = []
    for name in ("e", "sigma", "k2"):
        b, c = getattr(base.ambient, name), getattr(cover.ambient, name)
        if c != 2 * b:
            problems.append(f"{name}: cover {c} != 2 * base {b}")
    if base.pi1_order is not None and cover.pi1_order is not None:
        if base.pi1_order != 2 * cover.pi1_order:
            problems.append(
                f"pi1 order: base {base.pi1_order} != 2 * cover {cover.pi1_order}")
    return problems
