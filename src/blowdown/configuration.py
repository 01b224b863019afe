"""Curve configurations on surfaces and blow-up calculus.

A Configuration is a collection of curves with self-intersections, genera,
canonical degrees and node counts, a symmetric pairing table of intersection
numbers, ambient topological invariants, and the order of the ambient
fundamental group when finite cyclic.  Blow-ups transform all of this
exactly; each curve must satisfy the adjunction relation

    C.C + K.C = 2*(genus + nodes) - 2

throughout (arithmetic-genus form for curves whose only singularities are
ordinary double points).  Operations never mutate: they return new values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .hjcf import Chain, as_chain


class BlowupError(ValueError):
    """A blow-up step is inconsistent with the configuration."""


class AdjunctionError(BlowupError):
    """A curve violates the adjunction relation."""


def pair_key(a: str, b: str) -> tuple[str, str]:
    if a == b:
        raise ValueError(f"a curve does not pair with itself ({a!r}); nodes live in node_count")
    return (a, b) if a < b else (b, a)


def set_pairing(curves: dict, pairings: dict, a: str, b: str, value: int):
    """Set a.b = value in a pairing table under construction; 0 removes it."""
    if a not in curves or b not in curves:
        raise KeyError(f"unknown curve in pairing {a}.{b}")
    if value < 0:
        raise ValueError(f"pairing {a}.{b} must be >= 0")
    key = pair_key(a, b)
    if value == 0:
        pairings.pop(key, None)
    else:
        pairings[key] = value


@dataclass(frozen=True, slots=True)
class Curve:
    id: str
    self_int: int
    genus: int = 0
    k_degree: int = 0
    node_count: int = 0

    def __post_init__(self):
        if self.genus < 0 or self.node_count < 0:
            raise ValueError(f"{self.id}: genus and node_count must be >= 0")

    def adjunction_defect(self) -> int:
        """Zero iff the adjunction ledger balances."""
        return self.self_int + self.k_degree - (2 * (self.genus + self.node_count) - 2)


@dataclass(frozen=True)
class InvariantSet:
    """The invariants of a surface with b_1 = 0, stored as e and sigma.

    The rest are identities in e and sigma, read off below.  A value exists
    only when b2 + sigma is even, b2+ is odd and both b2 parts are >= 0.
    """

    e: int
    sigma: int

    def __post_init__(self):
        if (self.e - 2 + self.sigma) % 2 != 0:
            raise ValueError(f"b2 + sigma must be even, got e={self.e}, sigma={self.sigma}")
        if self.b2_plus < 0 or self.b2_minus < 0:
            raise ValueError(f"negative b2 part: e={self.e}, sigma={self.sigma} give "
                             f"b2+ = {self.b2_plus}, b2- = {self.b2_minus}")
        if self.b2_plus % 2 == 0:
            raise ValueError(f"b2+ = {self.b2_plus} is even, so b2+ = 2 p_g + 1 fails")

    @classmethod
    def from_base(cls, e: int, sigma: int, pg: int, q: int = 0) -> "InvariantSet":
        """The invariants of e and sigma, checked against the declared p_g and q."""
        inv = cls(e, sigma)
        if (pg, q) != (inv.pg, inv.q):
            raise ValueError(f"e={e}, sigma={sigma} give p_g = {inv.pg} and q = 0, "
                             f"not p_g = {pg} and q = {q}")
        return inv

    k2 = property(lambda self: 2 * self.e + 3 * self.sigma)
    b2 = property(lambda self: self.e - 2)
    b2_plus = property(lambda self: (self.e - 2 + self.sigma) // 2)
    b2_minus = property(lambda self: (self.e - 2 - self.sigma) // 2)
    pg = property(lambda self: (self.b2_plus - 1) // 2)  # b2+ = 2 p_g + 1
    q = property(lambda self: 0)  # b_1 = 2q = 0

    def as_dict(self) -> dict:
        return {"e": self.e, "sigma": self.sigma, "K2": self.k2, "pg": self.pg,
                "q": self.q, "b2": self.b2, "b2_plus": self.b2_plus,
                "b2_minus": self.b2_minus}


@dataclass(frozen=True)
class PointSpec:
    """A blow-up centre: incident curves with local multiplicities.

    node_of names a curve blown up at one of its own nodes (local
    multiplicity 2 there).  pairwise_local overrides the local intersection
    number consumed between two different curves at this point (default and
    least: the product of their local multiplicities).  new_id names the
    exceptional curve introduced by this step.
    """

    new_id: str
    incidences: tuple[tuple[str, int], ...] = ()
    node_of: Optional[str] = None
    pairwise_local: tuple[tuple[tuple[str, str], int], ...] = ()

    def __post_init__(self):
        seen = set()
        for cid, m in self.incidences:
            if m < 1:
                raise ValueError(f"local multiplicity must be >= 1, got {m} on {cid}")
            if cid in seen:
                raise ValueError(f"curve {cid!r} listed twice in one point")
            seen.add(cid)
        if self.node_of is not None:
            if self.node_of in seen:
                raise ValueError(f"{self.node_of!r} is both node_of and an incidence")
            seen.add(self.node_of)
        pairs = set()
        for (a, b), v in self.pairwise_local:
            if v < 0:
                raise ValueError(f"consumed intersection {a}.{b} must be >= 0, got {v}")
            if a == b or a not in seen or b not in seen:
                raise ValueError(f"consumed intersection {a}.{b} needs two curves at the point")
            if pair_key(a, b) in pairs:
                raise ValueError(f"consumed intersection {a}.{b} named twice at the point")
            pairs.add(pair_key(a, b))
        for (a, b), v in self.pairwise_local:  # curves through a point meet there m_a * m_b times
            if v < self.multiplicity(a) * self.multiplicity(b):
                raise ValueError(f"consumed intersection {a}.{b} = {v} is below the "
                                 f"{self.multiplicity(a)} * {self.multiplicity(b)} the point gives")

    def multiplicity(self, cid: str) -> int:
        if cid == self.node_of:
            return 2
        for c, m in self.incidences:
            if c == cid:
                return m
        return 0

    def touched(self) -> tuple[str, ...]:
        ids = [cid for cid, _ in self.incidences]
        if self.node_of is not None:
            ids.append(self.node_of)
        return tuple(ids)


@dataclass(frozen=True)
class Configuration:
    curves: dict[str, Curve]
    pairings: dict[tuple[str, str], int]
    ambient: InvariantSet
    pi1_order: Optional[int] = None  # None = unknown

    def pairing(self, a: str, b: str) -> int:
        if a == b:
            raise ValueError("self-pairing is undefined; nodes live in node_count")
        return self.pairings.get(pair_key(a, b), 0)

    @cached_property
    def neighbours(self) -> dict[str, dict[str, int]]:
        """curve id -> {curve it meets: their pairing}, for every curve.

        Built on first use and kept on this value, which never changes;
        every stage reads its neighbourhoods here instead of scanning the
        pairing table.  Read only.
        """
        near: dict[str, dict[str, int]] = {cid: {} for cid in self.curves}
        for (a, b), v in self.pairings.items():
            if v:
                if a not in near or b not in near:  # a value the audit rejects
                    near.setdefault(a, {})
                    near.setdefault(b, {})
                near[a][b] = v
                near[b][a] = v
        return near

    def with_pairing(self, a: str, b: str, value: int) -> "Configuration":
        pairings = dict(self.pairings)
        set_pairing(self.curves, pairings, a, b, value)
        return replace(self, pairings=pairings)

    def with_curve(self, curve: Curve) -> "Configuration":
        curves = dict(self.curves)
        curves[curve.id] = curve
        return replace(self, curves=curves)


# --- presets --------------------------------------------------------------

ENRIQUES_I9_IDS = tuple(f"D{i}" for i in range(1, 10))
K3_I9A_IDS = tuple(f"Da{i}" for i in range(1, 10))
K3_I9B_IDS = tuple(f"Db{i}" for i in range(1, 10))


def _cycle(config_pairings: dict, ids: Sequence[str]):
    n = len(ids)
    for i in range(n):
        config_pairings[pair_key(ids[i], ids[(i + 1) % n])] = 1


def preset(name: str) -> Configuration:
    """Named starting surfaces.

    enriques_kondo: Enriques surface with an I9 fiber (9-cycle of (-2)-spheres
    D1..D9), a nodal fiber F, and bisections S1, S2.  Which I9 components and
    which points of F the bisections pass through is not determined here;
    scenarios declare those pairings explicitly.

    k3_kondo_cover: its K3 double cover, with two I9 fibers (Da*, Db*), two
    nodal fibers F1, F2, and four sections T1..T4.  Section incidences are
    likewise scenario-declared.
    """
    if name == "enriques_kondo":
        curves = {}
        for cid in ENRIQUES_I9_IDS:
            curves[cid] = Curve(cid, self_int=-2)
        curves["F"] = Curve("F", self_int=0, node_count=1)
        curves["S1"] = Curve("S1", self_int=-2)
        curves["S2"] = Curve("S2", self_int=-2)
        pairings: dict = {}
        _cycle(pairings, ENRIQUES_I9_IDS)
        ambient = InvariantSet.from_base(e=12, sigma=-8, pg=0, q=0)
        return Configuration(curves, pairings, ambient, pi1_order=2)
    if name == "k3_kondo_cover":
        curves = {}
        for cid in K3_I9A_IDS + K3_I9B_IDS:
            curves[cid] = Curve(cid, self_int=-2)
        curves["F1"] = Curve("F1", self_int=0, node_count=1)
        curves["F2"] = Curve("F2", self_int=0, node_count=1)
        for cid in ("T1", "T2", "T3", "T4"):
            curves[cid] = Curve(cid, self_int=-2)
        pairings = {}
        _cycle(pairings, K3_I9A_IDS)
        _cycle(pairings, K3_I9B_IDS)
        ambient = InvariantSet.from_base(e=24, sigma=-16, pg=1, q=0)
        return Configuration(curves, pairings, ambient, pi1_order=1)
    raise KeyError(f"unknown preset {name!r}")


# --- blow-up calculus -----------------------------------------------------

def blow_up(config: Configuration, point: PointSpec) -> Configuration:
    """Blow up one point; exact transform of curves, pairings, and invariants."""
    if point.new_id in config.curves:
        raise BlowupError(f"curve id {point.new_id!r} already exists")
    for cid in point.touched():
        if cid not in config.curves:
            raise BlowupError(f"unknown curve id {cid!r}")
    if point.node_of is not None and config.curves[point.node_of].node_count < 1:
        raise BlowupError(f"{point.node_of!r} has no node to blow up")

    curves = dict(config.curves)
    pairings = dict(config.pairings)

    # strict transforms
    for cid in point.touched():
        m = point.multiplicity(cid)
        old = curves[cid]
        if old.adjunction_defect():  # else the step could cancel what the audit reports
            raise AdjunctionError(f"blow-up at {point.new_id}: curve {cid!r} has adjunction "
                                  f"defect {old.adjunction_defect()} before the step")
        node_fix = 1 if cid == point.node_of else 0
        curves[cid] = Curve(old.id, old.self_int - m * m, old.genus,
                            old.k_degree + m, old.node_count - node_fix)
        defect = curves[cid].adjunction_defect()
        if defect != 0:
            raise AdjunctionError(
                f"blow-up at {point.new_id}: curve {cid!r} leaves the adjunction "
                f"ledger unbalanced (defect {defect}); a multiplicity-{m} point "
                "needs a matching singularity"
            )

    # exceptional curve
    curves[point.new_id] = Curve(point.new_id, self_int=-1, k_degree=-1)

    # pairings with the new exceptional curve
    for cid in point.touched():
        m = point.multiplicity(cid)
        pairings[pair_key(cid, point.new_id)] = m

    # local intersections consumed between incident curves
    touched = point.touched()
    overrides = {pair_key(a, b): v for (a, b), v in point.pairwise_local}
    for i in range(len(touched)):
        for j in range(i + 1, len(touched)):
            a, b = touched[i], touched[j]
            key = pair_key(a, b)
            consumed = overrides.get(key, point.multiplicity(a) * point.multiplicity(b))
            remaining = pairings.get(key, 0) - consumed
            if remaining < 0:
                raise BlowupError(
                    f"blow-up at {point.new_id}: consuming {consumed} from pairing "
                    f"{a}.{b} = {pairings.get(key, 0)} would go negative"
                )
            if remaining == 0:
                pairings.pop(key, None)
            else:
                pairings[key] = remaining

    ambient = InvariantSet(config.ambient.e + 1, config.ambient.sigma - 1)
    return Configuration(curves, pairings, ambient, config.pi1_order)


def run_program(config: Configuration, steps: Iterable[PointSpec]) -> Configuration:
    """Fold blow_up over a program; errors are annotated with the step index."""
    current = config
    for i, step in enumerate(steps):
        try:
            current = blow_up(current, step)
        except BlowupError as err:
            raise BlowupError(f"step {i + 1} ({step.new_id}): {err}") from err
    return current


def adjunction_audit(config: Configuration) -> list[str]:
    """All adjunction/consistency violations; empty means clean."""
    curves, pairings = config.curves, config.pairings
    problems = [f"curve {cid}: adjunction defect {curves[cid].adjunction_defect()}"
                for cid in sorted(cid for cid, c in curves.items() if c.adjunction_defect())]
    for a, b in sorted(key for key, v in pairings.items()
                       if v < 0 or key[0] not in curves or key[1] not in curves):
        if pairings[a, b] < 0:
            problems.append(f"pairing {a}.{b} negative ({pairings[a, b]})")
        if a not in curves or b not in curves:
            problems.append(f"pairing {a}.{b} references a missing curve")
    return problems


# --- chain search ----------------------------------------------------------

@dataclass(frozen=True)
class ChainSearch:
    """Result of find_chains: embeddings on success, the first bad target on failure."""

    found: bool
    embeddings: tuple[tuple[str, ...], ...] = ()
    failed_target: Optional[int] = None


class _ChainIndex:
    """The chain search's view of a configuration, built once per call.

    square: self-intersection of each candidate, a smooth rational curve
    whose square some target entry asks for; first: the candidates for a
    chain's first curve, per self-intersection, sorted; near: the
    configuration's neighbour map.  count[c]: embedded curves that are c or
    meet c; c is free at count 0 for a chain's first position, and at
    count 1 (the previous curve) later.
    """

    __slots__ = ("square", "first", "near", "count")

    def __init__(self, config: Configuration, chains: list[tuple[int, ...]]):
        wanted = {-b for entries in chains for b in entries}
        self.square = {cid: c.self_int for cid, c in config.curves.items()
                       if c.self_int in wanted and c.genus == 0 and c.node_count == 0}
        self.first: dict[int, list[str]] = {-entries[0]: [] for entries in chains}
        for cid, square in self.square.items():
            if square in self.first:
                self.first[square].append(cid)
        for ids in self.first.values():
            ids.sort()
        self.near = config.neighbours
        self.count = dict.fromkeys(self.near, 0)


def _unmark(index: _ChainIndex, cid: str):
    count = index.count
    count[cid] -= 1
    for other in index.near[cid]:
        count[other] -= 1


def _embeddings(index: _ChainIndex, entries: tuple[int, ...]):
    """Every embedding of one chain, depth first in sorted-id order.

    An embedding stays marked in index.count while it is yielded, so a
    search for the next chain sees its curves and their neighbours as taken.
    Marking a curve also collects the candidates that can follow it: its
    neighbours at pairing 1.
    """
    square, near, count = index.square, index.near, index.count
    last = len(entries) - 1
    partial: list[str] = []
    levels = [iter(index.first[-entries[0]])]
    while levels:
        pos = len(partial)
        free, want = (1 if pos else 0), -entries[pos]
        for cid in levels[-1]:
            if count[cid] != free or square[cid] != want:
                continue
            count[cid] += 1
            ones = []
            for other, v in near[cid].items():
                count[other] += 1
                if v == 1 and other in square:
                    ones.append(other)
            if pos == last:
                yield tuple(partial) + (cid,)
                _unmark(index, cid)
                continue
            ones.sort()
            partial.append(cid)
            levels.append(iter(ones))
            break
        else:
            levels.pop()
            if partial:
                _unmark(index, partial.pop())


def _solve(index: _ChainIndex, chains: list[tuple[int, ...]], i: int,
           found: list[tuple[str, ...]]) -> Optional[int]:
    """Embed chains[i:] next to found: None on success, else the first chain
    that the depth-first search (first embeddings first) cannot embed."""
    if i == len(chains):
        return None
    first_failed = i
    for k, emb in enumerate(_embeddings(index, chains[i])):
        found.append(emb)
        failed = _solve(index, chains, i + 1, found)
        if failed is None:
            return None
        found.pop()
        if k == 0:
            first_failed = failed
    return first_failed


def find_chains(config: Configuration,
                targets: Sequence["Chain | Sequence[int]"]) -> ChainSearch:
    """Find pairwise-disjoint embeddings of the target chains.

    An embedding of [b_1..b_l] is an ordered list of distinct curves with
    self-intersections -b_i, genus 0, no nodes, consecutive pairings exactly
    1, all other pairings within the chain 0, and no curve or positive
    pairing shared with any other embedded chain.  Deterministic: one
    backtracking search over all chains, trying candidates in sorted id
    order; the result is the first joint embedding it reaches.
    """
    if not targets:
        raise ValueError("targets must be nonempty")
    chains = [as_chain(t).entries for t in targets]
    found: list[tuple[str, ...]] = []
    failed = _solve(_ChainIndex(config, chains), chains, 0, found)
    if failed is None:
        return ChainSearch(True, tuple(found))
    return ChainSearch(False, (), failed)


# --- randomized programs (property-test support) ---------------------------

def random_program(rng: random.Random, max_steps: int = 6) -> tuple[Configuration, list[PointSpec]]:
    """A random valid blow-up program on the Enriques preset.

    Used by property tests: steps blow up nothing, single curves, transverse
    intersections, or the node of F, whichever is available.
    """
    config = preset("enriques_kondo")
    steps: list[PointSpec] = []
    current = config
    for i in range(rng.randint(0, max_steps)):
        new_id = f"R{i + 1}"
        choices = ["free"]
        positive = [(a, b) for (a, b), v in current.pairings.items() if v >= 1]
        if positive:
            choices.append("intersection")
        if any(c.node_count > 0 for c in current.curves.values()):
            choices.append("node")
        choices.append("on-curve")
        kind = rng.choice(choices)
        if kind == "free":
            step = PointSpec(new_id=new_id)
        elif kind == "on-curve":
            cid = rng.choice(sorted(current.curves))
            step = PointSpec(new_id=new_id, incidences=((cid, 1),))
        elif kind == "node":
            nodal = sorted(c.id for c in current.curves.values() if c.node_count > 0)
            step = PointSpec(new_id=new_id, node_of=rng.choice(nodal))
        else:
            a, b = rng.choice(sorted(positive))
            step = PointSpec(new_id=new_id, incidences=((a, 1), (b, 1)))
        steps.append(step)
        current = blow_up(current, step)
    return config, steps
