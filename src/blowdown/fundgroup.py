"""Cyclic Van Kampen engine for rational blow-downs.

Derives the fundamental group after replacing two disjoint Wahl chains by
rational balls, using only rules that stay inside finite cyclic groups:

  * boundary rule: the normal circle of the chain C_{p,q} generates a group
    of order dividing p^2 in the complement's fundamental group;
  * equal-order witness: when both normal circles lie on one (-1)-sphere,
    the two classes have the same order;
  * kill rule: equal orders dividing the coprime p1^2 and p2^2 force both
    classes to die, so pi1 of the complement equals pi1 of the ambient
    surface;
  * cyclic pushout: gluing a rational ball B_{p,q} amalgamates over the lens
    space Z_{p^2} with the ball side Z_p; when one leg is surjective the
    pushout is again cyclic and computed exactly.

Anything outside these rules is refused ("inconclusive" / "unresolved"),
never guessed.  Every derivation returns a replayable trace.  Conjugating
paths are abstracted away: the rules act on normal closures directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .configuration import Configuration
from .hjcf import WahlParams


@dataclass(frozen=True)
class CyclicGroup:
    order: int

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be >= 1")

    def __str__(self) -> str:
        return "Z1 (trivial)" if self.order == 1 else f"Z{self.order}"


@dataclass(frozen=True)
class CyclicHom:
    """Homomorphism Z_source -> Z_target sending the generator to gen_image."""

    source: CyclicGroup
    target: CyclicGroup
    gen_image: int

    def __post_init__(self):
        img = self.gen_image % self.target.order
        if (self.source.order * img) % self.target.order != 0:
            raise ValueError(
                f"gen image {self.gen_image} does not define a homomorphism "
                f"Z{self.source.order} -> Z{self.target.order}")

    @property
    def image(self) -> int:
        return self.gen_image % self.target.order

    def is_surjective(self) -> bool:
        return math.gcd(self.image, self.target.order) == 1


@dataclass(frozen=True)
class TraceStep:
    rule: str
    inputs: tuple[tuple[str, str], ...]
    conclusion: str
    justification: str

    def as_dict(self) -> dict:
        return {"rule": self.rule, "inputs": dict(self.inputs),
                "conclusion": self.conclusion, "justification": self.justification}


@dataclass(frozen=True)
class DerivationTrace:
    steps: tuple[TraceStep, ...] = ()

    def extend(self, step: TraceStep) -> "DerivationTrace":
        return DerivationTrace(self.steps + (step,))

    def __iter__(self):
        return iter(self.steps)


@dataclass(frozen=True)
class Derivation:
    """Outcome of a rule: a group, or None with the failed premise named."""

    group: Optional[CyclicGroup]
    reason: Optional[str]
    trace: DerivationTrace

    @property
    def conclusive(self) -> bool:
        return self.group is not None


def _step(rule: str, inputs: dict, conclusion: str, justification: str) -> TraceStep:
    return TraceStep(rule, tuple(sorted((k, str(v)) for k, v in inputs.items())),
                     conclusion, justification)


def pushout_cyclic(B: CyclicGroup, C: CyclicGroup,
                   f: CyclicHom, g: CyclicHom) -> Optional[CyclicGroup]:
    """Pushout B *_A C along f: A -> B, g: A -> C.

    Computable exactly when one leg is surjective: if g is onto, the result
    is B modulo the image under f of ker g, a cyclic group of order
    gcd(|C| * f(1), |B|).  Symmetrically if f is onto.  Otherwise None
    (general amalgams are outside this engine and are refused).
    """
    if f.source != g.source:
        raise ValueError("pushout legs must share their source group")
    if f.target != B or g.target != C:
        raise ValueError("pushout legs must land in the named groups")
    if g.is_surjective():
        # ker g is generated by |C| * generator; push through f
        killed = (C.order * f.image) % B.order
        return CyclicGroup(math.gcd(killed, B.order) if killed else B.order)
    if f.is_surjective():
        killed = (B.order * g.image) % C.order
        return CyclicGroup(math.gcd(killed, C.order) if killed else C.order)
    return None


def kill_rule(pi1_ambient: CyclicGroup, p1: int, p2: int,
              same_order_witness: bool) -> Derivation:
    """The coprime kill rule.

    pi1(ambient) = pi1(complement) / <<x, y>> with ord(x) | p1^2 and
    ord(y) | p2^2.  Given the equal-order witness and gcd(p1, p2) = 1 the
    classes are trivial, so pi1(complement) = pi1(ambient).
    """
    if p1 < 2 or p2 < 2:
        raise ValueError("p1 and p2 must be >= 2")
    trace = DerivationTrace()
    trace = trace.extend(_step(
        "boundary_order_divides", {"p1": p1, "p2": p2},
        f"ord(x) | {p1 * p1}, ord(y) | {p2 * p2}",
        "normal circles of the chain boundaries generate cyclic groups of "
        "order p^2 (lens space first homology)"))
    if not same_order_witness:
        trace = trace.extend(_step(
            "equal_order_witness", {"witness": False}, "inconclusive",
            "no (-1)-sphere witness: equal orders not established"))
        return Derivation(None, "missing equal-order witness", trace)
    trace = trace.extend(_step(
        "equal_order_witness", {"witness": True}, "ord(x) = ord(y)",
        "both normal circles lie on one (-1)-sphere, hence are isotopic "
        "there and have equal order in the complement"))
    g = math.gcd(p1, p2)
    if g != 1:
        trace = trace.extend(_step(
            "coprime_kill", {"p1": p1, "p2": p2, "gcd": g}, "inconclusive",
            "p1 and p2 share a factor; the equal order need not be 1"))
        return Derivation(None, f"gcd({p1},{p2}) = {g} != 1", trace)
    trace = trace.extend(_step(
        "coprime_kill", {"p1": p1, "p2": p2, "gcd": 1},
        "ord(x) = ord(y) = 1",
        f"the common order divides gcd({p1}^2, {p2}^2) = 1"))
    trace = trace.extend(_step(
        "identify_pi1", {"ambient_order": pi1_ambient.order},
        f"pi1(complement) = Z{pi1_ambient.order}",
        "killing trivial classes changes nothing: the quotient map is an "
        "isomorphism"))
    return Derivation(pi1_ambient, None, trace)


def minus_one_sphere_witness(config: Configuration,
                             emb1: Sequence[str], emb2: Sequence[str],
                             sphere_id: str) -> bool:
    """Check the (-1)-sphere equal-order witness combinatorially.

    True iff sphere_id is a smooth rational (-1)-curve outside both chains
    that meets exactly one end-curve of each chain once and no other chain
    curve.
    """
    if sphere_id not in config.curves:
        raise KeyError(f"unknown curve id {sphere_id!r}")
    for cid in tuple(emb1) + tuple(emb2):
        if cid not in config.curves:
            raise KeyError(f"unknown curve id {cid!r}")
    sphere = config.curves[sphere_id]
    if sphere.self_int != -1 or sphere.genus != 0 or sphere.node_count != 0:
        return False
    if sphere_id in emb1 or sphere_id in emb2:
        return False
    near = config.neighbours[sphere_id]
    for emb in (emb1, emb2):
        ids = tuple(emb)
        ends = {ids[0], ids[-1]}
        meets = {cid: near[cid] for cid in ids if cid in near}
        if len(meets) != 1:
            return False
        (cid, v), = meets.items()
        if v != 1 or cid not in ends:
            return False
    return True


def pi1_after_blowdown(pi1_ambient: CyclicGroup,
                       pieces: Sequence[WahlParams | tuple[int, int]],
                       witness: bool) -> Derivation:
    """pi1 of the rational blow-down, by the two-chain Van Kampen argument.

    Applies the kill rule with (p1, p2), then glues the two rational balls
    one at a time: each gluing is a pushout over Z_{p^2} where the map to
    the complement side is zero (the kill rule made the class trivial) and
    the map to the ball side Z_p is the surjective reduction.  Arities
    other than two are refused.
    """
    params = [w if isinstance(w, WahlParams) else WahlParams(*w) for w in pieces]
    if len(params) != 2:
        trace = DerivationTrace((_step(
            "arity_check", {"pieces": len(params)}, "inconclusive",
            "the two-chain argument applies to exactly two pieces"),))
        return Derivation(None, f"need exactly 2 pieces, got {len(params)}", trace)
    p1, p2 = params[0].p, params[1].p
    killed = kill_rule(pi1_ambient, p1, p2, witness)
    if not killed.conclusive:
        return killed
    current = killed.group
    trace = killed.trace
    for w in params:
        edge = CyclicGroup(w.p * w.p)
        ball = CyclicGroup(w.p)
        to_complement = CyclicHom(edge, current, 0)  # zero map: class was killed
        to_ball = CyclicHom(edge, ball, 1)           # reduction, surjective
        result = pushout_cyclic(current, ball, to_complement, to_ball)
        inputs = {"B": current.order, "C": ball.order, "edge": edge.order,
                  "f1": 0, "g1": 1}
        if result is None:
            trace = trace.extend(_step("pushout_cyclic", inputs, "unresolved",
                                       "no surjective leg"))
            return Derivation(None, "pushout not computable", trace)
        trace = trace.extend(_step(
            "pushout_cyclic", inputs,
            f"Z{current.order} *_Z{edge.order} Z{ball.order} = Z{result.order}",
            f"gluing the rational ball B_{w.p},{w.q}: the boundary maps by "
            "zero into the complement (killed class) and onto the ball side"))
        current = result
    trace = trace.extend(_step(
        "conclude", {"order": current.order},
        f"pi1(blow-down) = Z{current.order}",
        "both balls glued; the amalgam stabilised"))
    return Derivation(current, None, trace)


# --- trace replay -----------------------------------------------------------

def _replay_step(step: TraceStep, prior: list[TraceStep]) -> bool:
    ins = dict(step.inputs)
    rule = step.rule
    if rule == "boundary_order_divides":
        p1, p2 = int(ins["p1"]), int(ins["p2"])
        return step.conclusion == f"ord(x) | {p1 * p1}, ord(y) | {p2 * p2}"
    if rule == "equal_order_witness":
        if ins["witness"] == "True":
            return step.conclusion == "ord(x) = ord(y)"
        return step.conclusion == "inconclusive"
    if rule == "coprime_kill":
        p1, p2 = int(ins["p1"]), int(ins["p2"])
        g = math.gcd(p1, p2)
        if int(ins["gcd"]) != g:
            return False
        if g == 1:
            return step.conclusion == "ord(x) = ord(y) = 1"
        return step.conclusion == "inconclusive"
    if rule == "identify_pi1":
        order = int(ins["ambient_order"])
        needs = any(s.rule == "coprime_kill" and s.conclusion == "ord(x) = ord(y) = 1"
                    for s in prior)
        return needs and step.conclusion == f"pi1(complement) = Z{order}"
    if rule == "pushout_cyclic":
        b, c, edge = int(ins["B"]), int(ins["C"]), int(ins["edge"])
        f = CyclicHom(CyclicGroup(edge), CyclicGroup(b), int(ins["f1"]))
        g = CyclicHom(CyclicGroup(edge), CyclicGroup(c), int(ins["g1"]))
        result = pushout_cyclic(CyclicGroup(b), CyclicGroup(c), f, g)
        if result is None:
            return step.conclusion == "unresolved"
        return step.conclusion == f"Z{b} *_Z{edge} Z{c} = Z{result.order}"
    if rule == "conclude":
        order = int(ins["order"])
        for s in reversed(prior):
            if s.rule == "pushout_cyclic":
                return s.conclusion.endswith(f"= Z{order}") and \
                    step.conclusion == f"pi1(blow-down) = Z{order}"
        return False
    if rule == "arity_check":
        return step.conclusion == "inconclusive"
    return False


def replay_trace(trace: DerivationTrace) -> bool:
    """Recompute every step's conclusion from its inputs through the rules."""
    prior: list[TraceStep] = []
    for step in trace:
        if not _replay_step(step, prior):
            return False
        prior.append(step)
    return True
