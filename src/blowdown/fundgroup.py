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
from typing import Mapping, Optional, Sequence

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
    return _kill(_Recorder(), pi1_ambient, p1, p2, same_order_witness)


def _kill(step: "_Recorder", pi1_ambient: CyclicGroup, p1: int, p2: int,
          same_order_witness: bool) -> Derivation:
    """kill_rule, recorded by step, which pi1_after_blowdown goes on using."""
    if p1 < 2 or p2 < 2:
        raise ValueError("p1 and p2 must be >= 2")
    g = math.gcd(p1, p2)
    step("boundary_order_divides", {"p1": p1, "p2": p2},
         "normal circles of the chain boundaries generate cyclic groups of "
         "order p^2 (lens space first homology)")
    if not step("equal_order_witness", {"witness": bool(same_order_witness)},
                "both normal circles lie on one (-1)-sphere, hence are isotopic "
                "there and have equal order in the complement",
                "no (-1)-sphere witness: equal orders not established"):
        return Derivation(None, "missing equal-order witness", step.trace)
    if not step("coprime_kill", {"p1": p1, "p2": p2, "gcd": g},
                f"the common order divides gcd({p1}^2, {p2}^2) = 1",
                "p1 and p2 share a factor; the equal order need not be 1"):
        return Derivation(None, f"gcd({p1},{p2}) = {g} != 1", step.trace)
    step("identify_pi1", {"ambient_order": pi1_ambient.order}, "killing trivial classes "
         "changes nothing: the quotient map is an isomorphism")
    return Derivation(pi1_ambient, None, step.trace)


def minus_one_sphere_witness(config: Configuration,
                             emb1: Sequence[str], emb2: Sequence[str],
                             sphere_id: str) -> bool:
    """Check the (-1)-sphere equal-order witness combinatorially.

    True iff sphere_id is a smooth rational (-1)-curve outside both chains
    that meets exactly one end-curve of each chain once and no other chain
    curve.
    """
    for cid in (sphere_id, *emb1, *emb2):
        if cid not in config.curves:
            raise KeyError(f"unknown curve id {cid!r}")
    sphere = config.curves[sphere_id]
    if sphere.self_int != -1 or sphere.genus != 0 or sphere.node_count != 0:
        return False
    if sphere_id in emb1 or sphere_id in emb2:
        return False
    near = config.neighbours[sphere_id]
    for emb in (emb1, emb2):
        meets = {cid: near[cid] for cid in emb if cid in near}
        if meets not in ({emb[0]: 1}, {emb[-1]: 1}):
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
    step = _Recorder()
    if len(params) != 2:
        step("arity_check", {"pieces": len(params)},
             "the two-chain argument applies to exactly two pieces")
        return Derivation(None, f"need exactly 2 pieces, got {len(params)}", step.trace)
    killed = _kill(step, pi1_ambient, params[0].p, params[1].p, witness)
    if not killed.conclusive:
        return killed
    for w in params:
        if not step("pushout_cyclic", {"B": step.state[2], "C": w.p, "edge": w.p * w.p,
                                       "f1": 0, "g1": 1},
                    f"gluing the rational ball B_{w.p},{w.q}: the boundary maps by "
                    "zero into the complement (killed class) and onto the ball side",
                    "no surjective leg"):
            return Derivation(None, "pushout not computable", step.trace)
    order = step.state[2]
    step("conclude", {"order": order}, "both balls glued; the amalgam stabilised")
    return Derivation(CyclicGroup(order), None, step.trace)


# --- the rule table: derivation and replay draw every conclusion from it ------

_START, _END = ("", (), 0), ("end", (), 0)  # before the first step; after the last


def _conclusion(rule: str, ins: Mapping[str, int], state: tuple) -> tuple[Optional[str], tuple]:
    """The conclusion a rule draws from a step's inputs, or None if the step
    breaks its rule or does not follow the steps before it; and the state
    after it: the last rule applied, the p of each chain whose ball is still
    to glue, and the group order held since identify_pi1.  A refusal
    (inconclusive, unresolved) and the conclusion end the argument."""
    stage, ps, order = state
    if stage == "" and rule == "arity_check":
        return "inconclusive", _END
    if stage == "" and rule == "boundary_order_divides" and min(ins["p1"], ins["p2"]) >= 2:
        ps = ins["p1"], ins["p2"]
        return f"ord(x) | {ps[0] ** 2}, ord(y) | {ps[1] ** 2}", (rule, ps, 0)
    if stage == "boundary_order_divides" and rule == "equal_order_witness":
        return ("ord(x) = ord(y)", (rule, ps, 0)) if ins["witness"] else ("inconclusive", _END)
    if (stage == "equal_order_witness" and rule == "coprime_kill"
            and (ins["p1"], ins["p2"], ins["gcd"]) == (*ps, math.gcd(*ps))):
        return ("ord(x) = ord(y) = 1", (rule, ps, 0)) if ins["gcd"] == 1 else ("inconclusive", _END)
    if stage == "coprime_kill" and rule == "identify_pi1" and ins["ambient_order"] >= 1:
        return f"pi1(complement) = Z{ins['ambient_order']}", (rule, ps, ins["ambient_order"])
    if (stage in ("identify_pi1", "pushout_cyclic") and ps and rule == "pushout_cyclic"
            and (ins["B"], ins["C"], ins["edge"], ins["f1"]) == (order, ps[0], ps[0] ** 2, 0)):
        A, B, C = CyclicGroup(ps[0] ** 2), CyclicGroup(order), CyclicGroup(ps[0])
        out = pushout_cyclic(B, C, CyclicHom(A, B, 0), CyclicHom(A, C, ins["g1"]))
        return ("unresolved", _END) if out is None else (
            f"Z{B.order} *_Z{A.order} Z{C.order} = Z{out.order}", (rule, ps[1:], out.order))
    if stage == "pushout_cyclic" and not ps and rule == "conclude" and ins["order"] == order:
        return f"pi1(blow-down) = Z{order}", _END
    return None, state


class _Recorder:
    """Appends trace steps whose conclusions come from _conclusion."""

    trace, state = DerivationTrace(), _START

    def __call__(self, rule: str, inputs: dict, why: str, why_not: str = "") -> bool:
        """Record a step justified by why, or by why_not if the rule refuses
        (concludes inconclusive or unresolved); False when it refuses."""
        conclusion, self.state = _conclusion(rule, inputs, self.state)
        refused = conclusion in ("inconclusive", "unresolved")
        self.trace = self.trace.extend(TraceStep(
            rule, tuple(sorted((k, str(v)) for k, v in inputs.items())), conclusion,
            why_not if refused and why_not else why))
        return not refused


def replay_trace(trace: DerivationTrace) -> bool:
    """Fold the rule table over the trace: each conclusion must be the one its
    rule draws from the step's inputs and the steps before it."""
    state = _START
    try:
        for step in trace:
            ins = {k: {"True": True, "False": False}[v] if k == "witness" else int(v)
                   for k, v in step.inputs}
            conclusion, state = _conclusion(step.rule, ins, state)
            if conclusion is None or conclusion != step.conclusion:
                return False
    except (KeyError, ValueError):  # a missing or malformed input
        return False
    return True
