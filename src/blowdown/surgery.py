"""Rational blow-down bookkeeping.

Replacing a disjoint union of Wahl-chain neighbourhoods C_{p,q} (length l,
negative definite) by rational homology balls B_{p,q} changes the ambient
invariants by  e -> e - l,  sigma -> sigma + l,  K^2 -> K^2 + l  per chain,
leaves b2+ fixed, and drops b2 (and b2-) by l.  The surgery is modelled at
this level only; no handle decompositions.  The geometric facts the surgery
quietly relies on are emitted as a declarative assumption ledger with
citations to the literature, never computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .configuration import Configuration, InvariantSet
from .hjcf import WahlParams, hj_eval, wahl_params
from .lattice import curves_definite


class SurgeryError(ValueError):
    pass


@dataclass(frozen=True)
class SurgeryResult:
    before: InvariantSet
    after: InvariantSet
    pieces: tuple[tuple[WahlParams, int], ...]  # (params, chain length)

    @property
    def total_length(self) -> int:
        return sum(l for _, l in self.pieces)


@dataclass(frozen=True)
class Assumption:
    key: str
    claim: str
    citation: str

    def as_dict(self) -> dict:
        return {"key": self.key, "claim": self.claim, "citation": self.citation}


SURGERY_ASSUMPTIONS: tuple[Assumption, ...] = (
    Assumption(
        "qgorenstein_smoothing",
        "the contracted singular surface admits a global Q-Gorenstein smoothing",
        "Lee-Park smoothing theory; obstruction vanishing via H^2 of the log tangent sheaf",
    ),
    Assumption(
        "milnor_fiber",
        "a general fiber of the smoothing is diffeomorphic to the rational blow-down",
        "Milnor fiber theory for Q-Gorenstein smoothings of Wahl singularities",
    ),
    Assumption(
        "minimality",
        "the resulting surface / 4-manifold is minimal",
        "Ozsvath-Szabo obstruction techniques",
    ),
    Assumption(
        "symplectic_structure",
        "the rational blow-down carries a symplectic structure",
        "Symington: rational blow-downs are symplectic",
    ),
)

COVER_ASSUMPTIONS: tuple[Assumption, ...] = (
    Assumption(
        "log_h2_blowup_invariance",
        "h^2 of the log tangent sheaf is unchanged by blow-ups at points of the divisor",
        "Flenner-Zaidenberg",
    ),
    Assumption(
        "residue_exact_sequence",
        "residue exact sequences peel log poles off one component at a time",
        "Esnault-Viehweg",
    ),
    Assumption(
        "pushforward_injection",
        "log forms downstairs inject into the pushed-forward log forms of the double cover",
        "projection formula for the unramified double covering",
    ),
)


@dataclass(frozen=True)
class ChainFacts:
    """One embedded chain and what the blow-down needs to know about it."""

    ids: tuple[str, ...]
    entries: tuple[int, ...]
    params: Optional[WahlParams]  # None: not a Wahl chain
    definite: bool  # Gram matrix negative definite
    boundary_order: int  # |H_1| of the boundary lens space


def chain_facts(config: Configuration,
                embeddings: Sequence[Sequence[str]]) -> list[ChainFacts]:
    """Derive each embedded chain's facts once, for the report and the surgery.

    The chain's continuant n/m gives both its Wahl parameters and its
    boundary order n (see boundary_group_order); definiteness comes from
    the continuants of its Gram matrix (see curves_definite).
    """
    facts = []
    for emb in embeddings:
        ids = tuple(emb)
        for cid in ids:
            if cid not in config.curves:
                raise SurgeryError(f"unknown curve id {cid!r}")
        entries = tuple(-config.curves[cid].self_int for cid in ids)
        n, m = hj_eval(entries)
        facts.append(ChainFacts(ids, entries, wahl_params(n, m),
                                curves_definite(config, ids), n))
    return facts


def rational_blowdown(config: Configuration,
                      chains: Sequence[ChainFacts]) -> SurgeryResult:
    """Blow down the embedded Wahl chains; exact invariant bookkeeping.

    The facts come from chain_facts on this configuration.  Each chain must
    be Wahl-recognizable and negative definite, and the chains must be
    pairwise disjoint with no pairings between them, of total length at
    most b2- (the blow-down removes that much of the negative part).
    """
    member: dict[str, int] = {}  # curve id -> index of its chain
    for k, chain in enumerate(chains):
        for cid in chain.ids:
            if cid not in config.curves:
                raise SurgeryError(f"unknown curve id {cid!r}")
            if member.setdefault(cid, k) != k:
                raise SurgeryError(f"chains overlap at {cid!r}")
        if chain.params is None:
            raise SurgeryError(f"embedded chain {list(chain.entries)} is not a Wahl chain")
        if not chain.definite:
            raise SurgeryError(f"chain {list(chain.ids)} is not negative definite")
    near = config.neighbours
    for cid, k in member.items():
        for other in near[cid]:
            if member.get(other, k) < k:
                raise SurgeryError(f"chains are not disjoint: {cid} pairs with {other}")

    pieces = tuple((chain.params, len(chain.ids)) for chain in chains)
    total = sum(l for _, l in pieces)
    before = config.ambient
    if total > before.b2_minus:
        raise SurgeryError(f"chains of total length {total} exceed b2- = {before.b2_minus}")
    after = InvariantSet(before.e - total, before.sigma + total)
    return SurgeryResult(before, after, pieces)


def smoothing_ledger(result: SurgeryResult) -> list[Assumption]:
    """The cited-but-not-computed assumptions attached to a surgery."""
    if not result.pieces:
        return []
    return list(SURGERY_ASSUMPTIONS)
