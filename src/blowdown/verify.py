"""Scenario verification pipeline.

Runs a parsed scenario through the library end to end: build the surface,
apply the blow-up program, audit adjunction, and blow down the chains
(find them, derive their lattice facts, do the surgery, compare with the
expectations), derive the fundamental group, and (when declared) lift
everything to the double cover and blow down there the lifts of the base's
chains.  Failures are report content, not exceptions.
"""

from __future__ import annotations

from typing import Optional

from .configuration import (BlowupError, ChainSearch, Configuration, InvariantSet,
                            adjunction_audit, find_chains, preset, run_program, set_pairing)
from .cover import CoverError, lift_chains, lift_configuration, lift_violations
from .fundgroup import CyclicGroup, minus_one_sphere_witness, pi1_after_blowdown
from .lattice import det_exact, gram
from .report import FAIL, INCONCLUSIVE, PASS, Report
from .scenario import Scenario
from .surgery import (COVER_ASSUMPTIONS, SurgeryError, chain_facts, rational_blowdown,
                      smoothing_ledger)


def _build_surface(s: Scenario) -> Configuration:
    if s.preset_name is not None:
        config = preset(s.preset_name)
    else:
        fields = dict(s.explicit_surface)
        pi1_order = fields.pop("pi1_order", None)
        config = Configuration({}, {}, InvariantSet.from_base(**fields), pi1_order)
    curves, pairings = dict(config.curves), dict(config.pairings)
    curves.update((c.id, c) for c in s.curves)
    for a, b, v in s.pairings:
        set_pairing(curves, pairings, a, b, v)
    return Configuration(curves, pairings, config.ambient, config.pi1_order)


def _mismatches(computed: InvariantSet, expect) -> dict:
    """The expected invariants that differ from the computed ones."""
    values = computed.as_dict()
    return {k: {"expected": v, "computed": values[k]}
            for k, v in dict(expect).items() if values[k] != v}


def _blowdown(config: Configuration, search: ChainSearch, expect):
    """Derive the chain facts of a search, blow down, compare.

    Returns (facts, result, mismatches, error): facts is None when a target
    has no embedding, result is None when the surgery refuses the chains.
    """
    if not search.found:
        return None, None, None, f"no embedding for target {search.failed_target}"
    facts = chain_facts(config, search.embeddings)
    try:
        result = rational_blowdown(config, facts)
    except SurgeryError as err:
        return facts, None, None, str(err)
    return facts, result, _mismatches(result.after, expect), None


def verify(s: Scenario, strict: bool = False) -> Report:
    """Verify one scenario; all failures are recorded in the report."""
    report = Report(scenario=s.name)

    # surface
    try:
        base = _build_surface(s)
    except (ValueError, KeyError) as err:
        report.add("surface", FAIL, error=str(err))
        return report
    report.add("surface", PASS, computed=base.ambient.as_dict(),
               pi1_order=base.pi1_order, curves=len(base.curves))

    # blow-up program
    try:
        final = run_program(base, s.blowups)
    except BlowupError as err:
        report.add("blowups", FAIL, error=str(err))
        return report
    violations = adjunction_audit(final)
    report.add("blowups", PASS if not violations else FAIL,
               steps=len(s.blowups), computed=final.ambient.as_dict(),
               audit_violations=violations)
    if violations:
        return report

    facts = result = None
    if s.chains:
        facts, result, mismatches, error = _blowdown(
            final, find_chains(final, [c for c, _ in s.chains]), s.surgery_expect)
        if facts is None:
            report.add("chains", FAIL, error=error,
                       targets=[str(c) for c, _ in s.chains])
        else:
            expected_ok = all(expect is None or f.params == expect
                              for (_, expect), f in zip(s.chains, facts))
            definite = [f.definite for f in facts]
            report.add("chains", PASS if expected_ok and all(definite) else FAIL,
                       embeddings=[list(f.ids) for f in facts],
                       wahl=[str(f.params) if f.params else "none" for f in facts],
                       negative_definite=definite,
                       boundary_orders=[f.boundary_order for f in facts],
                       expected_ok=expected_ok)
            if result is None:
                report.add("surgery", FAIL, error=error)
                return report
            failed = mismatches or (strict and not s.surgery_expect)
            report.add("surgery", FAIL if failed else PASS,
                       before=result.before.as_dict(), after=result.after.as_dict(),
                       pieces=[[w.p, w.q, l] for w, l in result.pieces],
                       total_length=result.total_length,
                       expected=dict(s.surgery_expect), mismatches=mismatches)
            report.assumptions.extend(a.as_dict() for a in smoothing_ledger(result))
    elif strict:
        report.add("chains", FAIL, error="strict mode: no [chains] section")

    derived_pi1: Optional[int] = None
    if s.pi1_witness is not None:
        if result is None or len(facts) != 2:
            report.add("pi1", FAIL, error="pi1 needs two embedded chains and a surgery")
        else:
            witness_ok = minus_one_sphere_witness(final, facts[0].ids, facts[1].ids,
                                                  s.pi1_witness)
            if final.pi1_order is None:
                report.add("pi1", INCONCLUSIVE, error="ambient pi1 order unknown")
            else:
                derivation = pi1_after_blowdown(
                    CyclicGroup(final.pi1_order),
                    [w for w, _ in result.pieces], witness_ok)
                trace = [st.as_dict() for st in derivation.trace]
                if not derivation.conclusive:
                    report.add("pi1", INCONCLUSIVE, witness=witness_ok,
                               reason=derivation.reason, trace=trace)
                else:
                    order = derivation.group.order
                    ok = (s.pi1_expect_order is None or order == s.pi1_expect_order)
                    report.add("pi1", PASS if (ok and witness_ok) else FAIL,
                               witness=witness_ok, computed_order=order,
                               expected_order=s.pi1_expect_order, trace=trace)
                    derived_pi1 = order

    if s.cover is not None:
        _verify_cover(s, base, [f.ids for f in facts or ()], derived_pi1, report)

    return report


def _verify_cover(s: Scenario, base: Configuration, base_chains: list[tuple[str, ...]],
                  base_pi1_order: Optional[int], report: Report):
    cov = s.cover
    steps = [step for _, *lifts in cov.blowups for step in lifts]
    try:
        lifted = lift_configuration(base, cov.decl)
        cover_final = run_program(lifted, steps)
    except (CoverError, BlowupError) as err:
        report.add("cover", FAIL, error=f"cover: {err}")
        return
    doubling = lift_violations(s.blowups, cov.blowups, cov.base_of)
    violations = adjunction_audit(cover_final)

    payload: dict = {
        "computed_before": lifted.ambient.as_dict(),
        "computed_after_blowups": cover_final.ambient.as_dict(),
        "blowup_steps": len(steps),
        "doubling_violations": doubling,
        "audit_violations": violations,
    }
    ok = not doubling and not violations
    short = []  # why the pi1 order cannot be halved: base chains not lifted twice

    if cov.gram_ids:
        det = det_exact(gram(cover_final, cov.gram_ids))
        payload.update(gram_ids=list(cov.gram_ids), gram_det=det, gram_nonzero=det != 0)
        ok = ok and not (cov.gram_expect_nonzero and det == 0)
        report.assumptions.extend(a.as_dict() for a in COVER_ASSUMPTIONS)

    if cov.chains:
        search, under = lift_chains(cover_final, cov.base_of, base_chains, cov.chains)
        chains, result, mismatches, error = _blowdown(cover_final, search, cov.expect)
        if chains is None and not base_chains:
            error += ": the base embedded no chain to lift"
        ok = ok and error is None and not mismatches
        if chains is not None:
            payload.update(chain_embeddings=[list(f.ids) for f in chains],
                           chain_lengths=[len(f.ids) for f in chains])
        if result is None:
            payload["chains_error" if chains is None else "surgery_error"] = error
        else:
            payload.update(computed_after_surgery=result.after.as_dict(),
                           expected=dict(cov.expect), mismatches=mismatches)
        # pi1 of the cover surgery: when the cover chains are the two lifts of
        # each base chain, the induced double covering halves the order
        # derived for the base surgery
        if result is not None and cov.expect_pi1_order is not None:
            short = [f"cover: base chain [{', '.join(ids)}] has {n} preimage chains, not 2"
                     for k, ids in enumerate(base_chains) if (n := under.count(k)) != 2]
            if base_pi1_order is None or base_pi1_order % 2:
                payload["pi1_error"] = ("cover: base scenario derived no pi1 order to halve"
                                        if base_pi1_order is None else
                                        f"cover: base pi1 order {base_pi1_order} is odd")
                ok = False
            elif short:
                payload["pi1_error"] = short[0]
            else:
                payload["computed_pi1_order"] = base_pi1_order // 2
                payload["expected_pi1_order"] = cov.expect_pi1_order
                ok = ok and base_pi1_order // 2 == cov.expect_pi1_order
    elif cov.expect:
        payload["expected"] = dict(cov.expect)
        payload["mismatches"] = _mismatches(cover_final.ambient, cov.expect)
        ok = ok and not payload["mismatches"]

    report.add("cover", FAIL if not ok else INCONCLUSIVE if short else PASS, **payload)
