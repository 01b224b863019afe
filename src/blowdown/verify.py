"""Scenario verification pipeline.

Runs a parsed scenario through the library end to end: build the surface,
apply the blow-up program, audit adjunction, locate the chains, run the
lattice checks, perform the rational blow-down, derive the fundamental
group, and (when declared) lift everything to the double cover.  Every
computed value is compared against the scenario's expectations; failures
are report content, not exceptions.
"""

from __future__ import annotations

from typing import Optional

from .configuration import (BlowupError, Configuration, Curve, InvariantSet,
                            adjunction_audit, find_chains, preset, run_program,
                            set_pairing)
from .cover import CoverError, check_doubling, lift_configuration
from .fundgroup import (CyclicGroup, minus_one_sphere_witness,
                        pi1_after_blowdown)
from .hjcf import wahl_recognize
from .lattice import boundary_group_order, det_exact, gram, is_negative_definite
from .report import FAIL, INCONCLUSIVE, PASS, Report
from .scenario import Scenario
from .surgery import (COVER_ASSUMPTIONS, SurgeryError, rational_blowdown,
                      smoothing_ledger)


def _build_surface(s: Scenario) -> Configuration:
    if s.preset_name is not None:
        config = preset(s.preset_name)
    else:
        fields = dict(s.explicit_surface)
        ambient = InvariantSet.from_base(e=fields["e"], sigma=fields["sigma"],
                                         pg=fields["pg"], q=fields["q"])
        config = Configuration({}, {}, ambient, fields.get("pi1_order"))
    curves, pairings = dict(config.curves), dict(config.pairings)
    for c in s.curves:
        curves[c.id] = Curve(c.id, c.self_int, c.genus, c.k_degree, c.node_count,
                             frozenset(c.labels))
    for a, b, v in s.pairings:
        set_pairing(curves, pairings, a, b, v)
    return Configuration(curves, pairings, config.ambient, config.pi1_order)


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

    embeddings = None
    if s.chains:
        targets = [c for c, _ in s.chains]
        search = find_chains(final, targets)
        if not search.found:
            report.add("chains", FAIL,
                       error=f"no embedding for target {search.failed_target}",
                       targets=[str(c) for c in targets])
        else:
            embeddings = search.embeddings
            recognized = []
            expected_ok = True
            definite = []
            orders = []
            for (chain, expect), emb in zip(s.chains, embeddings):
                w = wahl_recognize(chain)
                recognized.append(str(w) if w else "none")
                if expect is not None and w != expect:
                    expected_ok = False
                definite.append(is_negative_definite(gram(final, emb)))
                orders.append(boundary_group_order(chain))
            status = PASS if expected_ok and all(definite) else FAIL
            report.add("chains", status,
                       embeddings=[list(e) for e in embeddings],
                       wahl=recognized,
                       negative_definite=definite,
                       boundary_orders=orders,
                       expected_ok=expected_ok)
    elif strict:
        report.add("chains", FAIL, error="strict mode: no [chains] section")

    result = None
    if embeddings is not None:
        try:
            result = rational_blowdown(final, embeddings)
        except SurgeryError as err:
            report.add("surgery", FAIL, error=str(err))
            return report
        computed = result.after.as_dict()
        expected = dict(s.surgery_expect)
        mismatches = {k: {"expected": v, "computed": computed[k]}
                      for k, v in expected.items() if computed[k] != v}
        status = PASS if not mismatches else FAIL
        if strict and not expected:
            status = FAIL
        report.add("surgery", status,
                   before=result.before.as_dict(), after=computed,
                   pieces=[[w.p, w.q, l] for w, l in result.pieces],
                   total_length=result.total_length,
                   expected=expected, mismatches=mismatches)
        report.assumptions.extend(a.as_dict() for a in smoothing_ledger(result))

    derived_pi1: Optional[int] = None
    if s.pi1_witness is not None:
        if embeddings is None or result is None or len(embeddings) != 2:
            report.add("pi1", FAIL, error="pi1 needs two embedded chains and a surgery")
        else:
            witness_ok = minus_one_sphere_witness(final, embeddings[0], embeddings[1],
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
        _verify_cover(s, base, final, derived_pi1, report)

    return report


def _verify_cover(s: Scenario, base: Configuration, final: Configuration,
                  base_pi1_order: Optional[int], report: Report):
    cov = s.cover
    try:
        lifted = lift_configuration(base, cov.decl)
    except CoverError as err:
        report.add("cover", FAIL, error=f"cover: {err}")
        return
    doubling = check_doubling(base, lifted)

    # lift plan: exactly two cover steps per base step, in base order
    base_order = [step.new_id for step in s.blowups]
    plan = {bid: (first, second) for bid, first, second in cov.blowups}
    if sorted(plan) != sorted(base_order):
        report.add("cover", FAIL,
                   error="cover: lift plan must cover each base step exactly once",
                   doubling_violations=doubling)
        return
    steps = [step for bid in base_order for step in plan[bid]]
    try:
        cover_final = run_program(lifted, steps)
    except BlowupError as err:
        report.add("cover", FAIL, error=f"cover: {err}",
                   doubling_violations=doubling)
        return
    doubling += check_doubling(final, cover_final)
    violations = adjunction_audit(cover_final)

    payload: dict = {
        "computed_before": lifted.ambient.as_dict(),
        "computed_after_blowups": cover_final.ambient.as_dict(),
        "blowup_steps": len(steps),
        "doubling_violations": doubling,
        "audit_violations": violations,
    }
    ok = not doubling and not violations

    if cov.gram_ids:
        g = gram(cover_final, cov.gram_ids)
        det = det_exact(g)
        payload["gram_ids"] = list(cov.gram_ids)
        payload["gram_det"] = det
        payload["gram_nonzero"] = det != 0
        if cov.gram_expect_nonzero and det == 0:
            ok = False
        report.assumptions.extend(a.as_dict() for a in COVER_ASSUMPTIONS)

    if cov.chains:
        search = find_chains(cover_final, cov.chains)
        if not search.found:
            payload["chains_error"] = f"no embedding for target {search.failed_target}"
            ok = False
        else:
            payload["chain_embeddings"] = [list(e) for e in search.embeddings]
            payload["chain_lengths"] = [len(e) for e in search.embeddings]
            try:
                cover_surgery = rational_blowdown(cover_final, search.embeddings)
            except SurgeryError as err:
                payload["surgery_error"] = str(err)
                ok = False
            else:
                after = cover_surgery.after.as_dict()
                payload["computed_after_surgery"] = after
                mismatches = {k: {"expected": v, "computed": after[k]}
                              for k, v in cov.expect if after[k] != v}
                payload["expected"] = dict(cov.expect)
                payload["mismatches"] = mismatches
                if mismatches:
                    ok = False
                # pi1 of the cover surgery: the induced double covering halves
                # the order derived for the base surgery
                if cov.expect_pi1_order is not None:
                    if base_pi1_order is None:
                        payload["pi1_error"] = ("cover: base scenario derived no "
                                                "pi1 order to halve")
                        ok = False
                    elif base_pi1_order % 2 != 0:
                        payload["pi1_error"] = (f"cover: base pi1 order "
                                                f"{base_pi1_order} is odd")
                        ok = False
                    else:
                        computed = base_pi1_order // 2
                        payload["computed_pi1_order"] = computed
                        payload["expected_pi1_order"] = cov.expect_pi1_order
                        if computed != cov.expect_pi1_order:
                            ok = False
    elif cov.expect:
        after = cover_final.ambient.as_dict()
        mismatches = {k: {"expected": v, "computed": after[k]}
                      for k, v in cov.expect if after[k] != v}
        payload["expected"] = dict(cov.expect)
        payload["mismatches"] = mismatches
        if mismatches:
            ok = False

    report.add("cover", PASS if ok else FAIL, **payload)
