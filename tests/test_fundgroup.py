from dataclasses import replace

import pytest

from blowdown.configuration import Curve, preset
from blowdown.fundgroup import (CyclicGroup, CyclicHom, kill_rule,
                                minus_one_sphere_witness, pi1_after_blowdown,
                                pushout_cyclic, replay_trace)
from blowdown.hjcf import WahlParams


class TestCyclicHom:
    def test_well_defined(self):
        CyclicHom(CyclicGroup(4), CyclicGroup(2), 1)

    def test_rejects_ill_defined(self):
        with pytest.raises(ValueError):
            CyclicHom(CyclicGroup(2), CyclicGroup(4), 1)

    def test_surjectivity(self):
        assert CyclicHom(CyclicGroup(5329), CyclicGroup(73), 1).is_surjective()
        assert not CyclicHom(CyclicGroup(5329), CyclicGroup(73), 0).is_surjective()


class TestPushout:
    def test_paper_case(self):
        edge = CyclicGroup(5329)
        b, c = CyclicGroup(2), CyclicGroup(73)
        f = CyclicHom(edge, b, 0)
        g = CyclicHom(edge, c, 1)
        assert pushout_cyclic(b, c, f, g) == CyclicGroup(2)

    def test_identity_legs(self):
        n = CyclicGroup(12)
        ident = CyclicHom(n, n, 1)
        assert pushout_cyclic(n, n, ident, ident) == n

    def test_neither_surjective_refused(self):
        edge = CyclicGroup(2)
        four = CyclicGroup(4)
        inj = CyclicHom(edge, four, 2)
        assert pushout_cyclic(four, four, inj, inj) is None

    def test_trivial_edge_free_product(self):
        edge = CyclicGroup(1)
        b, c = CyclicGroup(5), CyclicGroup(1)
        f = CyclicHom(edge, b, 0)
        g = CyclicHom(edge, c, 0)
        assert pushout_cyclic(b, c, f, g) == b  # trivial factor
        # two nontrivial factors: free product is not cyclic -> refused
        c2 = CyclicGroup(3)
        g2 = CyclicHom(edge, c2, 0)
        assert pushout_cyclic(b, c2, f, g2) is None

    def test_mismatched_sources(self):
        f = CyclicHom(CyclicGroup(4), CyclicGroup(2), 1)
        g = CyclicHom(CyclicGroup(9), CyclicGroup(3), 1)
        with pytest.raises(ValueError):
            pushout_cyclic(CyclicGroup(2), CyclicGroup(3), f, g)

    def test_result_order_divides(self):
        for b in range(1, 12):
            for c in range(1, 12):
                edge = CyclicGroup(b * c)
                f = CyclicHom(edge, CyclicGroup(b), 1 if b > 1 else 0)
                g = CyclicHom(edge, CyclicGroup(c), 1 if c > 1 else 0)
                out = pushout_cyclic(CyclicGroup(b), CyclicGroup(c), f, g)
                if out is not None and g.is_surjective():
                    assert CyclicGroup(b).order % out.order == 0


class TestKillRule:
    def test_paper_73_19(self):
        d = kill_rule(CyclicGroup(2), 73, 19, True)
        assert d.conclusive and d.group == CyclicGroup(2)
        assert replay_trace(d.trace)

    def test_inconclusive_gcd(self):
        d = kill_rule(CyclicGroup(2), 4, 2, True)
        assert not d.conclusive
        assert "gcd" in d.reason

    def test_inconclusive_no_witness(self):
        d = kill_rule(CyclicGroup(2), 73, 19, False)
        assert not d.conclusive
        assert "witness" in d.reason

    def test_trace_names_steps(self):
        d = kill_rule(CyclicGroup(2), 151, 4, True)
        rules = [s.rule for s in d.trace]
        assert "coprime_kill" in rules and "equal_order_witness" in rules


class TestWitnessPredicate:
    def _setup(self):
        cfg = preset("enriques_kondo")
        cfg = cfg.with_curve(Curve("A", self_int=-4, k_degree=2))
        cfg = cfg.with_curve(Curve("B", self_int=-4, k_degree=2))
        cfg = cfg.with_curve(Curve("W", self_int=-1, k_degree=-1))
        cfg = cfg.with_pairing("W", "A", 1).with_pairing("W", "B", 1)
        return cfg

    def test_valid_witness(self):
        cfg = self._setup()
        assert minus_one_sphere_witness(cfg, ["A"], ["B"], "W")

    def test_wrong_self_int(self):
        cfg = self._setup().with_curve(Curve("W2", self_int=-2))
        cfg = cfg.with_pairing("W2", "A", 1).with_pairing("W2", "B", 1)
        assert not minus_one_sphere_witness(cfg, ["A"], ["B"], "W2")

    def test_witness_inside_chain_rejected(self):
        cfg = self._setup()
        assert not minus_one_sphere_witness(cfg, ["W"], ["B"], "W")

    def test_must_meet_an_end(self):
        cfg = preset("enriques_kondo")
        cfg = cfg.with_curve(Curve("W", self_int=-1, k_degree=-1))
        cfg = cfg.with_pairing("W", "D2", 1)  # middle of [D1, D2, D3]
        cfg = cfg.with_curve(Curve("A", self_int=-4, k_degree=2))
        cfg = cfg.with_pairing("W", "A", 1)
        assert not minus_one_sphere_witness(cfg, ["D1", "D2", "D3"], ["A"], "W")

    def test_double_pairing_rejected(self):
        cfg = self._setup().with_pairing("W", "A", 2)
        assert not minus_one_sphere_witness(cfg, ["A"], ["B"], "W")

    def test_unknown_id_raises(self):
        cfg = self._setup()
        with pytest.raises(KeyError):
            minus_one_sphere_witness(cfg, ["A"], ["B"], "nope")


class TestPiOneAfterBlowdown:
    def test_paper_73_19(self):
        d = pi1_after_blowdown(CyclicGroup(2), [(73, 50), (19, 13)], True)
        assert d.conclusive and d.group.order == 2
        rules = [s.rule for s in d.trace]
        assert rules.count("pushout_cyclic") == 2
        assert "coprime_kill" in rules
        assert replay_trace(d.trace)

    def test_paper_151_4(self):
        d = pi1_after_blowdown(CyclicGroup(2), [(151, 31), (4, 1)], True)
        assert d.conclusive and d.group.order == 2
        assert replay_trace(d.trace)

    def test_trivial_ambient(self):
        d = pi1_after_blowdown(CyclicGroup(1), [(5, 1), (2, 1)], True)
        assert d.conclusive and d.group.order == 1

    def test_non_coprime_inconclusive(self):
        d = pi1_after_blowdown(CyclicGroup(2), [(4, 1), (2, 1)], True)
        assert not d.conclusive

    def test_wrong_arity_refused(self):
        d = pi1_after_blowdown(CyclicGroup(2), [(5, 1)], True)
        assert not d.conclusive and "2 pieces" in d.reason
        d3 = pi1_after_blowdown(CyclicGroup(2), [(5, 1), (2, 1), (3, 1)], True)
        assert not d3.conclusive

    def test_order_independent(self):
        a = pi1_after_blowdown(CyclicGroup(2), [(73, 50), (19, 13)], True)
        b = pi1_after_blowdown(CyclicGroup(2), [(19, 13), (73, 50)], True)
        assert a.group == b.group

    def test_accepts_wahl_params(self):
        d = pi1_after_blowdown(CyclicGroup(2),
                               [WahlParams(73, 50), WahlParams(19, 13)], True)
        assert d.conclusive

    def test_replay_rejects_tampering(self):
        d = pi1_after_blowdown(CyclicGroup(2), [(73, 50), (19, 13)], True)
        step = d.trace.steps[-1]
        forged = step.__class__(step.rule, step.inputs,
                                "pi1(blow-down) = Z17", step.justification)
        from blowdown.fundgroup import DerivationTrace
        bad = DerivationTrace(d.trace.steps[:-1] + (forged,))
        assert not replay_trace(bad)
        steps = d.trace.steps
        forgeries = {
            # each forged step follows its rule on its own inputs, but the
            # first pushout is over Z4 where the identified pi1 is Z2 ...
            "pushout B": _edit(steps, "pushout_cyclic", "Z4 *_Z5329 Z73 = Z4", B="4"),
            # ... and here pi1 is identified as Z6, the pushout still over Z2
            "ambient order": _edit(steps, "identify_pi1", "pi1(complement) = Z6",
                                   ambient_order="6"),
            # no kill: nothing makes the complement's pi1 the ambient one
            "dropped kill": _edit(steps, "coprime_kill"),
            "unknown rule": steps[:-1] + (replace(steps[-1], rule="assert_pi1"),),
            # the kill's premise is missing or refused, yet the argument goes on
            "dropped witness": _edit(steps, "equal_order_witness"),
            "refused witness": _edit(steps, "equal_order_witness", "inconclusive",
                                     witness="False"),
            # the kill is stated for other chains than the boundary rule bounds
            "boundary p": _edit(steps, "boundary_order_divides",
                                "ord(x) | 25, ord(y) | 361", p1="5"),
            # a ball over another chain than the killed ones
            "pushout ball": _edit(steps, "pushout_cyclic", "Z2 *_Z25 Z5 = Z2",
                                  C="5", edge="25"),
            # no ball glued, or only one: the conclusion does not follow
            "dropped pushouts": _edit(_edit(steps, "pushout_cyclic"), "pushout_cyclic"),
            "one pushout": _edit(steps, "pushout_cyclic"),
            # a refusal ends the argument: nothing may follow it
            "after unresolved": _edit(steps, "pushout_cyclic", "unresolved", g1="0"),
            "conclude after unresolved": _edit(steps, "pushout_cyclic", "unresolved",
                                               last=True, g1="0"),
        }
        for name, forgery in forgeries.items():
            assert not replay_trace(DerivationTrace(forgery)), name


    def test_replay_accepts_refusals(self):
        from blowdown.fundgroup import DerivationTrace
        refused = [kill_rule(CyclicGroup(2), 73, 19, False),
                   kill_rule(CyclicGroup(2), 4, 2, True),
                   pi1_after_blowdown(CyclicGroup(2), [(5, 1)], True)]
        for d in refused:
            assert not d.conclusive and replay_trace(d.trace)
        steps = pi1_after_blowdown(CyclicGroup(2), [(73, 50), (19, 13)], True).trace.steps
        # a pushout with no surjective leg is refused, and the refusal replays
        unresolved = _edit(steps, "pushout_cyclic", "unresolved", last=True, g1="0")
        assert replay_trace(DerivationTrace(unresolved[:-1]))


def _edit(steps, rule, conclusion=None, last=False, **inputs):
    """The steps with the first (or last) step of rule given new inputs and
    conclusion, or dropped when no conclusion is given."""
    i = [i for i, s in enumerate(steps) if s.rule == rule][-1 if last else 0]
    if conclusion is None:
        return steps[:i] + steps[i + 1:]
    ins = tuple(sorted({**dict(steps[i].inputs), **inputs}.items()))
    return steps[:i] + (replace(steps[i], inputs=ins, conclusion=conclusion),) + steps[i + 1:]
