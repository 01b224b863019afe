import dataclasses
import itertools
import random

import pytest

from blowdown.configuration import (AdjunctionError, BlowupError, Configuration,
                                    Curve, InvariantSet, PointSpec,
                                    adjunction_audit, blow_up, find_chains,
                                    preset, random_program, run_program)


class TestInvariantSet:
    def test_enriques_numbers(self):
        inv = InvariantSet.from_base(e=12, sigma=-8, pg=0, q=0)
        assert (inv.k2, inv.b2, inv.b2_plus, inv.b2_minus) == (0, 10, 1, 9)

    def test_k3_numbers(self):
        inv = InvariantSet.from_base(e=24, sigma=-16, pg=1, q=0)
        assert (inv.k2, inv.b2_plus) == (0, 3)

    def test_rejects_wrong_pg(self):
        with pytest.raises(ValueError):
            InvariantSet.from_base(e=12, sigma=-8, pg=1, q=0)

    def test_rejects_odd_parity(self):
        with pytest.raises(ValueError):
            InvariantSet.from_base(e=12, sigma=-7, pg=0, q=0)

    def test_stores_e_and_sigma_only(self):
        assert [f.name for f in dataclasses.fields(InvariantSet)] == ["e", "sigma"]
        inv = InvariantSet(12, -8)
        assert inv == InvariantSet.from_base(e=12, sigma=-8, pg=0)
        assert inv.as_dict() == {"e": 12, "sigma": -8, "K2": 0, "pg": 0, "q": 0,
                                 "b2": 10, "b2_plus": 1, "b2_minus": 9}
        with pytest.raises(AttributeError):
            inv.k2 = 1

    @pytest.mark.parametrize("e, sigma, message", [
        (12, -7, r"b2 \+ sigma must be even"),
        (14, -8, r"b2\+ = 2 is even"),
        (1, 3, "negative b2 part"),  # b2- = -2
        (-4, 0, "negative b2 part"),  # b2+ = -3
    ])
    def test_cannot_be_built_invalid(self, e, sigma, message):
        with pytest.raises(ValueError, match=message):
            InvariantSet(e, sigma)

    def test_from_base_rejects_q(self):
        with pytest.raises(ValueError, match="give p_g = 0 and q = 0, not p_g = 0 and q = 1"):
            InvariantSet.from_base(e=12, sigma=-8, pg=0, q=1)


class TestPresets:
    def test_enriques(self):
        cfg = preset("enriques_kondo")
        assert cfg.ambient.e == 12 and cfg.ambient.sigma == -8 and cfg.ambient.k2 == 0
        assert cfg.pi1_order == 2
        assert len([cid for cid in cfg.curves if cid.startswith("D")]) == 9
        assert cfg.curves["F"].node_count == 1
        # 9-cycle
        assert cfg.pairing("D1", "D2") == 1
        assert cfg.pairing("D9", "D1") == 1
        assert cfg.pairing("D1", "D3") == 0

    def test_k3_cover(self):
        cfg = preset("k3_kondo_cover")
        assert cfg.ambient.e == 24 and cfg.ambient.sigma == -16 and cfg.ambient.k2 == 0
        assert cfg.pi1_order == 1
        assert len(cfg.curves) == 9 + 9 + 2 + 4

    def test_unknown(self):
        with pytest.raises(KeyError):
            preset("nope")

    def test_preset_audits_clean(self):
        for name in ("enriques_kondo", "k3_kondo_cover"):
            assert adjunction_audit(preset(name)) == []


class TestBlowUp:
    def test_free_point(self):
        cfg = preset("enriques_kondo")
        out = blow_up(cfg, PointSpec("E"))
        assert (out.ambient.e, out.ambient.sigma, out.ambient.k2) == (13, -9, -1)
        assert out.curves["E"].self_int == -1
        assert out.curves["E"].k_degree == -1

    def test_node_of_f(self):
        cfg = preset("enriques_kondo")
        out = blow_up(cfg, PointSpec("E", node_of="F"))
        f = out.curves["F"]
        assert f.self_int == -4 and f.k_degree == 2 and f.node_count == 0
        assert out.pairing("F", "E") == 2
        # adjunction: -4 + 2 = -2 = 2*0 - 2
        assert f.adjunction_defect() == 0

    def test_transverse_intersection(self):
        cfg = preset("enriques_kondo")
        out = blow_up(cfg, PointSpec("E", incidences=(("D1", 1), ("D2", 1))))
        assert out.pairing("D1", "D2") == 0
        assert out.pairing("D1", "E") == 1
        assert out.pairing("D2", "E") == 1
        assert out.curves["D1"].self_int == -3

    def test_rejects_unknown_curve(self):
        cfg = preset("enriques_kondo")
        with pytest.raises(BlowupError):
            blow_up(cfg, PointSpec("E", incidences=(("nope", 1),)))

    def test_rejects_duplicate_id(self):
        cfg = preset("enriques_kondo")
        with pytest.raises(BlowupError):
            blow_up(cfg, PointSpec("D1"))

    def test_rejects_overconsumption(self):
        cfg = preset("enriques_kondo")
        step = PointSpec("E", incidences=(("D1", 1), ("D3", 1)))
        with pytest.raises(BlowupError):
            blow_up(cfg, step)  # D1.D3 = 0, cannot consume 1

    def test_rejects_multiplicity_on_smooth_curve(self):
        cfg = preset("enriques_kondo")
        with pytest.raises(AdjunctionError):
            blow_up(cfg, PointSpec("E", incidences=(("D1", 2),)))

    def test_rejects_negative_consume(self):
        with pytest.raises(ValueError, match="must be >= 0"):
            PointSpec("E", incidences=(("S1", 1), ("F", 1)),
                      pairwise_local=((("F", "S1"), -5),))

    def test_rejects_node_on_nodeless_curve(self):
        cfg = preset("enriques_kondo")
        with pytest.raises(BlowupError):
            blow_up(cfg, PointSpec("E", node_of="D1"))

    def test_delta_invariants(self):
        cfg = preset("enriques_kondo")
        out = blow_up(cfg, PointSpec("E", incidences=(("S1", 1),)))
        assert out.ambient.e - cfg.ambient.e == 1
        assert out.ambient.sigma - cfg.ambient.sigma == -1
        assert out.ambient.k2 - cfg.ambient.k2 == -1
        assert out.ambient.b2_plus == cfg.ambient.b2_plus


class TestRunProgram:
    def test_empty_program_is_identity(self):
        cfg = preset("enriques_kondo")
        assert run_program(cfg, []) is cfg

    def test_fifteen_steps_reach_k2_minus_15(self):
        cfg = preset("enriques_kondo")
        steps = [PointSpec(f"E{i}") for i in range(1, 16)]
        out = run_program(cfg, steps)
        assert out.ambient.k2 == -15
        assert out.ambient.e == 27

    def test_twelve_steps_reach_e_24(self):
        cfg = preset("enriques_kondo")
        steps = [PointSpec(f"E{i}") for i in range(1, 13)]
        assert run_program(cfg, steps).ambient.e == 24

    def test_error_annotated_with_step(self):
        cfg = preset("enriques_kondo")
        steps = [PointSpec("E1"), PointSpec("E2", node_of="D1")]
        with pytest.raises(BlowupError, match="step 2"):
            run_program(cfg, steps)


class TestNeighbours:
    def test_matches_pairing_table(self):
        rng = random.Random(7)
        for _ in range(30):
            base, steps = random_program(rng)
            cfg = run_program(base, steps)
            near = cfg.neighbours
            assert set(near) == set(cfg.curves)
            for a in cfg.curves:
                assert near[a] == {b: cfg.pairing(a, b) for b in cfg.curves
                                   if b != a and cfg.pairing(a, b)}

    def test_built_once_per_value(self):
        cfg = preset("enriques_kondo")
        assert cfg.neighbours is cfg.neighbours
        changed = cfg.with_pairing("S1", "D3", 1)
        assert changed.neighbours["S1"] == {"D3": 1}
        assert cfg.neighbours["S1"] == {}

    def test_dangling_pairing(self):
        cfg = Configuration({"A": Curve("A", -2)}, {("A", "Z"): 1},
                            InvariantSet.from_base(e=12, sigma=-8, pg=0))
        assert cfg.neighbours == {"A": {"Z": 1}, "Z": {"A": 1}}


class TestFindChains:
    def test_single_minus_four(self):
        cfg = preset("enriques_kondo")
        cfg = cfg.with_curve(Curve("X", self_int=-4, k_degree=2))
        res = find_chains(cfg, [[4]])
        assert res.found and res.embeddings == (("X",),)

    def test_failure_is_structured(self):
        cfg = preset("enriques_kondo")
        res = find_chains(cfg, [[2, 2], [9]])
        assert not res.found
        assert res.failed_target == 1

    def test_run_in_cycle(self):
        cfg = preset("enriques_kondo")
        res = find_chains(cfg, [[2, 2, 2]])
        assert res.found
        a, b, c = res.embeddings[0]
        assert cfg.pairing(a, b) == 1 and cfg.pairing(b, c) == 1
        assert cfg.pairing(a, c) == 0

    def test_disjointness_enforced(self):
        # two [2,2] chains exist in the cycle but must not touch each other
        cfg = preset("enriques_kondo")
        res = find_chains(cfg, [[2, 2], [2, 2]])
        assert res.found
        used = set(res.embeddings[0]) | set(res.embeddings[1])
        assert len(used) == 4
        for x in res.embeddings[0]:
            for y in res.embeddings[1]:
                assert cfg.pairing(x, y) == 0

    def test_nodal_curve_not_eligible(self):
        cfg = preset("enriques_kondo")
        cfg = blow_up(cfg, PointSpec("E", node_of="F"))
        # F is now a (-4)-curve but with genus 0 and no nodes: eligible;
        # fresh preset F (nodal) must not satisfy a [0]-style target anyway.
        res = find_chains(cfg, [[4]])
        assert res.found and res.embeddings[0] == ("F",)


def brute_embeddings(cfg, entries, taken):
    """Every embedding of one chain avoiding the curves in taken, in id order."""
    out = []
    for emb in itertools.permutations(sorted(cfg.curves), len(entries)):
        curves = [cfg.curves[c] for c in emb]
        if any(c.self_int != -b or c.genus or c.node_count
               for c, b in zip(curves, entries)):
            continue
        if any(c in taken or any(cfg.pairing(c, t) for t in taken) for c in emb):
            continue
        if all(cfg.pairing(x, y) == (1 if j == i + 1 else 0)
               for (i, x), (j, y) in itertools.combinations(enumerate(emb), 2)):
            out.append(emb)
    return out


def brute_find_chains(cfg, targets):
    """(embeddings, failed_target) by exhaustive search.

    The embeddings are the first joint solution in id order; the failed
    target is the first chain without an embedding when every earlier
    chain takes its first embedding.
    """
    def first_joint(i, taken):
        if i == len(targets):
            return ()
        for emb in brute_embeddings(cfg, targets[i], taken):
            rest = first_joint(i + 1, taken | set(emb))
            if rest is not None:
                return (emb,) + rest
        return None

    joint = first_joint(0, set())
    if joint is not None:
        return joint, None
    taken = set()
    for i, entries in enumerate(targets):
        embs = brute_embeddings(cfg, entries, taken)
        if not embs:
            return (), i
        taken |= set(embs[0])
    raise AssertionError("greedy search succeeded where the joint one failed")


def random_configuration(rng):
    ambient = InvariantSet.from_base(e=12, sigma=-8, pg=0, q=0)
    curves = {}
    for _ in range(rng.randint(3, 8)):
        cid = f"c{rng.randint(0, 30):02d}"
        curves[cid] = Curve(cid, self_int=rng.choice([-2, -2, -2, -3, -4, -1]),
                            genus=int(rng.random() < 0.1),
                            node_count=int(rng.random() < 0.1))
    ids = sorted(curves)
    density = rng.uniform(0.2, 0.6)
    pairings = {(a, b): rng.choice([1, 1, 1, 2])
                for a, b in itertools.combinations(ids, 2) if rng.random() < density}
    return Configuration(curves, pairings, ambient, 2)


class TestFindChainsExhaustive:
    def test_matches_brute_force(self):
        rng = random.Random(99)
        backtracked_ok = backtracked_fail = 0
        for _ in range(400):
            cfg = random_configuration(rng)
            targets = [[rng.choice([2, 2, 3, 4]) for _ in range(rng.randint(1, 3))]
                       for _ in range(rng.randint(1, 3))]
            embeddings, failed = brute_find_chains(cfg, targets)
            res = find_chains(cfg, targets)
            assert (res.embeddings, res.failed_target) == (embeddings, failed)
            assert res.found == (failed is None)
            if res.found and embeddings[0] != brute_embeddings(cfg, targets[0], set())[0]:
                backtracked_ok += 1
            if failed is not None and failed > 0:
                backtracked_fail += 1
        assert backtracked_ok > 0 and backtracked_fail > 0

    def _decoy(self):
        # D1-D2 is a [2,2] chain meeting L2, the middle of L1-L2-L3; R1-R2
        # is the real copy.  Ids sort D < L < R, so D1-D2 is tried first.
        ambient = InvariantSet.from_base(e=12, sigma=-8, pg=0, q=0)
        ids = ["D1", "D2", "L1", "L2", "L3", "R1", "R2"]
        curves = {cid: Curve(cid, self_int=-2) for cid in ids}
        pairings = {("D1", "D2"): 1, ("D2", "L2"): 1, ("L1", "L2"): 1,
                    ("L2", "L3"): 1, ("R1", "R2"): 1}
        return Configuration(curves, pairings, ambient, 2)

    def test_backtracks_across_chains(self):
        # every [2,2] in the D/L tree leaves no [2,2,2] beside it, so the
        # search moves the first chain to R1-R2 and takes D1-D2-L2
        res = find_chains(self._decoy(), [[2, 2], [2, 2, 2]])
        assert res.found
        assert res.embeddings == (("R1", "R2"), ("D1", "D2", "L2"))

    def test_failure_after_backtracking_names_first_dead_end(self):
        # no third disjoint chain exists: the search tries every embedding
        # of the first two chains, then reports target 1, where the first
        # embedding of target 0 (D1-D2) left no room
        res = find_chains(self._decoy(), [[2, 2], [2, 2, 2], [2, 2]])
        assert not res.found
        assert res.failed_target == 1


class TestAudit:
    def test_preset_clean(self):
        assert adjunction_audit(preset("enriques_kondo")) == []

    def test_tampered_curve(self):
        cfg = preset("enriques_kondo").with_curve(Curve("bad", self_int=-3))
        problems = adjunction_audit(cfg)
        assert len(problems) == 1 and "bad" in problems[0]

    def test_randomized_programs_stay_clean(self):
        rng = random.Random(2024)
        for _ in range(60):
            start, steps = random_program(rng)
            final = run_program(start, steps)
            assert adjunction_audit(final) == []
            assert final.ambient.k2 == 2 * final.ambient.e + 3 * final.ambient.sigma
            assert all(v >= 0 for v in final.pairings.values())
