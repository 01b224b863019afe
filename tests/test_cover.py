import json
import random
import re

import pytest

from blowdown import bundled
from blowdown.cli import main
from blowdown.configuration import (Configuration, Curve, InvariantSet, PointSpec,
                                    preset, random_program, run_program)
from blowdown.cover import (CoverError, SplittingDecl, lift_configuration,
                            pullback_violations)
from blowdown.scenario import parse_scenario
from blowdown.verify import verify


def full_split_decl(base, pairings=None):
    splits = {cid: (cid + "a", cid + "b") for cid in base.curves}
    return SplittingDecl.build(splits, pairings=pairings or {})


def cycle_pairs(prefix, n=9):
    out = {}
    for i in range(1, n + 1):
        j = i % n + 1
        out[(f"D{i}{prefix}", f"D{j}{prefix}")] = 1
    return out


class TestLift:
    def test_invariants_double(self):
        base = preset("enriques_kondo")
        pairs = {}
        pairs.update(cycle_pairs("a"))
        pairs.update(cycle_pairs("b"))
        decl = full_split_decl(base, pairs)
        lifted = lift_configuration(base, decl)
        assert (lifted.ambient.e, lifted.ambient.sigma, lifted.ambient.k2) == (24, -16, 0)
        assert lifted.ambient.pg == 1
        assert lifted.pi1_order == 1
        assert pullback_violations(base, lifted, decl.base_of) == []

    def test_matches_k3_preset_ambient(self):
        base = preset("enriques_kondo")
        pairs = {}
        pairs.update(cycle_pairs("a"))
        pairs.update(cycle_pairs("b"))
        lifted = lift_configuration(base, full_split_decl(base, pairs))
        k3 = preset("k3_kondo_cover")
        assert lifted.ambient == k3.ambient

    def test_empty_configuration_doubles(self):
        ambient = InvariantSet.from_base(e=12, sigma=-8, pg=0, q=0)
        base = Configuration({}, {}, ambient, 2)
        lifted = lift_configuration(base, SplittingDecl.build({}))
        assert lifted.ambient.e == 24

    def test_split_curves_inherit(self):
        base = preset("enriques_kondo")
        pairs = {}
        pairs.update(cycle_pairs("a"))
        pairs.update(cycle_pairs("b"))
        lifted = lift_configuration(base, full_split_decl(base, pairs))
        assert lifted.curves["Fa"].self_int == 0
        assert lifted.curves["Fa"].node_count == 1
        assert lifted.curves["S1a"].self_int == -2

    def test_rejects_odd_pi1(self):
        ambient = InvariantSet.from_base(e=12, sigma=-8, pg=0, q=0)
        base = Configuration({}, {}, ambient, 3)
        with pytest.raises(CoverError, match="odd"):
            lift_configuration(base, SplittingDecl.build({}))

    def test_rejects_unknown_pi1(self):
        ambient = InvariantSet.from_base(e=12, sigma=-8, pg=0, q=0)
        base = Configuration({}, {}, ambient, None)
        with pytest.raises(CoverError):
            lift_configuration(base, SplittingDecl.build({}))

    def test_rejects_incomplete_declaration(self):
        base = preset("enriques_kondo")
        with pytest.raises(CoverError, match="mismatch"):
            lift_configuration(base, SplittingDecl.build({"F": ("Fa", "Fb")}))

    def test_rejects_bad_pullback_sum(self):
        base = preset("enriques_kondo")
        pairs = cycle_pairs("a")  # missing the b-cycle: sums are 1, not 2
        pairs[("D1b", "D2b")] = 0
        with pytest.raises(CoverError, match="pullback"):
            lift_configuration(base, full_split_decl(base, pairs))

    def test_rejects_meeting_preimages(self):
        base = preset("enriques_kondo")
        pairs = {}
        pairs.update(cycle_pairs("a"))
        pairs.update(cycle_pairs("b"))
        pairs[("Fa", "Fb")] = 1
        with pytest.raises(CoverError, match="disjoint"):
            lift_configuration(base, full_split_decl(base, pairs))

    def test_first_error_in_sorted_order(self):
        # A, B, C are split (-2)-curves with A.C = 1 and B.C = 1 downstairs
        ambient = InvariantSet.from_base(e=12, sigma=-8, pg=0, q=0)
        curves = {cid: Curve(cid, self_int=-2) for cid in "ABC"}
        base = Configuration(curves, {("A", "C"): 1, ("B", "C"): 1}, ambient, 2)
        good = {("Aa", "Ca"): 1, ("Ab", "Cb"): 1, ("Ba", "Ca"): 1, ("Bb", "Cb"): 1}

        def first_error(changes):
            pairs = {**good, **changes}
            with pytest.raises(CoverError) as err:
                lift_configuration(base, full_split_decl(base, pairs))
            return str(err.value)

        lift_configuration(base, full_split_decl(base, good))
        # A's own preimages meet: reported before any pair (A, *)
        msg = first_error({("Aa", "Ab"): 1, ("Ab", "Cb"): 2})
        assert "split curve 'A'" in msg
        # the pair (A, B) comes before B's own preimages
        msg = first_error({("Ba", "Bb"): 1, ("Aa", "Ba"): 1})
        assert msg == ("pullback pairing sum violated for A.B: cover total 1, "
                       "expected 0")
        # (A, C) before (B, C), both before C's own preimages
        msg = first_error({("Ca", "Cb"): 1, ("Bb", "Cb"): 0,
                             ("Ab", "Cb"): 0})
        assert msg == ("pullback pairing sum violated for A.C: cover total 1, "
                       "expected 2")

    def test_connected_rational_rejected(self):
        ambient = InvariantSet.from_base(e=12, sigma=-8, pg=0, q=0)
        base = Configuration({"C": Curve("C", self_int=-2)}, {}, ambient, 2)
        decl = SplittingDecl.build({}, connected={"C": "Cc"})
        with pytest.raises(CoverError, match="rational"):
            lift_configuration(base, decl)

    def test_connected_genus_one(self):
        ambient = InvariantSet.from_base(e=12, sigma=-8, pg=0, q=0)
        base = Configuration({"C": Curve("C", self_int=0, genus=1, k_degree=0)},
                             {}, ambient, 2)
        decl = SplittingDecl.build({}, connected={"C": "Cc"})
        lifted = lift_configuration(base, decl)
        cc = lifted.curves["Cc"]
        assert cc.self_int == 0 and cc.genus == 1 and cc.adjunction_defect() == 0


class TestCoverPi1:
    """The cover's pi1 order is halved only over preimage chains."""

    def test_cover_chains_dropped_is_inconclusive(self):
        # the two C(4,1) cover chains are left out, and the expectations are
        # those of blowing down the two C(151,31) preimages alone
        head, _, tail = bundled.text("cover_b2plus3").partition("[cover]")
        tail = tail.replace("chain = 6,2,2\n", "")
        for key, value in (("e", 20), ("sigma", -12), ("K2", 4)):
            tail = re.sub(rf"^expect {key} = .*$", f"expect {key} = {value}", tail,
                          flags=re.M)
        cover = verify(parse_scenario(head + "[cover]" + tail)).sections["cover"]
        assert cover["mismatches"] == {}
        assert cover["status"] == "inconclusive"
        assert "computed_pi1_order" not in cover
        assert cover["pi1_error"] == \
            "cover: base chain [T1, T5, T6] has 0 preimage chains, not 2"

    @staticmethod
    def _cover(old, new, **expect):
        """The cover section of cover_b2plus3 with one cover line replaced
        and the named cover expectations set."""
        head, _, tail = bundled.text("cover_b2plus3").partition("[cover]")
        assert old in tail
        tail = tail.replace(old, new, 1)
        for key, value in expect.items():
            tail = re.sub(rf"^expect {key} = .*$", f"expect {key} = {value}", tail, flags=re.M)
        return verify(parse_scenario(head + "[cover]" + tail)).sections["cover"]

    def test_reversed_target_takes_the_reversed_lift(self):
        cover = self._cover("chain = 6,2,2\n", "chain = 2,2,6\n")
        assert cover["status"] == "pass"
        assert cover["chain_embeddings"][2:] == [["T6a", "T5a", "T1a"], ["T1b", "T5b", "T6b"]]
        assert cover["computed_pi1_order"] == 1

    def test_one_lift_dropped_is_inconclusive(self):
        cover = self._cover("chain = 6,2,2\n", "", e=17, sigma=-9, K2=7)
        assert cover["mismatches"] == {}
        assert cover["status"] == "inconclusive"
        assert cover["chain_embeddings"][2:] == [["T1a", "T5a", "T6a"]]
        assert cover["pi1_error"] == \
            "cover: base chain [T1, T5, T6] has 1 preimage chains, not 2"


def _two_copies(cover_chains: int) -> str:
    """An explicit surface with two disjoint copies X and Y of C(4, 1) whose
    [chains] blows down X; every curve splits, the preimages of Y sorting
    before those of X, and [cover] declares cover_chains targets 6,2,2."""
    lines = ["schema = 1", "[surface]", "e = 12", "sigma = -8", "pg = 0", "q = 0",
             "pi1_order = 2", "[curves]"]
    sheets = {"X": ("Xa", "Xb"), "Y": ("Aa", "Ab")}
    for name in sheets:
        lines += [f"{name}1 = -6 0 4 0", f"{name}2 = -2 0 0 0", f"{name}3 = -2 0 0 0"]
    lines += ["[pairings]"] + [f"{n}{i}.{n}{i + 1} = 1" for n in sheets for i in (1, 2)]
    lines += ["[chains]", "chain = 6,2,2", "[cover]"]
    lines += [f"split {n}{i} -> {a}{i}, {b}{i}" for n, (a, b) in sheets.items()
              for i in (1, 2, 3)]
    lines += [f"pairing {s}{i}.{s}{i + 1} = 1" for pair in sheets.values() for s in pair
              for i in (1, 2)]
    return "\n".join(lines + ["chain = 6,2,2"] * cover_chains) + "\n"


class TestLiftChains:
    """The cover blows down the lifts of the chains the base blew down."""

    @pytest.mark.parametrize("cover_chains", [1, 2])
    def test_cover_chains_lie_over_the_base_chain(self, cover_chains):
        report = verify(parse_scenario(_two_copies(cover_chains)))
        assert report.sections["chains"]["embeddings"] == [["X1", "X2", "X3"]]
        cover = report.sections["cover"]
        assert cover["status"] == "pass"
        assert cover["chain_embeddings"] == \
            [["Xa1", "Xa2", "Xa3"], ["Xb1", "Xb2", "Xb3"]][:cover_chains]

    def test_no_base_chain_to_lift(self):
        text = _two_copies(1).replace("[chains]\nchain = 6,2,2\n", "")
        cover = verify(parse_scenario(text)).sections["cover"]
        assert cover["status"] == "fail"
        assert cover["chains_error"] == "no embedding for target 0"


def _verify_text(tmp_path, capsys, text):
    """(exit code, stdout, stderr) of verifying a scenario document as JSON."""
    p = tmp_path / "variant.scn"
    p.write_text(text)
    rc = main(["verify", str(p), "--format", "json"])
    out, err = capsys.readouterr()
    return rc, out, err


def _line_of(text, prefix):
    return next(i for i, line in enumerate(text.splitlines(), 1) if line.startswith(prefix))


class TestLiesOver:
    """The blown-up cover must lie over the blown-up base."""

    LIFT_E12 = "blowup E12 -> E12a = point Da9 ; E12b = point Db9"

    @pytest.mark.parametrize("name, old, new, named", [
        # a point on no curve, where the base step is on D9
        ("cover_b2plus3", "E11b = point Db9", "E11b = point", "for D9.E11:"),
        # both lifts of E12 on Da9: Da9.Da9 = -6 over D9.D9 = -5
        ("cover_b2plus3", "E12b = point Db9", "E12b = point Da9", "Da9 over D9:"),
        # a free point in place of the second node of F
        ("cover_k3", "E1b = node F2c", "E1b = point", "for E1.F:"),
    ])
    def test_misplaced_lift_fails(self, tmp_path, capsys, name, old, new, named):
        text = bundled.text(name)
        assert old in text
        rc, out, _ = _verify_text(tmp_path, capsys, text.replace(old, new))
        cover = json.loads(out)["sections"]["cover"]
        assert rc == 1 and cover["status"] == "fail"
        assert any(named in v for v in cover["doubling_violations"]), cover["doubling_violations"]

    def test_deck_involution_probe_fails(self, tmp_path, capsys):
        # S1b meets T1a and S2a meets T1b, with the lifts of E6 and E7 moved
        # to match: every pullback sum holds, but E6a and E6b, which tau
        # swaps, both meet T1b
        text = bundled.text("cover_b2plus3")
        for old, new in (("pairing S1b.T1b = 1", "pairing S1b.T1a = 1"),
                         ("pairing S2a.T1a = 1", "pairing S2a.T1b = 1"),
                         ("E6a = point S2a, T1a", "E6a = point S2a, T1b"),
                         ("E7b = point S1b, T1b", "E7b = point S1b, T1a")):
            assert old in text
            text = text.replace(old, new)
        rc, out, _ = _verify_text(tmp_path, capsys, text)
        cover = json.loads(out)["sections"]["cover"]
        assert rc == 1 and cover["status"] == "fail"
        assert "deck involution violated: E6a.T1b = 1 but E6b.T1a = 0" in \
            cover["doubling_violations"]
        assert all(v.startswith("deck involution violated: ")
                   for v in cover["doubling_violations"])

    def test_step_lifted_twice_exit_two(self, tmp_path, capsys):
        text = bundled.text("cover_b2plus3").replace(
            self.LIFT_E12, self.LIFT_E12 + "\nblowup E12 -> E12c = point Da9 ; E12d = point Db9")
        first = _line_of(text, self.LIFT_E12)
        rc, out, err = _verify_text(tmp_path, capsys, text)
        assert rc == 2 and out == ""
        assert f"line {first + 1}: lift of step E12 repeated; first given at line {first}" in err

    def test_step_without_lift_exit_two(self, tmp_path, capsys):
        text = bundled.text("cover_b2plus3").replace(self.LIFT_E12 + "\n", "")
        rc, out, err = _verify_text(tmp_path, capsys, text)
        assert rc == 2 and out == ""
        assert f"line {_line_of(text, 'E12 = ')}: blow-up E12 has no lift in [cover]" in err


def _dot(x, y):
    return ".".join(sorted((x, y)))


def _on_sheet(step, s, new_id=None):
    """The lift of a base blow-up to sheet s of a split cover that appends s to each id."""
    return PointSpec(new_id or step.new_id + s, tuple((c + s, m) for c, m in step.incidences),
                     step.node_of and step.node_of + s,
                     tuple(((a + s, b + s), v) for (a, b), v in step.pairwise_local))


class TestLiftCommutesWithBlowup:
    """Blowing up then comparing equals lifting then blowing up each sheet."""

    @staticmethod
    def lift(base, plan, steps):
        """The cover of base run through plan, and the cover-to-base map."""
        decl = SplittingDecl.build(
            {c: (c + "a", c + "b") for c in base.curves},
            pairings={(a + s, b + s): v for (a, b), v in base.pairings.items() for s in "ab"})
        base_of = {**decl.base_of, **{st.new_id + s: st.new_id for st in steps for s in "ab"}}
        return run_program(lift_configuration(base, decl), plan), base_of

    def test_random_programs(self):
        moved = 0
        for seed in range(200):
            base, steps = random_program(random.Random(seed))
            final = run_program(base, steps)
            plan = [_on_sheet(st, s) for st in steps for s in "ab"]
            cover, base_of = self.lift(base, plan, steps)
            assert pullback_violations(final, cover, base_of) == [], seed
            assert (cover.ambient.e, cover.ambient.sigma) == \
                (2 * final.ambient.e, 2 * final.ambient.sigma)
            # the program up to its first step on one curve, whose b-lift is
            # moved onto sheet a (later steps could need it on sheet b)
            for i, st in enumerate(steps):
                if len(st.incidences) == 1 and st.node_of is None:
                    wrong = plan[:2 * i + 1] + [_on_sheet(st, "a", new_id=st.new_id + "b")]
                    cover, base_of = self.lift(base, wrong, steps[:i + 1])
                    assert pullback_violations(run_program(base, steps[:i + 1]), cover,
                                               base_of), (seed, st)
                    moved += 1
                    break
        assert moved >= 50

    def test_compensating_swap_breaks_involution(self):
        # the probe's swap: a base pair's b-sheet pairing ab.bb moves to ab.ba,
        # so every pullback sum still holds but no deck involution exists
        for seed in range(200):
            base, steps = random_program(random.Random(seed))
            final = run_program(base, steps)
            plan = [_on_sheet(st, s) for st in steps for s in "ab"]
            cover, base_of = self.lift(base, plan, steps)
            a, b = random.Random(seed).choice(sorted(final.pairings))
            v = final.pairing(a, b)
            swapped = cover.with_pairing(a + "b", b + "b", 0).with_pairing(a + "b", b + "a", v)
            problems = pullback_violations(final, swapped, base_of)
            # tau sends aa.ba = v to ab.bb = 0, and the new ab.ba = v to aa.bb = 0
            assert problems == sorted(
                f"deck involution violated: {_dot(x, y)} = {v} but {_dot(tx, ty)} = 0"
                for x, y, tx, ty in ((a + "a", b + "a", a + "b", b + "b"),
                                     (a + "b", b + "a", a + "a", b + "b")))


CONNECTED = """schema = 1
[surface]
e = 12
sigma = -8
pg = 0
q = 0
pi1_order = 2
[curves]
C = 0 1 0 0
[blowups]
E1 = point C
[cover]
connected C -> Cc
blowup E1 -> E1a = point Cc ; E1b = point Cc
"""


class TestConnectedCurve:
    """A genus-1 curve whose preimage is one connected curve, through cli.main."""

    def test_connected_lift_passes(self, tmp_path, capsys):
        rc, out, _ = _verify_text(tmp_path, capsys, CONNECTED)
        report = json.loads(out)
        assert rc == 0 and report["status"] == "pass"
        cover = report["sections"]["cover"]
        assert cover["doubling_violations"] == [] and cover["audit_violations"] == []

    def test_lift_off_the_connected_curve_fails(self, tmp_path, capsys):
        text = CONNECTED.replace("E1b = point Cc", "E1b = point")
        rc, out, _ = _verify_text(tmp_path, capsys, text)
        cover = json.loads(out)["sections"]["cover"]
        assert rc == 1 and cover["status"] == "fail"
        assert "pullback pairing sum violated for C.E1: cover total 1, expected 2" in \
            cover["doubling_violations"]
