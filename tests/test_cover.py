import json
import random
import re
from dataclasses import replace
from itertools import combinations
from pathlib import Path

import pytest

from blowdown import bundled
from blowdown.cli import main
from blowdown.configuration import (BlowupError, Configuration, Curve, InvariantSet,
                                    PointSpec, pair_key, preset, random_program, run_program)
from blowdown.cover import (CoverError, SplittingDecl, lift_configuration, lift_violations,
                            pullback_violations)
from blowdown.scenario import parse_scenario
from blowdown.verify import _build_surface, verify
from pullback_reference import reference_violations


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
        pairs = cycle_pairs("a")  # the a-cycle alone derives the b-cycle
        lifted = lift_configuration(base, full_split_decl(base, pairs))
        assert lifted.pairings == {tuple(sorted(key)): 1
                                   for key in {**cycle_pairs("a"), **cycle_pairs("b")}}
        pairs[("D1b", "D2b")] = 0  # so D1.D2 would lift to a total of 1, not 2
        with pytest.raises(CoverError) as err:
            lift_configuration(base, full_split_decl(base, pairs))
        assert str(err.value) == \
            "cover pairing D1b.D2b = 0 does not lie over the base: the lift gives 1"

    def test_rejects_meeting_preimages(self):
        base = preset("enriques_kondo")
        pairs = {}
        pairs.update(cycle_pairs("a"))
        pairs.update(cycle_pairs("b"))
        pairs[("Fa", "Fb")] = 1
        with pytest.raises(CoverError) as err:
            lift_configuration(base, full_split_decl(base, pairs))
        assert str(err.value) == \
            "cover pairing Fa.Fb = 1 does not lie over the base: the lift gives 0"

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
        # the messages sort by the cover pairing they name: Aa.Ab before Ab.Cb
        msg = first_error({("Aa", "Ab"): 1, ("Ab", "Cb"): 2})
        assert msg == "cover pairing Aa.Ab = 1 does not lie over the base: the lift gives 0"
        # Aa.Ba, over A.B = 0, before Ba.Bb
        msg = first_error({("Ba", "Bb"): 1, ("Aa", "Ba"): 1})
        assert msg == "cover pairing Aa.Ba = 1 does not lie over the base: the lift gives 0"
        # Ab.Cb before Bb.Cb and Ca.Cb; Aa.Ca and Ba.Ca give each pair's s
        msg = first_error({("Ca", "Cb"): 1, ("Bb", "Cb"): 0, ("Ab", "Cb"): 0})
        assert msg == "cover pairing Ab.Cb = 0 does not lie over the base: the lift gives 1"
        # a pair with no line, which sorts after every failing line
        for extra, first in (({}, "split pair A.C = 1 has no stated cover pairing"),
                             ({("Ba", "Bb"): 1}, "cover pairing Ba.Bb = 1 does not lie over "
                                                 "the base: the lift gives 0")):
            with pytest.raises(CoverError) as err:
                lift_configuration(base, full_split_decl(base, {("Ba", "Ca"): 1, **extra}))
            assert str(err.value) == first
        # s outside 0..k, read off the pair's first line
        msg = first_error({("Aa", "Ca"): 2, ("Ab", "Cb"): 2})
        assert msg == "cover pairing Aa.Ca = 2 is outside 0..1, over A.C"

    def test_rejects_broken_deck_involution(self):
        # the compensating swap: Ab meets Ca in place of Cb and Ba meets Cb in
        # place of Ca, so both pullback sums hold but tau sends Aa.Ca = 1 to 0
        ambient = InvariantSet.from_base(e=12, sigma=-8, pg=0, q=0)
        curves = {cid: Curve(cid, self_int=-2) for cid in "ABC"}
        base = Configuration(curves, {("A", "C"): 1, ("B", "C"): 1}, ambient, 2)
        pairs = {("Aa", "Ca"): 1, ("Ab", "Ca"): 1, ("Ba", "Cb"): 1, ("Bb", "Cb"): 1}
        with pytest.raises(CoverError) as err:
            lift_configuration(base, full_split_decl(base, pairs))
        # s = 1 from Aa.Ca, the pair's first line, so Ab.Ca must be 0
        assert str(err.value) == \
            "cover pairing Ab.Ca = 1 does not lie over the base: the lift gives 0"

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
        assert cover["chains_error"] == \
            "no embedding for target 0: the base embedded no chain to lift"


def _verify_text(tmp_path, capsys, text):
    """(exit code, stdout, stderr) of verifying a scenario document as JSON."""
    p = tmp_path / "variant.scn"
    p.write_text(text)
    rc = main(["verify", str(p), "--format", "json"])
    out, err = capsys.readouterr()
    return rc, out, err


def _line_of(text, prefix):
    return next(i for i, line in enumerate(text.splitlines(), 1) if line.startswith(prefix))


GOLDEN = Path(__file__).parent / "golden"


def long_form(name):
    """A bundled cover with its pairing lines replaced by every pairing of its
    lifted table, in sorted order, where its blow-up lifts begin."""
    text = bundled.text(name)
    scenario = parse_scenario(text)
    lifted = lift_configuration(_build_surface(scenario), scenario.cover.decl)
    lines = [line for line in text.splitlines() if not line.startswith("pairing ")]
    at = next(i for i, line in enumerate(lines) if line.startswith("blowup "))
    table = [f"pairing {x}.{y} = {v}" for (x, y), v in sorted(lifted.pairings.items())]
    return "\n".join(lines[:at] + table + lines[at:]) + "\n"


class TestDerivedPairings:
    """One stated line per split pair; the lift derives the other pairings."""

    @pytest.mark.parametrize("name, short, full", [("cover_k3", 15, 34),
                                                   ("cover_b2plus3", 24, 54)])
    def test_short_and_long_forms_give_the_goldens(self, name, short, full):
        for text, count in ((bundled.text(name), short), (long_form(name), full)):
            assert sum(line.startswith("pairing ") for line in text.splitlines()) == count
            report = verify(parse_scenario(text))
            assert report.to_json().encode() == (GOLDEN / f"{name}.json").read_bytes()
            assert report.to_text().encode() == (GOLDEN / f"{name}.txt").read_bytes()

    def test_scaled_lines_dropped_keep_the_report(self):
        # scaled_5 states Xa.Ya and Xb.Yb for each of its 304 split pairs
        lines = (GOLDEN / "scaled_5.scn").read_text(encoding="utf-8").splitlines(keepends=True)
        pairs: dict[tuple, list[int]] = {}
        for i, line in enumerate(lines):
            if line.startswith("pairing "):
                x, y = line.split()[1].split(".")
                pairs.setdefault((x[:-1], y[:-1]), []).append(i)
        assert len(pairs) == 304 and sum(map(len, pairs.values())) == 608
        want = (GOLDEN / "scaled_5.json").read_bytes()
        for seed in range(3):
            rng = random.Random(seed)
            dropped = {i for idx in pairs.values() for i in rng.sample(idx, rng.randrange(len(idx)))}
            assert dropped
            text = "".join(line for i, line in enumerate(lines) if i not in dropped)
            assert verify(parse_scenario(text)).to_json().encode() == want

    @pytest.mark.parametrize("old, new, error", [
        # a pair with no line
        ("pairing S1a.F1c = 1\n", "", "split pair F.S1 = 2 has no stated cover pairing"),
        # s > k
        ("pairing S1a.F1c = 1", "pairing S1a.F1c = 3", "cover pairing F1c.S1a = 3 is outside "
                                                       "0..2, over F.S1"),
        # the tau probe: two lines of one pair that disagree (s = 1, then s = 0)
        ("pairing S1a.F1c = 1", "pairing S1a.F1c = 1\npairing S1b.F2c = 0",
         "cover pairing F2c.S1b = 0 does not lie over the base: the lift gives 1"),
        # the same two lines the other way round: the first line gives s
        ("pairing S1a.F1c = 1", "pairing S1b.F2c = 0\npairing S1a.F1c = 1",
         "cover pairing F1c.S1a = 1 does not lie over the base: the lift gives 0"),
        # the two preimages of one split curve meet
        ("pairing S1a.F1c = 1", "pairing S1a.F1c = 1\npairing S1a.S1b = 1",
         "cover pairing S1a.S1b = 1 does not lie over the base: the lift gives 0"),
    ])
    def test_failure_names_the_pair(self, tmp_path, capsys, old, new, error):
        text = bundled.text("cover_k3")
        assert old in text
        rc, out, _ = _verify_text(tmp_path, capsys, text.replace(old, new))
        cover = json.loads(out)["sections"]["cover"]
        assert rc == 1 and cover == {"status": "fail", "error": f"cover: {error}"}

    def test_unknown_cover_curve(self):
        base = preset("enriques_kondo")
        with pytest.raises(CoverError, match="names unknown curve 'Xa'"):
            lift_configuration(base, full_split_decl(base, {("D1a", "Xa"): 1}))


def _random_cover(rng):
    """A random base of split (-2)-curves and connected genus-1 or -2 curves,
    its declaration, and a random full cover table: derived from random sheet
    counts, then changed in zero to two cells."""
    ids = [f"C{i}" for i in range(rng.randint(2, 5))]
    curves = {c: Curve(c, -2) if rng.random() < 0.7 else Curve(c, 0, rng.randint(1, 2))
              for c in ids}
    pairings = {(a, b): rng.randint(1, 3) for a, b in combinations(ids, 2) if rng.random() < 0.6}
    base = Configuration(curves, pairings, InvariantSet(12, -8), 2)
    pre = {c: (c + "a", c + "b") if curves[c].genus == 0 else (c + "c",) for c in ids}
    decl = SplittingDecl.build({c: p for c, p in pre.items() if len(p) == 2},
                               connected={c: p[0] for c, p in pre.items() if len(p) == 1})
    table = dict.fromkeys(combinations(sorted(decl.base_of), 2), 0)
    for (a, b), k in pairings.items():
        if len(pre[a]) == len(pre[b]) == 2:
            s = rng.randint(0, k)
            for (x, y), v in zip(((0, 0), (1, 1), (0, 1), (1, 0)), (s, s, k - s, k - s)):
                table[pair_key(pre[a][x], pre[b][y])] = v
        else:
            for x in pre[a]:
                for y in pre[b]:
                    table[pair_key(x, y)] = 2 * k // (len(pre[a]) * len(pre[b]))
    for _ in range(rng.choice([0, 0, 1, 2])):
        key = rng.choice(sorted(table))
        table[key] = max(0, table[key] + rng.choice([-2, -1, 1, 2]))
    return base, decl, table


class TestDerivationAgreesWithReference:
    """On random bases and full tables, the derived table and the three-clause
    reference (pair sums, disjoint preimages, tau) accept the same tables."""

    def test_random_tables(self):
        accepted = rejected = 0
        for seed in range(1500):
            base, decl, table = _random_cover(random.Random(seed))
            pairings = {key: v for key, v in table.items() if v}
            cover = Configuration({}, pairings, base.ambient, 1)  # only its pairings are read
            ok = not reference_violations(base, cover, decl.base_of)
            assert ok == (not pullback_violations(base, cover, decl.base_of)), seed
            stated = SplittingDecl(decl.splits, decl.connected, tuple(table.items()))
            try:
                lifted = lift_configuration(base, stated)
            except CoverError:
                assert not ok, seed
                rejected += 1
            else:
                assert ok and lifted.pairings == pairings, seed
                accepted += 1
        assert accepted >= 400 and rejected >= 400, (accepted, rejected)


class TestLiesOver:
    """Each lifted blow-up must lie over its base step."""

    LIFT_E12 = "blowup E12 -> E12a = point Da9 ; E12b = point Db9"

    @pytest.mark.parametrize("name, old, new, named", [
        # a point on no curve, where the base step is on D9
        ("cover_b2plus3", "E11b = point Db9", "E11b = point", "lift of E11:"),
        # both lifts of E12 on Da9, which tau does not fix
        ("cover_b2plus3", "E12b = point Db9", "E12b = point Da9", "lift of E12:"),
        # a free point in place of the second node of F
        ("cover_k3", "E1b = node F2c", "E1b = point", "lift of E1:"),
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
        # to match: every pullback sum holds, but the declared cover already
        # breaks tau, so the lift fails before any blow-up.  S1a.T1a, the
        # first line over S1.T1, gives s = 1, so S1b.T1a must be 0
        text = long_form("cover_b2plus3")
        for old, new in (("pairing S1b.T1b = 1", "pairing S1b.T1a = 1"),
                         ("pairing S2a.T1a = 1", "pairing S2a.T1b = 1"),
                         ("E6a = point S2a, T1a", "E6a = point S2a, T1b"),
                         ("E7b = point S1b, T1b", "E7b = point S1b, T1a")):
            assert old in text
            text = text.replace(old, new)
        rc, out, _ = _verify_text(tmp_path, capsys, text)
        cover = json.loads(out)["sections"]["cover"]
        assert rc == 1 and cover["status"] == "fail"
        assert cover["error"] == \
            "cover: cover pairing S1b.T1a = 1 does not lie over the base: the lift gives 0"

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
            assert reference_violations(final, swapped, base_of), seed
            # aa.ba = v, the pair's first line in the table, gives s = v: the
            # new ab.ba = v fails, and so does ab.bb, which the table lacks
            assert problems == sorted(
                [f"cover pairing {_dot(a + 'b', b + 'a')} = {v} does not lie over the base: "
                 "the lift gives 0",
                 f"cover pairing {_dot(a + 'b', b + 'b')} = 0 does not lie over the base: "
                 f"the lift gives {v}"])


class TestLiftViolations:
    """A lift (a, b) of a base step: a over the step's centre, b its tau-image."""

    # A and B split, C connected; the step blows up a double point of A on
    # the node of B, consuming 5 of A.B, and E0 is an earlier step
    BASE_OF = {"Aa": "A", "Ab": "A", "Ba": "B", "Bb": "B", "Cc": "C",
               "E0a": "E0", "E0b": "E0", "E1a": "E1", "E1b": "E1"}
    STEP = PointSpec("E1", (("A", 2),), "B", ((("A", "B"), 5),))
    A = PointSpec("E1a", (("Aa", 2),), "Ba", ((("Aa", "Ba"), 5),))
    B = PointSpec("E1b", (("Ab", 2),), "Bb", ((("Ab", "Bb"), 5),))

    def check(self, a=A, b=B):
        return lift_violations([self.STEP], [("E1", a, b)], self.BASE_OF)

    def test_lift_over_its_step(self):
        assert self.check() == []
        # the two sheets swapped, and b's consume written the other way round
        assert self.check(replace(self.B, new_id="E1a"),
                          replace(self.A, new_id="E1b", pairwise_local=((("Ba", "Aa"), 5),))) == []

    @pytest.mark.parametrize("a", [
        replace(A, incidences=(("Cc", 2),), pairwise_local=((("Cc", "Ba"), 5),)),  # off the point
        replace(A, incidences=(("Aa", 2), ("Cc", 1))),  # an extra curve
        replace(A, incidences=(("Aa", 2), ("Ab", 2))),  # both preimages of A
        replace(A, incidences=(("Aa", 1),)),            # another multiplicity
        replace(A, node_of=None, pairwise_local=()),    # no node
        replace(A, pairwise_local=((("Aa", "Ba"), 6),)),  # another consume value
        replace(A, pairwise_local=()),                  # the default consume, 2 * 2
    ])
    def test_a_off_the_step(self, a):
        assert self.check(a=a) == ["lift of E1: E1a does not lie over E1"]

    @pytest.mark.parametrize("b", [
        replace(A, new_id="E1b"),                       # on a's sheet
        replace(B, node_of="Ba", pairwise_local=((("Ab", "Ba"), 5),)),  # B's node on a's sheet
        replace(B, incidences=(("Ab", 2), ("Cc", 1))),  # an extra curve
        replace(B, pairwise_local=((("Ab", "Bb"), 6),)),  # another consume value
    ])
    def test_b_not_the_image_of_a(self, b):
        assert self.check(b=b) == ["lift of E1: E1b is not the image of E1a"]

    def test_consume_equal_to_the_default_matches(self):
        step = PointSpec("E1", (("A", 1), ("E0", 1)))
        a = PointSpec("E1a", (("E0a", 1), ("Aa", 1)), pairwise_local=((("Aa", "E0a"), 1),))
        b = PointSpec("E1b", (("Ab", 1), ("E0b", 1)))
        assert lift_violations([step], [("E1", a, b)], self.BASE_OF) == []
        b = PointSpec("E1b", (("Ab", 1), ("E0a", 1)))
        assert lift_violations([step], [("E1", a, b)], self.BASE_OF) == \
            ["lift of E1: E1b is not the image of E1a"]

    def test_one_message_per_step_in_base_order(self):
        e0 = PointSpec("E0", (("C", 1),))
        off = replace(self.A, incidences=(("Cc", 2),), pairwise_local=((("Cc", "Ba"), 5),))
        # E0a is a free point; E1a is off its point and E1b on E1a's sheet
        lifts = [("E0", PointSpec("E0a"), PointSpec("E0b", (("Cc", 1),))),
                 ("E1", off, replace(self.A, new_id="E1b"))]
        assert lift_violations([e0, self.STEP], lifts, self.BASE_OF) == \
            ["lift of E0: E0a does not lie over E0", "lift of E1: E1a does not lie over E1"]


    def test_lifts_are_matched_by_step_id(self):
        e0 = PointSpec("E0", (("C", 1),))
        lifts = [("E1", self.A, self.B), ("E0", PointSpec("E0a", (("Cc", 1),)),
                                          PointSpec("E0b", (("Cc", 1),)))]
        assert lift_violations([e0, self.STEP], lifts, self.BASE_OF) == []
        # E1's lift given before E0's, with E0a off its point: E0 is named, not E1
        lifts[1] = ("E0", PointSpec("E0a"), lifts[1][2])
        assert lift_violations([e0, self.STEP], lifts, self.BASE_OF) == \
            ["lift of E0: E0a does not lie over E0"]

    def test_step_without_lift(self):
        e0 = PointSpec("E0", (("C", 1),))
        assert lift_violations([e0, self.STEP], [("E0", PointSpec("E0a", (("Cc", 1),)),
                                                  PointSpec("E0b", (("Cc", 1),)))],
                               self.BASE_OF) == ["lift of E1: none given"]

    def test_lift_of_no_step(self):
        e0 = PointSpec("E0", (("C", 1),))
        lifts = [("E0", PointSpec("E0a"), PointSpec("E0b")), ("E1", self.A, self.B)]
        assert lift_violations([e0], lifts, self.BASE_OF) == \
            ["lift of E0: E0a does not lie over E0", "lift of E1: no base step E1"]


def _flip(x):
    return x[:-1] + ("b" if x[-1] == "a" else "a")


def _perturbed(rng, point, cover_ids):
    """point with one clause changed: a curve moved to the other sheet, a
    multiplicity raised, a curve dropped or added, a consume value or the
    node changed."""
    touched, inc = point.touched(), point.incidences
    kind = rng.choice(["sheet", "multiplicity", "drop", "consume", "node", "extra"])
    if kind == "sheet" and touched:
        x = rng.choice(touched)
        return replace(point, incidences=tuple((_flip(c) if c == x else c, m) for c, m in inc),
                       node_of=point.node_of and (_flip(x) if point.node_of == x else point.node_of))
    if kind == "multiplicity" and inc:
        k = rng.randrange(len(inc))
        return replace(point, incidences=tuple((c, m + (j == k)) for j, (c, m) in enumerate(inc)))
    if kind == "drop" and touched:
        x = rng.choice(touched)
        return replace(point, incidences=tuple(e for e in inc if e[0] != x),
                       node_of=None if point.node_of == x else point.node_of)
    if kind == "consume" and len(touched) >= 2:
        default = point.multiplicity(touched[0]) * point.multiplicity(touched[1])
        value = default + rng.choice([1, 2])  # a consume below the default is refused
        return replace(point, pairwise_local=(((touched[0], touched[1]), value),))
    if kind == "node" and point.node_of:
        return replace(point, node_of=None, incidences=inc + ((point.node_of, 2),))
    if kind == "node":
        return replace(point, node_of=rng.choice([c for c in ("Fa", "Fb") if c not in touched]))
    extra = rng.choice(sorted(c for c in cover_ids if c not in touched))
    return replace(point, incidences=inc + ((extra, 1),))


class TestStepCheckAgreesWithFullRule:
    """On random programs with one lift perturbed, the step check and the full
    rule on the blown-up cover (pullback sums, tau, and each curve's shape
    against its base curve's) find problems in the same cases."""

    @staticmethod
    def full_rule(final, cover, base_of):
        shape = {x: (c.self_int, c.genus, c.k_degree, c.node_count)
                 for x, c in {**final.curves, **cover.curves}.items()}
        return pullback_violations(final, cover, base_of) + \
            [x for x in sorted(cover.curves) if shape[x] != shape[base_of[x]]]

    def test_random_perturbations(self):
        caught = clean = 0
        for seed in range(1000):
            rng = random.Random(seed)
            base, steps = random_program(rng)
            if not steps:
                continue
            final = run_program(base, steps)
            lifts = [(st.new_id, _on_sheet(st, "a"), _on_sheet(st, "b")) for st in steps]
            i = rng.randrange(len(steps))
            _, a, b = lifts[i]
            ids = {c + s for c in [*base.curves, *(st.new_id for st in steps[:i])] for s in "ab"}
            side = rng.random()
            if side < 0.15:  # both sheets swapped: still a lift
                lifts[i] = (steps[i].new_id, replace(b, new_id=a.new_id), replace(a, new_id=b.new_id))
            elif side < 0.6:
                lifts[i] = (steps[i].new_id, _perturbed(rng, a, ids), b)
            else:
                lifts[i] = (steps[i].new_id, a, _perturbed(rng, b, ids))
            plan = [x for _, *pair in lifts for x in pair]
            try:
                cover, base_of = TestLiftCommutesWithBlowup.lift(base, plan, steps)
            except BlowupError:
                continue
            problems = lift_violations(steps, lifts, base_of)
            assert bool(problems) == bool(self.full_rule(final, cover, base_of)), (seed, problems)
            caught += bool(problems)
            clean += not problems
        assert caught >= 250 and clean >= 80, (caught, clean)


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
        assert cover["doubling_violations"] == ["lift of E1: E1b is not the image of E1a"]
