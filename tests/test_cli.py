import json
import re
from pathlib import Path

import pytest

from blowdown import bundled
from blowdown.cli import main
from blowdown.report import Report
from blowdown.scenario import parse_scenario
from blowdown.verify import verify

GOLDEN = Path(__file__).parent / "golden"


class TestVerifyCommand:
    def test_pass_exit_zero(self, capsys):
        rc = main(["verify", str(bundled.path("k2_4_pi2")), "--format", "json"])
        out = capsys.readouterr().out
        assert rc == 0
        assert json.loads(out)["status"] == "pass"

    def test_text_format(self, capsys):
        rc = main(["verify", str(bundled.path("k2_5_sympl"))])
        out = capsys.readouterr().out
        assert rc == 0
        assert "overall:  PASS" in out
        assert "derivation trace" in out
        assert "assumption ledger" in out

    def test_failing_expectation_exit_one(self, tmp_path, capsys):
        text = bundled.text("k2_4_pi2").replace("K2 = 4", "K2 = 5")
        p = tmp_path / "bad.scn"
        p.write_text(text)
        rc = main(["verify", str(p), "--format", "json"])
        assert rc == 1
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "fail"
        assert report["sections"]["surgery"]["mismatches"]

    def test_malformed_exit_two(self, tmp_path, capsys):
        p = tmp_path / "broken.scn"
        p.write_text("this is not a scenario\n")
        rc = main(["verify", str(p)])
        assert rc == 2

    def test_missing_file_exit_two(self):
        assert main(["verify", "/does/not/exist.scn"]) == 2

    def test_multiple_files(self, tmp_path, capsys):
        rc = main(["verify", str(bundled.path("k2_4_pi2")),
                   str(bundled.path("k2_5_sympl")), "--format", "json"])
        assert rc == 0
        capsys.readouterr()
        # a missing or unparsable file is reported; the rest are still verified
        broken = tmp_path / "broken.scn"
        broken.write_text("this is not a scenario\n")
        rc = main(["verify", "/does/not/exist.scn", str(broken),
                   str(bundled.path("k2_4_pi2")), "--format", "json"])
        out, err = capsys.readouterr()
        assert rc == 2
        assert json.loads(out)["scenario"] == "k2_4_pi2"
        assert "/does/not/exist.scn:" in err and f"{broken}:" in err

    def test_bad_width_exit_two(self, monkeypatch, capsys):
        for width in ("abc", "0", "-3"):
            monkeypatch.setenv("BLOWDOWN_WIDTH", width)
            assert main(["verify", str(bundled.path("k2_4_pi2")), "--format", "text"]) == 2
            captured = capsys.readouterr()
            assert "BLOWDOWN_WIDTH" in captured.err and not captured.out
        # the JSON report has no width to read
        assert main(["verify", str(bundled.path("k2_4_pi2")), "--format", "json"]) == 0

    @pytest.mark.parametrize("name, old, consume", [
        ("k2_4_pi2", "k6 = point S2, F", "S2.S2=1"),  # a curve with itself
        ("k2_4_pi2", "k6 = point S2, F", "S2.D1=0"),  # D1 is not at the point
        ("cover_b2plus3", "E2a = point S1a, F2c", "S1a.S1a=1"),
        ("cover_b2plus3", "E2a = point S1a, F2c", "S1a.Da1=0"),
    ])
    def test_consume_off_the_point_exit_two(self, tmp_path, capsys, name, old, consume):
        text = bundled.text(name)
        lineno = next(i for i, line in enumerate(text.splitlines(), 1) if old in line)
        p = tmp_path / "consume.scn"
        p.write_text(text.replace(old, f"{old} consume {consume}"))
        rc = main(["verify", str(p), "--format", "json"])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert f"line {lineno}: consumed intersection " in err
        assert "needs two curves at the point" in err

    @pytest.mark.parametrize("name, old, consume", [
        ("k2_4_pi2", "k6 = point S2, F", "S2.F=0, F.S2=1"),  # contradicting values
        ("k2_4_pi2", "k6 = point S2, F", "F.S2=1, F.S2=1"),
        ("cover_b2plus3", "E2a = point S1a, F2c", "F2c.S1a=1, S1a.F2c=0"),
    ])
    def test_consume_pair_named_twice_exit_two(self, tmp_path, capsys, name, old, consume):
        text = bundled.text(name)
        lineno = next(i for i, line in enumerate(text.splitlines(), 1) if old in line)
        p = tmp_path / "consume.scn"
        p.write_text(text.replace(old, f"{old} consume {consume}"))
        rc = main(["verify", str(p), "--format", "json"])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert f"line {lineno}: consumed intersection " in err
        assert "named twice at the point" in err

    def test_consume_below_the_multiplicities_exit_two(self, tmp_path, capsys):
        # S2 and F each pass once through k6, so they meet there at least once
        text = bundled.text("k2_4_pi2")
        lineno = next(i for i, line in enumerate(text.splitlines(), 1) if "k6 = " in line)
        p = tmp_path / "consume.scn"
        p.write_text(text.replace("k6 = point S2, F", "k6 = point S2, F consume S2.F=0"))
        rc = main(["verify", str(p), "--format", "json"])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert f"line {lineno}: consumed intersection F.S2 = 0 is below the 1 * 1 " in err

    def test_blowup_cannot_cancel_an_adjunction_defect(self, tmp_path, capsys):
        # X's defect is 2; blowing up a double point of X would bring it to 0
        text = bundled.text("k2_4_pi2").replace("[curves]\n", "[curves]\nX = -2 0 2 0\n")
        steps = sum(1 for line in text.split("[blowups]")[1].split("[")[0].splitlines()
                    if "=" in line)
        p = tmp_path / "defect.scn"
        p.write_text(text.replace("k7 = point S2, F\n", "k7 = point S2, F\nz = point X*2\n"))
        rc = main(["verify", str(p), "--format", "json"])
        blowups = json.loads(capsys.readouterr().out)["sections"]["blowups"]
        assert rc == 1 and blowups["status"] == "fail"
        assert blowups["error"] == (f"step {steps + 1} (z): blow-up at z: curve 'X' has "
                                    "adjunction defect 2 before the step")

    def test_strict_flags_missing_expectations(self, tmp_path):
        p = tmp_path / "bare.scn"
        p.write_text("schema = 1\n[surface]\npreset = enriques_kondo\n")
        assert main(["verify", str(p)]) == 0
        assert main(["verify", str(p), "--strict"]) == 1


class TestDeterminism:
    @pytest.mark.parametrize("name", bundled.names())
    def test_byte_identical_json(self, name):
        text = bundled.text(name)
        a = verify(parse_scenario(text)).to_json()
        b = verify(parse_scenario(text)).to_json()
        assert a.encode() == b.encode()


class TestSmallCommands:
    def test_expand(self, capsys):
        assert main(["expand", "361", "246"]) == 0
        assert capsys.readouterr().out.strip() == "2,2,9,2,2,2,2,4"

    def test_expand_rejects_bad_input(self, capsys):
        assert main(["expand", "4", "2"]) == 2

    def test_recognize(self, capsys):
        assert main(["recognize", "6,2,2"]) == 0
        assert capsys.readouterr().out.strip() == "4,1"

    def test_recognize_negative(self, capsys):
        assert main(["recognize", "2,2"]) == 1
        assert "not a Wahl chain" in capsys.readouterr().out

    def test_recognize_malformed(self, capsys):
        # an empty entry is an error, not skipped: "4," is not read as [4]
        for chain in ("2,x", "4,", "2,,3", ",4", ""):
            assert main(["recognize", chain]) == 2
            captured = capsys.readouterr()
            assert "error:" in captured.err and not captured.out

    def test_chains_atlas(self, capsys):
        assert main(["chains", "--max-p", "5", "--max-length", "8"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("p\tq")
        rows = [line.split("\t") for line in out[1:]]
        assert ["2", "1", "1", "4", "4"] in rows
        assert ["4", "1", "3", "6,2,2", "16"] in rows

    @pytest.mark.parametrize("argv, message", [
        (["--max-p", "1"], "--max-p must be >= 2"),
        (["--max-length", "0"], "--max-length must be >= 1"),
        (["--max-p", "5", "--max-length", "-3"], "--max-length must be >= 1"),
    ])
    def test_chains_bounds_checked(self, argv, message, capsys):
        assert main(["chains"] + argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_gram_command(self, capsys):
        rc = main(["gram", str(bundled.path("k2_4_pi2")), "D5,D6,D7"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "det = " in out and "negative_definite = True" in out

    def test_gram_unknown_id(self, capsys):
        rc = main(["gram", str(bundled.path("k2_4_pi2")), "ZZZ"])
        assert rc == 2

    @pytest.mark.parametrize("ids", [",", "", " , ", "D5,,D6", "D5,"])
    def test_gram_empty_id(self, capsys, ids):
        assert main(["gram", str(bundled.path("k2_4_pi2")), ids]) == 2
        captured = capsys.readouterr()
        assert "empty curve id" in captured.err and not captured.out

    def test_gram_duplicate_id_message(self, capsys):
        assert main(["gram", str(bundled.path("k2_4_pi2")), "D5,D5"]) == 2
        assert capsys.readouterr().err == "error: duplicate curve id 'D5'\n"


def _bare_chain(length: int, cover: bool) -> str:
    """An explicit surface with e = 12, sigma = -8 (b2- = 9) that declares
    the Wahl chain C(length + 1, 1) as curves C1..C<length>.  Without cover,
    [chains] blows it down.  With cover, there is no [chains]; every curve
    splits, and the double cover (b2- = 19) holds two copies and a [cover]
    chain that targets one of them."""
    ids = [f"C{i}" for i in range(1, length + 1)]
    entries = [length + 3] + [2] * (length - 1)
    lines = ["schema = 1", "[surface]", "e = 12", "sigma = -8", "pg = 0", "q = 0",
             "pi1_order = 2", "[curves]"]
    lines += [f"{cid} = {-b} 0 {b - 2} 0" for cid, b in zip(ids, entries)]
    lines += ["[pairings]"] + [f"{a}.{b} = 1" for a, b in zip(ids, ids[1:])]
    chain = f"chain = {','.join(map(str, entries))}"
    if not cover:
        return "\n".join(lines + ["[chains]", chain]) + "\n"
    lines += ["[cover]"] + [f"split {cid} -> {cid}a, {cid}b" for cid in ids]
    lines += [f"pairing {a}{s}.{b}{s} = 1" for a, b in zip(ids, ids[1:]) for s in "ab"]
    return "\n".join(lines + [chain]) + "\n"


def _verify_text(tmp_path, text: str):
    """The exit code of verify --format json on text; capsys holds the output."""
    p = tmp_path / "probe.scn"
    p.write_text(text)
    return main(["verify", str(p), "--format", "json"])


class TestLedgerInput:
    """Input the b1 = 0 invariant ledger cannot hold ends in an exit code."""

    def test_chains_longer_than_b2_minus_fail_the_surgery(self, tmp_path, capsys):
        assert _verify_text(tmp_path, _bare_chain(11, cover=False)) == 1
        surgery = json.loads(capsys.readouterr().out)["sections"]["surgery"]
        assert surgery["status"] == "fail"
        assert surgery["error"] == "chains of total length 11 exceed b2- = 9"

    def test_cover_chains_without_base_chains_fail_the_cover(self, tmp_path, capsys):
        # the cover blows down only lifts of base chains, and here are none
        assert _verify_text(tmp_path, _bare_chain(20, cover=True)) == 1
        cover = json.loads(capsys.readouterr().out)["sections"]["cover"]
        assert cover["status"] == "fail"
        assert cover["chains_error"] == \
            "no embedding for target 0: the base embedded no chain to lift"

    @pytest.mark.parametrize("old, new, message", [
        ("q = 0", "q = 1", "q must be 0 (the invariants assume b1 = 0), got 1"),
        ("pi1_order = 2", "pi1_order = 0", "pi1_order must be >= 1, got 0"),
        ("pi1_order = 2", "pi1_order = -2", "pi1_order must be >= 1, got -2"),
    ])
    def test_surface_value_out_of_range_exit_two(self, tmp_path, capsys, old, new, message):
        text = (GOLDEN / "scaled_5.scn").read_text()
        lineno = text.splitlines().index(old) + 1
        assert _verify_text(tmp_path, text.replace(old, new)) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.endswith(f"line {lineno}: {message}\n")

    def test_repeated_gram_id_exit_two(self, tmp_path, capsys):
        text = bundled.text("cover_k3")
        lineno = next(i for i, line in enumerate(text.splitlines(), 1)
                      if line.startswith("gram = "))
        assert _verify_text(tmp_path, text.replace("gram = Da1, Da2,", "gram = Da1, Da1,")) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith(f"line {lineno}: gram list names cover curve 'Da1' twice\n")

    def test_integer_statements_at_extremes_end_in_an_exit_code(self, tmp_path, capsys):
        """Each 'key = n' of [surface] in scaled_5 and of [pi1] in the bundled
        scenarios, set to 0, -2 and 10**6, is verified without a traceback."""
        sources = [((GOLDEN / "scaled_5.scn").read_text(), "[surface]")]
        sources += [(bundled.text(name), "[pi1]") for name in bundled.names()]
        tried = 0
        for text, wanted in sources:
            lines, section = text.splitlines(), None
            for i, line in enumerate(lines):
                section = line.strip() if line.startswith("[") else section
                m = re.fullmatch(r"(\w+)\s*=\s*-?\d+\s*", line)
                if section != wanted or m is None:
                    continue
                for value in (0, -2, 10**6):
                    mutated = lines[:i] + [f"{m[1]} = {value}"] + lines[i + 1:]
                    rc = _verify_text(tmp_path, "\n".join(mutated) + "\n")
                    assert rc in (0, 1, 2), (wanted, m[1], value)
                    capsys.readouterr()
                    tried += 1
        assert tried == 3 * (5 + 3)  # e, sigma, pg, q, pi1_order; three expect_order


class TestReportShape:
    def test_schema_and_sorted_keys(self):
        report = verify(parse_scenario(bundled.text("k2_4_pi2")))
        data = json.loads(report.to_json())
        assert data["schema"] == 1
        dumped = report.to_json()
        assert dumped == json.dumps(data, sort_keys=True, indent=2,
                                    separators=(",", ": ")) + "\n"

    def test_assumption_ledger_complete(self):
        # surgery scenarios carry the four smoothing assumptions;
        # the gram cover scenario carries the three cover citations
        r1 = verify(parse_scenario(bundled.text("k2_4_pi2")))
        keys = {a["key"] for a in r1.assumptions}
        assert keys == {"qgorenstein_smoothing", "milnor_fiber",
                        "minimality", "symplectic_structure"}
        r2 = verify(parse_scenario(bundled.text("cover_k3")))
        keys2 = {a["key"] for a in r2.assumptions}
        assert keys2 == {"log_h2_blowup_invariance", "residue_exact_sequence",
                         "pushforward_injection"}

    def test_report_status_rollup(self):
        r = Report(scenario="x")
        r.add("a", "pass")
        assert r.status == "pass"
        r.add("b", "inconclusive")
        assert r.status == "fail"
