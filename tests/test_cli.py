import json

import pytest

from blowdown import bundled
from blowdown.cli import main
from blowdown.report import Report
from blowdown.scenario import parse_scenario
from blowdown.verify import verify


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
