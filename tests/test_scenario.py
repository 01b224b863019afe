import pytest

from blowdown import bundled, scenario
from blowdown.cli import main
from blowdown.scenario import ScenarioError, parse_scenario

MINIMAL = """\
schema = 1
[surface]
preset = enriques_kondo
"""


class TestParsing:
    def test_bundled_k2_4_has_15_steps(self):
        s = parse_scenario(bundled.text("k2_4_pi2"))
        assert len(s.blowups) == 15
        assert s.name == "k2_4_pi2"
        assert len(s.chains) == 2
        assert s.pi1_witness == "wt"
        assert s.pi1_expect_order == 2

    def test_bundled_k2_5_has_12_steps(self):
        s = parse_scenario(bundled.text("k2_5_sympl"))
        assert len(s.blowups) == 12

    def test_bundled_cover_sections(self):
        s = parse_scenario(bundled.text("cover_b2plus3"))
        assert s.cover is not None
        assert len(s.cover.blowups) == 12
        assert len(s.cover.chains) == 4
        assert s.cover.expect_pi1_order == 1
        k3 = parse_scenario(bundled.text("cover_k3"))
        assert k3.cover.gram_expect_nonzero
        assert len(k3.cover.gram_ids) == 14

    def test_minimal(self):
        s = parse_scenario(MINIMAL)
        assert s.preset_name == "enriques_kondo"
        assert s.blowups == ()

    def test_explicit_surface(self):
        text = """\
schema = 1
[surface]
e = 12
sigma = -8
pg = 0
q = 0
pi1_order = 2
"""
        s = parse_scenario(text)
        assert dict(s.explicit_surface)["e"] == 12

    def test_preset_built_once(self, monkeypatch):
        calls = []
        build = scenario.preset

        def counting(name):
            calls.append(name)
            return build(name)

        monkeypatch.setattr(scenario, "preset", counting)
        parse_scenario(bundled.text("cover_b2plus3"))
        assert calls == ["enriques_kondo"]

    def test_comments_and_blank_lines(self):
        s = parse_scenario("# hi\n\nschema = 1\n[surface]\npreset = enriques_kondo\n# end\n")
        assert s.preset_name == "enriques_kondo"


class TestErrors:
    def test_empty_document(self):
        with pytest.raises(ScenarioError, match="schema"):
            parse_scenario("")

    def test_missing_surface(self):
        with pytest.raises(ScenarioError, match="surface"):
            parse_scenario("schema = 1\n")

    def test_unknown_section(self):
        with pytest.raises(ScenarioError, match="unknown section"):
            parse_scenario("schema = 1\n[wat]\n")

    def test_positioned_error(self):
        text = "schema = 1\n[surface]\npreset = enriques_kondo\n[pairings]\nbogus line\n"
        with pytest.raises(ScenarioError) as err:
            parse_scenario(text)
        assert err.value.line == 5

    def test_dangling_curve_reference(self):
        text = MINIMAL + "[blowups]\nE1 = point NOPE\n"
        with pytest.raises(ScenarioError, match="undeclared curve 'NOPE'"):
            parse_scenario(text)

    def test_dangling_pairing_reference(self):
        text = MINIMAL + "[pairings]\nD1.ZZ = 1\n"
        with pytest.raises(ScenarioError, match="undeclared"):
            parse_scenario(text)

    def test_blowup_id_collision(self):
        text = MINIMAL + "[blowups]\nD1 = point S1\n"
        with pytest.raises(ScenarioError, match="collides"):
            parse_scenario(text)

    def test_bad_schema_version(self):
        with pytest.raises(ScenarioError, match="unsupported"):
            parse_scenario("schema = 2\n[surface]\npreset = enriques_kondo\n")

    def test_duplicate_section(self):
        with pytest.raises(ScenarioError, match="duplicate"):
            parse_scenario("schema = 1\n[surface]\npreset = enriques_kondo\n[surface]\n")

    def test_bad_chain_line(self):
        text = MINIMAL + "[chains]\nchain = 2,1,2\n"
        with pytest.raises(ScenarioError, match="bad chain"):
            parse_scenario(text)

    def test_bad_surgery_key(self):
        text = MINIMAL + "[surgery]\nvolume = 3\n"
        with pytest.raises(ScenarioError):
            parse_scenario(text)

    def test_unknown_preset(self):
        with pytest.raises(ScenarioError, match="unknown preset"):
            parse_scenario("schema = 1\n[surface]\npreset = wat\n")

    def test_witness_must_exist(self):
        text = MINIMAL + "[pi1]\nwitness = GHOST\nexpect_order = 2\n"
        with pytest.raises(ScenarioError, match="GHOST"):
            parse_scenario(text)

    def test_cover_lift_unknown_base_step(self):
        text = MINIMAL + "[cover]\n" + "".join(
            f"split D{i} -> Da{i}, Db{i}\n" for i in range(1, 10)
        ) + "split F -> Fa, Fb\nsplit S1 -> S1a, S1b\nsplit S2 -> S2a, S2b\n" \
            "blowup NOPE -> Xa = point Fa ; Xb = point Fb\n"
        with pytest.raises(ScenarioError, match="unknown base step"):
            parse_scenario(text)

    def test_surface_value_not_integer(self):
        text = "schema = 1\n[surface]\ne = abc\nsigma = -8\npg = 0\nq = 0\n"
        with pytest.raises(ScenarioError, match="e: expected an integer") as err:
            parse_scenario(text)
        assert err.value.line == 3

    def test_expect_order_not_integer(self):
        text = MINIMAL + "[pi1]\nexpect_order = two\n"
        with pytest.raises(ScenarioError, match="expect_order: expected an integer") as err:
            parse_scenario(text)
        assert err.value.line == 5

    @pytest.mark.parametrize("lines", [
        "preset = enriques_kondo\ne = 12\n",
        "e = 12\npreset = enriques_kondo\n",
    ])
    def test_preset_with_explicit_invariants(self, lines):
        with pytest.raises(ScenarioError, match="preset or explicit") as err:
            parse_scenario("schema = 1\n[surface]\n" + lines)
        assert err.value.line == 4

    def test_negative_consume(self):
        text = MINIMAL + "[blowups]\nE1 = point S1, F consume S1.F=-5\n"
        with pytest.raises(ScenarioError, match="consume value must be >= 0") as err:
            parse_scenario(text)
        assert err.value.line == 5

    def test_bad_cover_point_is_positioned(self):
        text = MINIMAL + "[blowups]\nE1 = point F\n[cover]\n" \
            "blowup E1 -> E1a = point F1*0 ; E1b = point F2\n"
        with pytest.raises(ScenarioError, match="multiplicity") as err:
            parse_scenario(text)
        assert err.value.line == 7


EXPLICIT = ["schema = 1", "[surface]", "e = 12", "sigma = -8", "pg = 0", "q = 0"]
PRESET = ["schema = 1", "[surface]", "preset = enriques_kondo"]

# name -> (document lines, line of the repeat, line of the first statement)
REPEATS = {
    "surface_key": (EXPLICIT + ["e = 14"], 7, 3),
    "surface_preset": (PRESET + ["preset = enriques_kondo"], 4, 3),
    "meta_key": (["schema = 1", "[meta]", "name = a", "name=b"] + PRESET[1:], 4, 3),
    "surgery_key": (PRESET + ["[surgery]", "K2 = 99", "K2 = 4"], 6, 5),
    "pi1_expect_order": (PRESET + ["[pi1]", "expect_order = 7", "expect_order = 2"], 6, 5),
    "pi1_witness": (PRESET + ["[pi1]", "witness = S1", "witness = S2"], 6, 5),
    "cover_expect": (PRESET + ["[cover]", "expect e = 24", "expect  e=24"], 6, 5),
    "cover_expect_pi1": (PRESET + ["[cover]", "expect pi1_order = 1",
                                   "expect pi1_order = 1"], 6, 5),
    "cover_gram": (PRESET + ["[cover]", "gram = D1a, D2a", "gram = D1a expect nonzero"], 6, 5),
    "cover_pairing": (PRESET + ["[cover]", "pairing Fa.S1a = 1", "pairing S1a.Fa = 2"], 6, 5),
    "base_pairing": (PRESET + ["[pairings]", "S1.D3 = 1", "D3.S1 = 0"], 6, 5),
    "curve": (PRESET + ["[curves]", "X = -2 0 0 0", "X = -3 0 1 0"], 6, 5),
    "schema": (["schema = 1", "schema = 1"] + PRESET[1:], 2, 1),
    "cover_lift": (PRESET + ["[cover]", "split F -> Fa, Fb", "connected F -> Fbar"], 6, 5),
}


class TestRepeatedStatements:
    """A repeated statement is a positioned exit-2 error that names the first one."""

    @pytest.mark.parametrize("name", sorted(REPEATS))
    def test_rejected_at_its_line(self, name, tmp_path, capsys):
        lines, line, first = REPEATS[name]
        with pytest.raises(ScenarioError, match=f"first given at line {first}$") as err:
            parse_scenario("\n".join(lines) + "\n")
        assert err.value.line == line
        path = tmp_path / f"{name}.scn"
        path.write_text("\n".join(lines) + "\n")
        assert main(["verify", str(path)]) == 2
        assert f"line {line}: " in capsys.readouterr().err

    def test_stray_expect_order_in_bundled(self):
        text = bundled.text("k2_4_pi2")
        text = text.replace("expect_order = 2", "expect_order = 7\nexpect_order = 2")
        first = text.splitlines().index("expect_order = 7") + 1
        with pytest.raises(ScenarioError, match="pi1] expect_order repeated") as err:
            parse_scenario(text)
        assert err.value.line == first + 1

    def test_distinct_statements_pass(self):
        text = "\n".join(PRESET + ["[surgery]", "e = 8", "K2 = 4", "[pairings]",
                                   "S1.D3 = 1", "S1.D4 = 1", "S2.D3 = 1"]) + "\n"
        s = parse_scenario(text)
        assert s.surgery_expect == (("e", 8), ("K2", 4))
        assert len(s.pairings) == 3

    @pytest.mark.parametrize("lines", [
        PRESET + ["[pairings]", "D1.D1 = 1"],
        PRESET + ["[cover]", "pairing Fa.Fa = 1"],
    ])
    def test_self_pairing_is_positioned(self, lines, tmp_path):
        with pytest.raises(ScenarioError, match="does not pair with itself") as err:
            parse_scenario("\n".join(lines) + "\n")
        assert err.value.line == 5
        path = tmp_path / "self.scn"
        path.write_text("\n".join(lines) + "\n")
        assert main(["verify", str(path)]) == 2


# name -> (line of cover_b2plus3 replaced, replacement, message)
COVER_ID_CLASHES = {
    "preimage_in_two_lifts": ("split D2 -> Da2, Db2", "split D2 -> Da1, Db2",
                              "cover curve Da1 repeated; first given at line"),
    "preimage_twice_in_one_lift": ("split D2 -> Da2, Db2", "split D2 -> Da2, Da2",
                                   "names cover curve 'Da2' twice"),
    "pairing_undeclared": ("pairing Da1.Da2 = 1", "pairing Da1.Zz9 = 1",
                           "undeclared cover curve 'Zz9'"),
    "blowup_id_is_preimage": ("E1a = node F1c ; E1b = node F2c",
                              "E1a = node F1c ; Da1 = node F2c",
                              "cover blow-up id 'Da1' collides"),
}


class TestCoverIds:
    """A cover id clash is a positioned exit 2 at the line that makes it."""

    @pytest.mark.parametrize("name", sorted(COVER_ID_CLASHES))
    def test_rejected_at_its_line(self, name, tmp_path, capsys):
        old, new, message = COVER_ID_CLASHES[name]
        text = bundled.text("cover_b2plus3")
        line = next(i for i, x in enumerate(text.splitlines(), start=1) if old in x)
        path = tmp_path / f"{name}.scn"
        path.write_text(text.replace(old, new, 1))
        assert main(["verify", str(path)]) == 2
        assert f"line {line}: " in capsys.readouterr().err
        with pytest.raises(ScenarioError, match=message) as err:
            parse_scenario(path.read_text())
        assert err.value.line == line


class TestReferences:
    """Every reference error is raised at the line of its statement."""

    @pytest.mark.parametrize("lines, line", [
        # the undeclared id is a prefix of an earlier blow-up id
        (PRESET + ["[blowups]", "E1 = point S1", "[pi1]", "witness = E"], 7),
        # an earlier comment mentions the pairing
        (PRESET[:1] + ["# D1.ZZ is declared below"] + PRESET[1:]
         + ["[pairings]", "D1.ZZ = 1"], 6),
        (PRESET + ["[blowups]", "E1 = point S1", "E2 = point E1", "E3 = point E9"], 7),
        (PRESET + ["[cover]", "gram = Da1", "split GHOST -> Ga, Gb"], 6),
    ])
    def test_reference_errors_at_their_statement(self, lines, line):
        with pytest.raises(ScenarioError, match="undeclared|unknown base curve") as err:
            parse_scenario("\n".join(lines) + "\n")
        assert err.value.line == line

    def test_preset_curve_redeclared(self):
        text = "\n".join(PRESET + ["[curves]", "X = -2 0 0 0", "F = -2 0 0 0"]) + "\n"
        with pytest.raises(ScenarioError, match="'F' is already declared by preset") as err:
            parse_scenario(text)
        assert err.value.line == 6


class TestStatementTable:
    def test_unmatched_line_names_the_shape(self):
        with pytest.raises(ScenarioError, match=r"\[cover\] statement must be "
                                                r"'split base -> id1, id2'") as err:
            parse_scenario("\n".join(PRESET + ["[cover]", "split F -> Fa"]) + "\n")
        assert err.value.line == 5

    def test_base_of_built_once(self):
        decl = parse_scenario(bundled.text("cover_b2plus3")).cover.decl
        assert decl.base_of is decl.base_of
        assert decl.base_of["Da9"] == "D9"
