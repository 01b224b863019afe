"""Reports pinned byte for byte.

tests/golden holds the JSON and text reports of the bundled scenarios, the
JSON reports of three failing variants of them, and a scenario written by
``bench/scaled.py --seed 5`` (320 base curves) with its JSON report.  A
change to a report shows here first; regenerate a golden file only for an
intended change.  ``chains_p60.tsv`` is the output of
``blowdown chains --max-p 60 --max-length 60``.
"""

import hashlib
import random
from pathlib import Path

import pytest

from blowdown import bundled
from blowdown.cli import main
from blowdown.hjcf import wahl_family
from blowdown.scenario import parse_scenario
from blowdown.verify import verify

GOLDEN = Path(__file__).parent / "golden"

# name -> (bundled scenario, text replaced, replacement)
VARIANTS = {
    # a [chains] target that embeds but is not a Wahl chain
    "variant_non_wahl": ("k2_4_pi2", "chain = 2,2,9,2,2,2,2,4 expect 19,13",
                         "chain = 2,2,9,2,2,2,2"),
    # a [surgery] expectation the blow-down does not meet
    "variant_surgery_mismatch": ("k2_4_pi2", "K2 = 4", "K2 = 5"),
    # a cover chain with no embedding
    "variant_cover_no_embedding": ("cover_b2plus3", "chain = 6,2,2\nexpect",
                                   "chain = 6,2,2\nchain = 7,2,2,2\nexpect"),
}


def _read(name: str) -> bytes:
    return (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", bundled.names())
def test_bundled_reports(name):
    report = verify(parse_scenario(bundled.text(name)))
    assert report.to_json().encode() == _read(f"{name}.json")
    assert report.to_text().encode() == _read(f"{name}.txt")


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_failing_variant_reports(name):
    base, old, new = VARIANTS[name]
    text = bundled.text(base)
    assert old in text
    report = verify(parse_scenario(text.replace(old, new)))
    assert report.status == "fail"
    assert report.to_json().encode() == _read(f"{name}.json")


def test_scaled_report():
    text = (GOLDEN / "scaled_5.scn").read_text(encoding="utf-8")
    report = verify(parse_scenario(text))
    assert report.status == "pass"
    assert report.to_json().encode() == _read("scaled_5.json")


def _shuffled(text: str, rng: random.Random) -> str:
    """text with the statements of [curves], of [pairings], and the cover's
    split and pairing lines, each permuted among their own lines."""
    lines = text.splitlines(keepends=True)
    places: dict[str, list[int]] = {}
    section = ""
    for i, line in enumerate(lines):
        words = line.split()
        if line.startswith("["):
            section = line.strip()
        elif words and not words[0].startswith("#"):
            if section in ("[curves]", "[pairings]"):
                places.setdefault(section, []).append(i)
            elif section == "[cover]" and words[0] in ("split", "pairing"):
                places.setdefault(words[0], []).append(i)
    for idx in places.values():
        moved = [lines[i] for i in idx]
        rng.shuffle(moved)
        for i, line in zip(idx, moved):
            lines[i] = line
    return "".join(lines)


@pytest.mark.parametrize("name", bundled.names() + ("scaled_5",))
def test_reports_ignore_statement_order(name):
    text = (GOLDEN / "scaled_5.scn").read_text(encoding="utf-8") if name == "scaled_5" \
        else bundled.text(name)
    shuffled = _shuffled(text, random.Random(name))
    assert shuffled != text
    want, got = verify(parse_scenario(text)), verify(parse_scenario(shuffled))
    assert got.to_json() == want.to_json()
    assert got.to_text() == want.to_text()


def test_chains_atlas(capsysbinary):
    assert main(["chains", "--max-p", "60", "--max-length", "60"]) == 0
    assert capsysbinary.readouterr().out == _read("chains_p60.tsv")


def test_chains_atlas_p250_sha256(capsysbinary):
    assert main(["chains", "--max-p", "250", "--max-length", "250"]) == 0
    out = capsysbinary.readouterr().out
    assert hashlib.sha256(out).hexdigest() == (
        "2c69bf9c220ee88e3bd8a0469d5c8ed727c4aa49672ab82441b8ffd5f26af42d")


def test_short_chains_atlas_sha256(capsysbinary):
    # 63 rows; the length bound prunes the walk long before p reaches 1500
    assert main(["chains", "--max-p", "1500", "--max-length", "6"]) == 0
    out = capsysbinary.readouterr().out
    assert out.count(b"\n") == 64
    assert hashlib.sha256(out).hexdigest() == (
        "64b3924a7d39d276b1cb3443073d0c66860e822c2043a5dd2a4529774c8a77ba")


@pytest.mark.parametrize("max_length", [1, 2, 10])
def test_chains_rows_match_wahl_family(capsys, max_length):
    assert main(["chains", "--max-p", "60", "--max-length", str(max_length)]) == 0
    rows = ["p\tq\tlength\tchain\tboundary_order"]
    rows += [f"{w.p}\t{w.q}\t{len(c)}\t{','.join(map(str, c))}\t{w.p * w.p}"
             for w, c in wahl_family(60) if len(c) <= max_length]
    assert capsys.readouterr().out == "\n".join(rows) + "\n"
