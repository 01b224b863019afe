"""README's statements about the source tree match the tree."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_line_count_matches_the_source():
    # the figure `cat src/blowdown/*.py | wc -l` prints: newline characters
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    m = re.search(r"`src/blowdown/` is ([\d,]+) lines", readme)
    assert m, "README states no line count for src/blowdown/"
    count = sum(p.read_bytes().count(b"\n") for p in (ROOT / "src" / "blowdown").glob("*.py"))
    assert int(m[1].replace(",", "")) == count
