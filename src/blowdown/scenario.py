"""Scenario files: a line-oriented declarative format for constructions.

A scenario describes one construction end to end: the starting surface, the
blow-up program, the chains to locate, the surgery expectations, the
fundamental-group witness, and optionally a double-cover lift.  The grammar
is versioned (``schema = 1``) and every parse error carries its line number.

One statement per line, ``#`` comments.  GRAMMAR below is the grammar: one
table per section, one row per statement.  Statements marked (once) may
appear at most once; so may a curve id (which the preset must not declare
either), a pairing of the same two curves (in either order), the lift
of a base curve or blow-up and a cover curve id in the lifts.  A repeated
statement is an error at its line that names the line of the first one; a
base blow-up with no lift in [cover] is an error at its own line::

    schema = 1                       # (once), before any section
    [meta]
    name = my_scenario               # (once) each: name, description, tags
    description = free text
    tags = comma, separated
    [surface]                        # a preset or explicit invariants, not both
    preset = enriques_kondo          # (once) each: preset, e, sigma, pg, q (0), pi1_order (>= 1)
    [curves]
    X = -2 0 0 0 auxiliary           # self_int genus k_degree node_count [ignored words]
    [pairings]
    S1.D3 = 1                        # >= 0; 0 removes a preset pairing
    [blowups]
    E1 = node F                      # blow up the node of F
    E2 = point S1, F                 # transverse intersection point
    E3 = point S1*2                  # local multiplicity (needs a matching node)
    E4 = point                       # point on no curve
    E5 = point S1, F consume S1.F=2  # override the S1.F consumed (>= 1 * 1; both at the point)
    [chains]
    chain = 2,2,9,2,2,2,2,4 expect 19,13
    [surgery]
    K2 = 4                           # (once) each: e, sigma, K2, b2, b2_plus, b2_minus
    [pi1]
    witness = E9                     # (once)
    expect_order = 2                 # (once)
    [cover]
    split F -> F1, F2
    connected X -> Xbar
    pairing F1.T1 = 1                # a constraint; one per split pair that meets; rest derived
    blowup E1 -> C1 = node F1 ; C2 = node F2   # (once) per [blowups] step, each lifted
    chain = 6,2,2
    expect e = 14                    # (once) each: the [surgery] keys and pi1_order
    gram = Da1, Da2 expect nonzero   # (once), each id at most once
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .configuration import Curve, PointSpec, preset
from .cover import SplittingDecl
from .hjcf import Chain, WahlParams


class ScenarioError(ValueError):
    """Parse or validation failure, positioned at a source line."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


SURGERY_KEYS = ("e", "sigma", "K2", "b2", "b2_plus", "b2_minus")


@dataclass(frozen=True)
class CoverSection:
    decl: SplittingDecl
    blowups: tuple[tuple[str, PointSpec, PointSpec], ...]  # (base step id, two lifts), base order
    chains: tuple[Chain, ...]
    expect: tuple[tuple[str, int], ...]
    expect_pi1_order: Optional[int]
    gram_ids: tuple[str, ...]
    gram_expect_nonzero: bool

    @cached_property
    def base_of(self) -> dict[str, str]:
        """The base curve under each cover curve, lifted blow-ups included (read only)."""
        return {**self.decl.base_of, **{x.new_id: b for b, *pair in self.blowups for x in pair}}


@dataclass(frozen=True)
class Scenario:
    name: str
    description: str
    tags: tuple[str, ...]
    preset_name: Optional[str]
    explicit_surface: tuple[tuple[str, int], ...]  # e/sigma/pg/q/pi1_order
    curves: tuple[Curve, ...]
    pairings: tuple[tuple[str, str, int], ...]
    blowups: tuple[PointSpec, ...]
    chains: tuple[tuple[Chain, Optional[WahlParams]], ...]
    surgery_expect: tuple[tuple[str, int], ...]
    pi1_witness: Optional[str]
    pi1_expect_order: Optional[int]
    cover: Optional[CoverSection]


_POINT_RE = re.compile(r"point(?:\s+(?P<rest>.*))?")
_NODE_RE = re.compile(r"node\s+(?P<curve>\S+)(?:\s*,\s*(?P<rest>.*))?")
_CONSUME_RE = re.compile(r"(\S+)\.(\S+)\s*=\s*(-?\d+)")


def _parse_int(lineno: int, text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ScenarioError(lineno, f"{what}: expected an integer, got {text!r}")


def _parse_incidences(lineno: int, text: str) -> tuple[tuple[tuple[str, int], ...],
                                                       tuple[tuple[tuple[str, str], int], ...]]:
    """Parse 'A, B*2 consume A.B=2' into incidences and consume overrides."""
    consume: list[tuple[tuple[str, str], int]] = []
    if " consume " in text:
        text, _, tail = text.partition(" consume ")
        for clause in tail.split(","):
            clause = clause.strip()
            m = _CONSUME_RE.fullmatch(clause)
            if not m:
                raise ScenarioError(lineno, f"bad consume clause {clause!r}")
            a, b, v = m.group(1), m.group(2), int(m.group(3))
            if v < 0:
                raise ScenarioError(lineno, f"consume value must be >= 0, got {clause!r}")
            consume.append((tuple(sorted((a, b))), v))
    incidences: list[tuple[str, int]] = []
    text = text.strip()
    if text:
        for item in text.split(","):
            item = item.strip()
            if not item:
                raise ScenarioError(lineno, "empty curve reference in point spec")
            if "*" in item:
                cid, _, mult = item.partition("*")
                incidences.append((cid.strip(), _parse_int(lineno, mult, "multiplicity")))
            else:
                incidences.append((item, 1))
    return tuple(incidences), tuple(consume)


def _parse_pointspec(lineno: int, new_id: str, rhs: str) -> PointSpec:
    rhs = rhs.strip()
    m = _NODE_RE.fullmatch(rhs) or _POINT_RE.fullmatch(rhs)
    if not m:
        raise ScenarioError(
            lineno, f"blow-up spec must start with 'point' or 'node', got {rhs!r}")
    incidences, consume = _parse_incidences(lineno, m.group("rest") or "")
    try:
        return PointSpec(new_id=new_id, incidences=incidences,
                         node_of=m.groupdict().get("curve"), pairwise_local=consume)
    except ValueError as err:
        raise ScenarioError(lineno, str(err))


def _parse_chain(lineno: int, rhs: str) -> tuple[Chain, Optional[WahlParams]]:
    expect: Optional[WahlParams] = None
    if " expect " in rhs:
        rhs, _, tail = rhs.partition(" expect ")
        parts = [p.strip() for p in tail.split(",")]
        if len(parts) != 2:
            raise ScenarioError(lineno, f"chain expectation must be 'p,q', got {tail!r}")
        try:
            expect = WahlParams(int(parts[0]), int(parts[1]))
        except ValueError as err:
            raise ScenarioError(lineno, f"bad Wahl parameters: {err}")
    try:
        entries = tuple(map(int, rhs.split(",")))  # int() ignores surrounding blanks
        chain = Chain(entries)
    except ValueError as err:
        raise ScenarioError(lineno, f"bad chain: {err}")
    return chain, expect


class _Parse:
    """What one document has declared so far; the handlers in GRAMMAR fill it.

    A handler takes the line number and the match of its row's pattern.
    """

    def __init__(self):
        self.first: dict[tuple, int] = {}  # (kind, key...) -> line of its statement
        self.schema = False
        self.meta: dict[str, str] = {}
        self.surface: dict[str, "str | int"] = {}
        self.curves: list[Curve] = []
        self.pairings: list[tuple[str, str, int]] = []
        self.blowups: list[PointSpec] = []
        self.blowup_lines: list[int] = []
        self.chains: list[tuple[Chain, Optional[WahlParams]]] = []
        self.surgery: dict[str, int] = {}
        self.pi1: dict[str, "str | int"] = {}
        self.splits: dict[str, tuple[str, str]] = {}
        self.connected: dict[str, str] = {}
        self.cover_pairings: dict[tuple[str, str], int] = {}
        self.cover_blowups: dict[str, tuple[PointSpec, PointSpec]] = {}  # base step -> lifts
        self.cover_chains: list[Chain] = []
        self.cover_expect: dict[str, int] = {}
        self.gram: Optional[tuple[list[str], bool]] = None

    def once(self, lineno: int, identity: tuple[str, ...]):
        """Reject a second statement (kind, key...), naming the first one's line."""
        first = self.first.setdefault(identity, lineno)
        if first != lineno:
            what = f"{identity[0]} {'.'.join(identity[1:])}".lstrip()
            raise ScenarioError(lineno, f"{what} repeated; first given at line {first}")

    def reject_pairing(self, lineno: int, key: tuple[str, str, str], value: str):
        """Why the pairing statement (kind, a, b) = value, a <= b, is refused."""
        if value[0] == "-":
            raise ScenarioError(lineno, "pairings must be >= 0")
        if key[1] == key[2]:
            raise ScenarioError(lineno, f"a curve does not pair with itself ({key[1]!r})")
        self.once(lineno, key)

    def schema_version(self, lineno, m):
        if int(m["version"]) != 1:
            raise ScenarioError(lineno, f"unsupported schema version {m['version']}")
        self.schema = True

    def surface_value(self, lineno, m):
        key, value = m.group("key", "value")
        if self.surface and (key == "preset") != ("preset" in self.surface):
            raise ScenarioError(
                lineno, "[surface] takes a preset or explicit invariants, not both")
        if key != "preset" and not (key == "pi1_order" and value == "unknown"):
            value = _parse_int(lineno, value, key)
            if key == "q" and value != 0:
                raise ScenarioError(lineno, f"q must be 0 (the invariants assume b1 = 0), "
                                            f"got {value}")
            if key == "pi1_order" and value < 1:
                raise ScenarioError(lineno, f"pi1_order must be >= 1, got {value}")
        self.surface[key] = value

    def curve(self, lineno, m):
        cid, self_int, genus, k_degree, nodes = m.group(
            "id", "self_int", "genus", "k_degree", "nodes")
        self.once(lineno, ("curve", cid))
        self.curves.append(Curve(cid, int(self_int), int(genus), int(k_degree), int(nodes)))

    def pairing(self, lineno, m):
        a, b, value = m.group("a", "b", "value")
        key = ("pairing", a, b) if a < b else ("pairing", b, a)
        if self.first.setdefault(key, lineno) != lineno or a == b or value[0] == "-":
            self.reject_pairing(lineno, key, value)
        self.pairings.append((a, b, int(value)))

    def pi1_value(self, lineno, m):
        key, value = m.group("key", "value")
        self.pi1[key] = value if key == "witness" else _parse_int(lineno, value, key)

    def lift(self, lineno: int, base: str, images: tuple[str, ...]):
        """The lift of one base curve, whose cover ids are new to the document."""
        self.once(lineno, ("lift of", base))
        if len(images) == 2 and images[0] == images[1]:
            raise ScenarioError(lineno, f"the lift of {base!r} names cover curve "
                                        f"{images[0]!r} twice")
        for x in images:
            self.once(lineno, ("cover curve", x))

    def split(self, lineno, m):
        base, one, two = m.group("split", "one", "two")
        self.lift(lineno, base, (one, two))
        self.splits[base] = (one, two)

    def connect(self, lineno, m):
        base, image = m.group("connected", "image")
        self.lift(lineno, base, (image,))
        self.connected[base] = image

    def cover_pairing(self, lineno, m):
        x, y, n = m.group("x", "y", "n")
        key = ("cover pairing", x, y) if x < y else ("cover pairing", y, x)
        if self.first.setdefault(key, lineno) != lineno or x == y:
            self.reject_pairing(lineno, key, n)
        self.cover_pairings[key[1:]] = int(n)

    def blowup(self, lineno, m):
        self.blowups.append(_parse_pointspec(lineno, *m.group("id", "spec")))
        self.blowup_lines.append(lineno)

    def cover_blowup(self, lineno, m):
        step, id1, spec1, id2, spec2 = m.group("step", "id1", "spec1", "id2", "spec2")
        self.once(lineno, ("lift of step", step))
        self.cover_blowups[step] = (_parse_pointspec(lineno, id1, spec1),
                                    _parse_pointspec(lineno, id2, spec2))


def _store(attr: str, convert):
    """A handler that files the converted value of a 'key = value' statement."""
    def handle(state: _Parse, lineno: int, m):
        getattr(state, attr)[m["key"]] = convert(m["value"])
    return handle


class _Table:
    """One section's statements, matched by one compiled alternation.

    A row is (shape, pattern, handler, may repeat).  Row k's pattern is the
    outer group _k of the alternation, so the match's lastindex names the
    row; the handler reads the row's named groups.  The shapes are for
    error messages.
    """

    __slots__ = ("match", "rows", "shapes")

    def __init__(self, *rows):
        pattern = re.compile("|".join(f"(?P<_{k}>{row[1]})" for k, row in enumerate(rows)))
        self.match = pattern.fullmatch
        self.rows = {pattern.groupindex[f"_{k}"]: (handle, repeat)
                     for k, (_, _, handle, repeat) in enumerate(rows)}
        self.shapes = [shape for shape, *_ in rows]

    def error(self, section: Optional[str], line: str) -> str:
        word = line.split(None, 1)[0]
        shapes = [s for s in self.shapes if s.split(None, 1)[0] == word] or self.shapes
        where = f"[{section}] statement" if section else "before any section, the statement"
        return f"{where} must be {' or '.join(map(repr, shapes))}, got {line!r}"


REPEAT, ONCE = True, False
_SURGERY = "|".join(SURGERY_KEYS)

# The grammar: per section (None: before the first one), one row per statement.
GRAMMAR: dict[Optional[str], _Table] = {
    None: _Table(
        ("schema = 1", r"schema\s*=\s*(?P<version>\d+)", _Parse.schema_version, ONCE)),
    "meta": _Table(
        ("name|description|tags = text", r"(?P<key>name|description|tags)\s*=\s*(?P<value>.*)",
         _store("meta", str.strip), ONCE)),
    "surface": _Table(
        ("preset|e|sigma|pg|q|pi1_order = value",
         r"(?P<key>preset|e|sigma|pg|q|pi1_order)\s*=\s*(?P<value>\S+)",
         _Parse.surface_value, ONCE)),
    "curves": _Table(
        ("id = self_int genus k_degree node_count [words]",
         r"(?P<id>\S+)\s*=\s*(?P<self_int>-?\d+)\s+(?P<genus>\d+)\s+(?P<k_degree>-?\d+)"
         r"\s+(?P<nodes>\d+)(?:\s+.*)?", _Parse.curve, REPEAT)),
    "pairings": _Table(
        ("a.b = n", r"(?P<a>\S+)\.(?P<b>\S+)\s*=\s*(?P<value>-?\d+)", _Parse.pairing, REPEAT)),
    "blowups": _Table(
        ("id = point|node spec", r"(?P<id>\S+)\s*=\s*(?P<spec>.*)", _Parse.blowup, REPEAT)),
    "chains": _Table(
        ("chain = b1,b2,... [expect p,q]", r"chain\s*=\s*(?P<chain>.*)",
         lambda state, lineno, m: state.chains.append(_parse_chain(lineno, m["chain"])),
         REPEAT)),
    "surgery": _Table(
        (f"{_SURGERY} = n", rf"(?P<key>{_SURGERY})\s*=\s*(?P<value>-?\d+)",
         _store("surgery", int), ONCE)),
    "pi1": _Table(
        ("witness|expect_order = value", r"(?P<key>witness|expect_order)\s*=\s*(?P<value>\S+)",
         _Parse.pi1_value, ONCE)),
    "cover": _Table(
        ("pairing a.b = n", r"pairing\s+(?P<x>\S+)\.(?P<y>\S+)\s*=\s*(?P<n>\d+)",
         _Parse.cover_pairing, REPEAT),
        ("split base -> id1, id2", r"split\s+(?P<split>\S+)\s*->\s*(?P<one>\S+)\s*,\s*(?P<two>\S+)",
         _Parse.split, REPEAT),
        ("connected base -> id", r"connected\s+(?P<connected>\S+)\s*->\s*(?P<image>\S+)",
         _Parse.connect, REPEAT),
        ("blowup step -> id1 = spec ; id2 = spec",
         r"blowup\s+(?P<step>\S+)\s*->\s*(?P<id1>\S+)\s*=\s*(?P<spec1>.*?)\s*;"
         r"\s*(?P<id2>\S+)\s*=\s*(?P<spec2>.*)", _Parse.cover_blowup, REPEAT),
        ("chain = b1,b2,...", r"chain\s*=\s*(?P<chain>.*)",
         lambda state, lineno, m: state.cover_chains.append(_parse_chain(lineno, m["chain"])[0]),
         REPEAT),
        (f"expect {_SURGERY}|pi1_order = n",
         rf"expect\s+(?P<key>{_SURGERY}|pi1_order)\s*=\s*(?P<value>-?\d+)",
         _store("cover_expect", int), ONCE),
        ("gram = id1, id2, ... [expect nonzero]",
         r"gram\s*=\s*(?P<ids>.*?)(?P<nonzero>\s+expect\s+nonzero)?",
         lambda state, lineno, m: setattr(state, "gram", (
             [x.strip() for x in m["ids"].split(",") if x.strip()], bool(m["nonzero"]))),
         ONCE)),
}


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document."""
    state = _Parse()
    section: Optional[str] = None
    table = GRAMMAR[None]
    seen_sections: set[str] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        if "#" in raw:
            raw = raw[:raw.index("#")]
        line = raw.strip()
        if not line:
            continue
        if line[0] == "[" and line[-1] == "]":
            section = line[1:-1].strip()
            if section not in GRAMMAR:
                raise ScenarioError(lineno, f"unknown section [{section}]")
            if section in seen_sections:
                raise ScenarioError(lineno, f"duplicate section [{section}]")
            seen_sections.add(section)
            table = GRAMMAR[section]
            continue
        m = table.match(line)
        if m is None:
            raise ScenarioError(lineno, table.error(section, line))
        handle, repeat = table.rows[m.lastindex]
        if not repeat:  # identity: the section and the words before '='
            state.once(lineno, (f"[{section}]" if section else "",
                                " ".join(line.partition("=")[0].split())))
        handle(state, lineno, m)

    if not state.schema:
        raise ScenarioError(1, "empty or headerless document: missing 'schema = 1' "
                               "and a [surface] section")
    if "surface" not in seen_sections:
        raise ScenarioError(1, "missing [surface] section")

    surface = state.surface
    preset_name = surface.pop("preset", None)
    preset_ids: tuple[str, ...] = ()
    explicit: list[tuple[str, int]] = []
    if preset_name is None:
        for key in ("e", "sigma", "pg", "q"):
            if key not in surface:
                raise ScenarioError(1, f"[surface] needs {key} when no preset is given")
            explicit.append((key, surface[key]))
        if surface.get("pi1_order", "unknown") != "unknown":
            explicit.append(("pi1_order", surface["pi1_order"]))
    else:
        try:
            preset_ids = tuple(preset(preset_name).curves)
        except KeyError:
            raise ScenarioError(1, f"unknown preset {preset_name!r}")

    meta = state.meta
    expect_pi1 = state.cover_expect.pop("pi1_order", None)
    gram_ids, gram_nonzero = state.gram or ((), False)
    scenario = Scenario(
        name=meta.get("name", "unnamed"),
        description=meta.get("description", ""),
        tags=tuple(t.strip() for t in meta.get("tags", "").split(",") if t.strip()),
        preset_name=preset_name,
        explicit_surface=tuple(explicit),
        curves=tuple(state.curves),
        pairings=tuple(state.pairings),
        blowups=tuple(state.blowups),
        chains=tuple(state.chains),
        surgery_expect=tuple(state.surgery.items()),
        pi1_witness=state.pi1.get("witness"),
        pi1_expect_order=state.pi1.get("expect_order"),
        cover=CoverSection(
            # the handlers already sorted each pairing key, so no build()
            decl=SplittingDecl(tuple(state.splits.items()), tuple(state.connected.items()),
                               tuple(state.cover_pairings.items())),
            blowups=tuple((st.new_id, *state.cover_blowups[st.new_id])
                          for st in state.blowups if st.new_id in state.cover_blowups),
            chains=tuple(state.cover_chains),
            expect=tuple(state.cover_expect.items()),
            expect_pi1_order=expect_pi1,
            gram_ids=tuple(gram_ids),
            gram_expect_nonzero=gram_nonzero,
        ) if "cover" in seen_sections else None,
    )
    _validate_references(scenario, preset_ids, state)
    return scenario


def _validate_references(s: Scenario, preset_ids: tuple[str, ...], state: _Parse):
    """Dangling curve references and id collisions, at the line that makes them."""
    lines = state.first
    base_ids = set(preset_ids)
    for c in s.curves:
        if c.id in base_ids:
            raise ScenarioError(lines["curve", c.id],
                                f"curve {c.id!r} is already declared by preset {s.preset_name!r}")
    base_ids.update(c.id for c in s.curves)
    known = set(base_ids)

    for a, b, _ in s.pairings:
        if a not in known or b not in known:
            lineno = lines[("pairing", a, b) if a < b else ("pairing", b, a)]
            raise ScenarioError(lineno, "pairing references undeclared curve "
                                        f"{a if a not in known else b!r}")
    for step, lineno in zip(s.blowups, state.blowup_lines):
        for cid in step.touched():
            if cid not in known:
                raise ScenarioError(
                    lineno, f"blow-up {step.new_id} references undeclared curve {cid!r}")
        if step.new_id in known:
            raise ScenarioError(
                lineno, f"blow-up id {step.new_id!r} collides with an existing curve")
        known.add(step.new_id)
    if s.pi1_witness is not None and s.pi1_witness not in known:
        raise ScenarioError(lines["[pi1]", "witness"],
                            f"pi1 witness references undeclared curve {s.pi1_witness!r}")

    if s.cover is not None:
        for cid, _ in s.cover.decl.splits + s.cover.decl.connected:
            if cid not in base_ids:
                raise ScenarioError(lines["lift of", cid],
                                    f"cover lift declares unknown base curve {cid!r}")
        cover_known = set(s.cover.decl.base_of)
        for (x, y), _ in s.cover.decl.pairings:
            for cid in (x, y):
                if cid not in cover_known:
                    raise ScenarioError(lines["cover pairing", x, y], "cover pairing "
                                        f"references undeclared cover curve {cid!r}")
        base_steps = {step.new_id for step in s.blowups}
        for base_id in state.cover_blowups:
            if base_id not in base_steps:
                raise ScenarioError(lines["lift of step", base_id], f"cover blow-up lifts "
                                    f"unknown base step {base_id!r}")
        for step, lineno in zip(s.blowups, state.blowup_lines):
            if step.new_id not in state.cover_blowups:
                raise ScenarioError(lineno, f"blow-up {step.new_id} has no lift in [cover]")
        for base_id, *lifts in s.cover.blowups:  # in base order, as verify runs them
            lineno = lines["lift of step", base_id]
            for step in lifts:
                for cid in step.touched():
                    if cid not in cover_known:
                        raise ScenarioError(lineno, f"cover blow-up {step.new_id} references "
                                                    f"undeclared curve {cid!r}")
                if step.new_id in cover_known:
                    raise ScenarioError(lineno, f"cover blow-up id {step.new_id!r} collides "
                                                "with an existing cover curve")
                cover_known.add(step.new_id)
        for k, cid in enumerate(s.cover.gram_ids):
            if cid not in cover_known:
                raise ScenarioError(lines["[cover]", "gram"],
                                    f"gram list references undeclared cover curve {cid!r}")
            if cid in s.cover.gram_ids[:k]:
                raise ScenarioError(lines["[cover]", "gram"],
                                    f"gram list names cover curve {cid!r} twice")
