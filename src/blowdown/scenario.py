"""Scenario files: a line-oriented declarative format for constructions.

A scenario describes one construction end to end: the starting surface, the
blow-up program, the chains to locate, the surgery expectations, the
fundamental-group witness, and optionally a double-cover lift.  The grammar
is versioned (``schema = 1``) and every parse error carries its line number.

Grammar sketch (one statement per line, ``#`` comments)::

    schema = 1
    [meta]
    name = my_scenario
    description = free text
    tags = comma, separated
    [surface]
    preset = enriques_kondo          # or explicit: e/sigma/pg/q/pi1_order, not both
    [curves]
    X = -2 0 0 0 auxiliary          # self_int genus k_degree node_count [ignored words]
    [pairings]
    S1.D3 = 1
    [blowups]
    E1 = node F                      # blow up the node of F
    E2 = point S1, F                 # transverse intersection point
    E3 = point S1*2                  # local multiplicity (needs a matching node)
    E4 = point                       # point on no curve
    E5 = point S1, F consume S1.F=2  # override consumed local intersection (>= 0)
    [chains]
    chain = 2,2,9,2,2,2,2,4 expect 19,13
    [surgery]
    e = 8
    sigma = -4
    K2 = 4
    [pi1]
    witness = E9
    expect_order = 2
    [cover]
    split F -> F1, F2
    connected X -> Xbar
    pairing F1.T1 = 1
    blowup E1 -> C1 = node F1 ; C2 = node F2
    chain = 6,2,2
    expect e = 14
    expect pi1_order = 1
    gram = Da1, Da2 expect nonzero
"""

from __future__ import annotations

import re
from dataclasses import dataclass
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


SECTIONS = ("meta", "surface", "curves", "pairings", "blowups", "chains",
            "surgery", "pi1", "cover")

SURGERY_KEYS = ("e", "sigma", "K2", "b2", "b2_plus", "b2_minus")


@dataclass(frozen=True)
class CoverSection:
    decl: SplittingDecl
    blowups: tuple[tuple[str, PointSpec, PointSpec], ...]  # (base step id, two lifts)
    chains: tuple[Chain, ...]
    expect: tuple[tuple[str, int], ...]
    expect_pi1_order: Optional[int]
    gram_ids: tuple[str, ...]
    gram_expect_nonzero: bool


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


_POINT_RE = re.compile(r"^point(\s+(?P<rest>.*))?$")
_NODE_RE = re.compile(r"^node\s+(?P<curve>\S+)(\s*,\s*(?P<rest>.*))?$")


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
            m = re.match(r"^(\S+)\.(\S+)\s*=\s*(-?\d+)$", clause)
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
    m = _NODE_RE.match(rhs) or _POINT_RE.match(rhs)
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
        entries = tuple(int(x.strip()) for x in rhs.strip().split(","))
        chain = Chain(entries)
    except ValueError as err:
        raise ScenarioError(lineno, f"bad chain: {err}")
    return chain, expect


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document."""
    meta: dict[str, str] = {}
    surface: dict[str, "str | int"] = {}
    curves: list[Curve] = []
    pairings: list[tuple[str, str, int]] = []
    blowups: list[PointSpec] = []
    chains: list[tuple[Chain, Optional[WahlParams]]] = []
    surgery: list[tuple[str, int]] = []
    pi1_witness: Optional[str] = None
    pi1_expect: Optional[int] = None
    cover_splits: dict[str, tuple[str, str]] = {}
    cover_connected: dict[str, str] = {}
    cover_pairings: dict[tuple[str, str], int] = {}
    cover_blowups: list[tuple[str, PointSpec, PointSpec]] = []
    cover_chains: list[Chain] = []
    cover_expect: list[tuple[str, int]] = []
    cover_pi1: Optional[int] = None
    cover_gram: list[str] = []
    cover_gram_nonzero = False

    section: Optional[str] = None
    schema_seen = False
    seen_sections: set[str] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in SECTIONS:
                raise ScenarioError(lineno, f"unknown section [{name}]")
            if name in seen_sections:
                raise ScenarioError(lineno, f"duplicate section [{name}]")
            seen_sections.add(name)
            section = name
            continue
        if section is None:
            m = re.match(r"^schema\s*=\s*(\d+)$", line)
            if not m:
                raise ScenarioError(lineno, "expected 'schema = 1' before any section")
            if int(m.group(1)) != 1:
                raise ScenarioError(lineno, f"unsupported schema version {m.group(1)}")
            schema_seen = True
            continue

        if section == "meta":
            m = re.match(r"^(name|description|tags)\s*=\s*(.*)$", line)
            if not m:
                raise ScenarioError(lineno, f"unknown meta statement {line!r}")
            meta[m.group(1)] = m.group(2).strip()
        elif section == "surface":
            m = re.match(r"^(preset|e|sigma|pg|q|pi1_order)\s*=\s*(\S+)$", line)
            if not m:
                raise ScenarioError(lineno, f"unknown surface statement {line!r}")
            key, value = m.groups()
            if surface and (key == "preset") != ("preset" in surface):
                raise ScenarioError(
                    lineno, "[surface] takes a preset or explicit invariants, not both")
            if key == "preset" or (key == "pi1_order" and value == "unknown"):
                surface[key] = value
            else:
                surface[key] = _parse_int(lineno, value, key)
        elif section == "curves":
            m = re.match(r"^(\S+)\s*=\s*(-?\d+)\s+(\d+)\s+(-?\d+)\s+(\d+)(\s+.*)?$", line)
            if not m:
                raise ScenarioError(
                    lineno, "curve line must be 'id = self_int genus k_degree "
                            f"node_count [labels]', got {line!r}")
            curves.append(Curve(m.group(1), int(m.group(2)), int(m.group(3)),
                                int(m.group(4)), int(m.group(5))))
        elif section == "pairings":
            m = re.match(r"^(\S+)\.(\S+)\s*=\s*(-?\d+)$", line)
            if not m:
                raise ScenarioError(lineno, f"pairing line must be 'a.b = n', got {line!r}")
            v = int(m.group(3))
            if v < 0:
                raise ScenarioError(lineno, "pairings must be >= 0")
            pairings.append((m.group(1), m.group(2), v))
        elif section == "blowups":
            m = re.match(r"^(\S+)\s*=\s*(.*)$", line)
            if not m:
                raise ScenarioError(lineno, f"blow-up line must be 'id = spec', got {line!r}")
            blowups.append(_parse_pointspec(lineno, m.group(1), m.group(2)))
        elif section == "chains":
            m = re.match(r"^chain\s*=\s*(.*)$", line)
            if not m:
                raise ScenarioError(lineno, f"chain line must be 'chain = b1,b2,...', got {line!r}")
            chains.append(_parse_chain(lineno, m.group(1)))
        elif section == "surgery":
            m = re.match(r"^(\w+)\s*=\s*(-?\d+)$", line)
            if not m or m.group(1) not in SURGERY_KEYS:
                raise ScenarioError(
                    lineno, f"surgery expectation must be one of {SURGERY_KEYS}, got {line!r}")
            surgery.append((m.group(1), int(m.group(2))))
        elif section == "pi1":
            m = re.match(r"^(witness|expect_order)\s*=\s*(\S+)$", line)
            if not m:
                raise ScenarioError(lineno, f"unknown pi1 statement {line!r}")
            if m.group(1) == "witness":
                pi1_witness = m.group(2)
            else:
                pi1_expect = _parse_int(lineno, m.group(2), "expect_order")
        elif section == "cover":
            if line.startswith("split "):
                m = re.match(r"^split\s+(\S+)\s*->\s*(\S+)\s*,\s*(\S+)$", line)
                if not m:
                    raise ScenarioError(lineno, f"bad split line {line!r}")
                if m.group(1) in cover_splits or m.group(1) in cover_connected:
                    raise ScenarioError(lineno, f"curve {m.group(1)!r} lifted twice")
                cover_splits[m.group(1)] = (m.group(2), m.group(3))
            elif line.startswith("connected "):
                m = re.match(r"^connected\s+(\S+)\s*->\s*(\S+)$", line)
                if not m:
                    raise ScenarioError(lineno, f"bad connected line {line!r}")
                if m.group(1) in cover_splits or m.group(1) in cover_connected:
                    raise ScenarioError(lineno, f"curve {m.group(1)!r} lifted twice")
                cover_connected[m.group(1)] = m.group(2)
            elif line.startswith("pairing "):
                m = re.match(r"^pairing\s+(\S+)\.(\S+)\s*=\s*(\d+)$", line)
                if not m:
                    raise ScenarioError(lineno, f"bad cover pairing line {line!r}")
                key = tuple(sorted((m.group(1), m.group(2))))
                cover_pairings[key] = int(m.group(3))
            elif line.startswith("blowup "):
                m = re.match(r"^blowup\s+(\S+)\s*->\s*(\S+)\s*=\s*(.*?)\s*;\s*(\S+)\s*=\s*(.*)$",
                             line)
                if not m:
                    raise ScenarioError(
                        lineno, "cover blow-up must be 'blowup BASE -> id1 = spec ; "
                                f"id2 = spec', got {line!r}")
                first = _parse_pointspec(lineno, m.group(2), m.group(3))
                second = _parse_pointspec(lineno, m.group(4), m.group(5))
                cover_blowups.append((m.group(1), first, second))
            elif line.startswith("chain "):
                m = re.match(r"^chain\s*=\s*(.*)$", line)
                if not m:
                    raise ScenarioError(lineno, f"bad cover chain line {line!r}")
                chain, _ = _parse_chain(lineno, m.group(1))
                cover_chains.append(chain)
            elif line.startswith("expect "):
                m = re.match(r"^expect\s+(\w+)\s*=\s*(-?\d+)$", line)
                if not m:
                    raise ScenarioError(lineno, f"bad cover expectation {line!r}")
                key = m.group(1)
                if key == "pi1_order":
                    cover_pi1 = int(m.group(2))
                elif key in SURGERY_KEYS:
                    cover_expect.append((key, int(m.group(2))))
                else:
                    raise ScenarioError(lineno, f"unknown cover expectation key {key!r}")
            elif line.startswith("gram "):
                m = re.match(r"^gram\s*=\s*(.*?)(\s+expect\s+nonzero)?$", line)
                if not m:
                    raise ScenarioError(lineno, f"bad gram line {line!r}")
                cover_gram = [x.strip() for x in m.group(1).split(",") if x.strip()]
                cover_gram_nonzero = bool(m.group(2))
            else:
                raise ScenarioError(lineno, f"unknown cover statement {line!r}")
        else:  # pragma: no cover
            raise ScenarioError(lineno, f"statement outside any section: {line!r}")

    if not schema_seen:
        raise ScenarioError(1, "empty or headerless document: missing 'schema = 1' "
                               "and a [surface] section")
    if "surface" not in seen_sections:
        raise ScenarioError(1, "missing [surface] section")

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

    scenario = Scenario(
        name=meta.get("name", "unnamed"),
        description=meta.get("description", ""),
        tags=tuple(t.strip() for t in meta.get("tags", "").split(",") if t.strip()),
        preset_name=preset_name,
        explicit_surface=tuple(explicit),
        curves=tuple(curves),
        pairings=tuple(pairings),
        blowups=tuple(blowups),
        chains=tuple(chains),
        surgery_expect=tuple(surgery),
        pi1_witness=pi1_witness,
        pi1_expect_order=pi1_expect,
        cover=CoverSection(
            decl=SplittingDecl.build(cover_splits, cover_connected, cover_pairings),
            blowups=tuple(cover_blowups),
            chains=tuple(cover_chains),
            expect=tuple(cover_expect),
            expect_pi1_order=cover_pi1,
            gram_ids=tuple(cover_gram),
            gram_expect_nonzero=cover_gram_nonzero,
        ) if "cover" in seen_sections else None,
    )
    _validate_references(scenario, text, preset_ids)
    return scenario


def _line_of(text: str, predicate) -> int:
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if predicate(raw):
            return lineno
    return 1


def _validate_references(s: Scenario, text: str, preset_ids: tuple[str, ...]):
    """Dangling curve references, with best-effort line positions."""
    base_ids = set(preset_ids)
    base_ids.update(c.id for c in s.curves)
    known = set(base_ids)

    def err(needle: str, message: str):
        raise ScenarioError(_line_of(text, lambda raw: needle in raw), message)

    for a, b, _ in s.pairings:
        for cid in (a, b):
            if cid not in known:
                err(f"{a}.{b}", f"pairing references undeclared curve {cid!r}")
    for step in s.blowups:
        for cid in step.touched():
            if cid not in known:
                err(step.new_id, f"blow-up {step.new_id} references undeclared curve {cid!r}")
        if step.new_id in known:
            err(step.new_id, f"blow-up id {step.new_id!r} collides with an existing curve")
        known.add(step.new_id)
    if s.pi1_witness is not None and s.pi1_witness not in known:
        err(s.pi1_witness, f"pi1 witness references undeclared curve {s.pi1_witness!r}")

    if s.cover is not None:
        for cid, _ in s.cover.decl.splits + s.cover.decl.connected:
            if cid not in base_ids:
                err(cid, f"cover lift declares unknown base curve {cid!r}")
        cover_known = set(s.cover.decl.base_of())
        base_steps = {step.new_id for step in s.blowups}
        for base_id, first, second in s.cover.blowups:
            if base_id not in base_steps:
                err(base_id, f"cover blow-up lifts unknown base step {base_id!r}")
            for step in (first, second):
                for cid in step.touched():
                    if cid not in cover_known:
                        err(step.new_id,
                            f"cover blow-up {step.new_id} references undeclared curve {cid!r}")
                cover_known.add(step.new_id)
        for cid in s.cover.gram_ids:
            if cid not in cover_known:
                err(cid, f"gram list references undeclared cover curve {cid!r}")
