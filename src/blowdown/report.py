"""Deterministic verification reports.

A Report is a plain tree of dicts/lists/ints/strings assembled in sorted
order, so the JSON emission is byte-identical across runs for identical
input.  The text emission is a sectioned human summary including derivation
traces and the assumption ledger.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

SCHEMA_VERSION = 1

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


@dataclass
class Report:
    scenario: str
    sections: dict = field(default_factory=dict)
    assumptions: list = field(default_factory=list)

    def add(self, name: str, status: str, **payload):
        entry = {"status": status}
        entry.update(payload)
        self.sections[name] = entry

    @property
    def status(self) -> str:
        for entry in self.sections.values():
            if entry["status"] in (FAIL, INCONCLUSIVE):
                return FAIL
        return PASS

    def as_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "scenario": self.scenario,
            "status": self.status,
            "sections": self.sections,
            "assumptions": self.assumptions,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2,
                          separators=(",", ": ")) + "\n"

    def to_text(self, width: int = 72) -> str:
        lines = []
        bar = "=" * width
        lines.append(bar)
        lines.append(f"scenario: {self.scenario}")
        lines.append(f"overall:  {self.status.upper()}")
        lines.append(bar)
        for name in sorted(self.sections):
            entry = self.sections[name]
            lines.append(f"[{name}] {entry['status'].upper()}")
            for key in sorted(entry):
                if key in ("status", "trace"):
                    continue
                lines.append(f"  {key} = {_fmt(entry[key])}")
            if "trace" in entry:
                lines.append("  derivation trace:")
                for step in entry["trace"]:
                    ins = ", ".join(f"{k}={v}" for k, v in sorted(step["inputs"].items()))
                    lines.append(f"    - {step['rule']}({ins}) => {step['conclusion']}")
                    lines.append(f"        [{step['justification']}]")
        if self.assumptions:
            lines.append("-" * width)
            lines.append("assumption ledger (cited, not computed):")
            for a in self.assumptions:
                lines.append(f"  * {a['key']}: {a['claim']}")
                lines.append(f"      citation: {a['citation']}")
        lines.append(bar)
        return "\n".join(lines) + "\n"


def _fmt(value) -> str:
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}: {_fmt(v)}" for k, v in sorted(value.items())) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    return str(value)


def emit(report: Report, fmt: str = "json") -> str:
    if fmt == "json":
        return report.to_json()
    if fmt == "text":
        return report.to_text()
    raise ValueError(f"unknown report format {fmt!r}")
