"""Per-layer tracing of ``blowdown`` from outside the package.

The tracer wraps public functions and methods of the package while it is
installed and restores the originals afterwards.  ``verify``, ``surgery``
and ``cli`` import functions by name, so each function is replaced in every
loaded ``blowdown`` module that binds it, not only where it is defined.

A span is ``[name, start_ns, end_ns, parent_index]``; spans stay in memory
and are written once, when the run ends.  A span's self time is its
duration minus the durations of its child spans (children of one span never
overlap: the program is single-threaded).  Calls that only need counting
(``Configuration.pairing``, ``blow_up``, ``SplittingDecl.preimages``) get a
counter, not a span, to keep the overhead down.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

# (module, attribute, span name); a dotted attribute is a method on a class
SPANS = (
    ("cli", "main", "cli.main"),
    ("scenario", "parse_scenario", "scenario.parse"),
    ("verify", "verify", "verify.verify"),
    ("report", "emit", "report.emit"),
    ("report", "Report.to_text", "report.to_text"),
    ("configuration", "preset", "configuration.preset"),
    ("configuration", "run_program", "configuration.run_program"),
    ("configuration", "adjunction_audit", "configuration.audit"),
    ("configuration", "find_chains", "configuration.find_chains"),
    ("lattice", "is_negative_definite", "lattice.definite"),
    ("lattice", "gram", "lattice.gram"),
    ("lattice", "det_exact", "lattice.det"),
    ("surgery", "rational_blowdown", "surgery.blowdown"),
    ("fundgroup", "pi1_after_blowdown", "fundgroup.pi1"),
    ("fundgroup", "minus_one_sphere_witness", "fundgroup.witness"),
    ("cover", "lift_configuration", "cover.lift"),
)
COUNTS = (
    ("configuration", "blow_up", "configuration.blow_up_calls"),
    ("configuration", "Configuration.pairing", "configuration.pairing_calls"),
    ("cover", "SplittingDecl.preimages", "cover.preimages_calls"),
)
FAMILY = ("hjcf", "wahl_family")  # a generator: time spent producing items

def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "blowdown" or name.startswith("blowdown."))]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, list[int]] = defaultdict(lambda: [0])  # one cell per counter
        self.family_ns: dict[int, int] = defaultdict(int)  # enclosing span -> ns
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def add(self, counter: str, n: int):
        self.counts[counter][0] += n

    @contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter_ns(), 0, self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter_ns()
            self.stack.pop()

    def _span_wrapper(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        order_sum, out_bytes = self.counts["lattice.definite_order_sum"], self.counts["report.bytes"]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if name == "lattice.definite":
                order_sum[0] += args[0].n
            elif name in ("report.emit", "report.to_text"):
                out_bytes[0] += len(result.encode("utf-8"))
            return result
        return wrapper

    def _count_wrapper(self, name, fn):
        cell = self.counts[name]

        @functools.wraps(fn)
        def wrapper(*args):
            cell[0] += 1
            return fn(*args)
        return wrapper

    def _family_wrapper(self, fn):
        stack, family_ns, clock = self.stack, self.family_ns, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            owner = stack[-1] if stack else -1
            it = fn(*args, **kwargs)
            while True:
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    family_ns[owner] += clock() - t0
                    return
                family_ns[owner] += clock() - t0
                yield item
        return wrapper

    # -- patching ----------------------------------------------------------

    def _replace(self, module: str, attr: str, make):
        mod = importlib.import_module(f"blowdown.{module}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            orig = cls.__dict__[meth]
            self._undo.append((cls, meth, orig))
            setattr(cls, meth, make(orig))
            return
        orig = getattr(mod, attr)
        wrapper = make(orig)
        for m in _package_modules():
            for key, value in list(vars(m).items()):
                if value is orig:
                    self._undo.append((m, key, orig))
                    setattr(m, key, wrapper)

    def install(self):
        for module, attr, name in SPANS:
            self._replace(module, attr, lambda fn, n=name: self._span_wrapper(n, fn))
        for module, attr, name in COUNTS:
            self._replace(module, attr, lambda fn, n=name: self._count_wrapper(n, fn))
        self._replace(*FAMILY, self._family_wrapper)

    def restore(self):
        while self._undo:
            obj, key, orig = self._undo.pop()
            setattr(obj, key, orig)

    # -- results -----------------------------------------------------------

    def per_layer(self, ops: int) -> dict[str, float]:
        """Per-operation layer metrics over everything recorded so far.

        Durations sum every span of a name (no wrapped function calls itself
        or another of its layer's, so nothing is counted twice).
        """
        calls, dur, child = Counter(), Counter(), Counter()
        for name, start, end, parent in self.spans:
            calls[name] += 1
            dur[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_ns = Counter()
        atlas_format = 0
        for i, (name, start, end, _) in enumerate(self.spans):
            own = end - start - child[i] - self.family_ns.get(i, 0)
            self_ns[name] += own
            if name == "cli.main" and i in self.family_ns:
                atlas_format += own

        per_op = 1 / max(ops, 1)
        ms = 1e-6 * per_op
        c = {name: cell[0] for name, cell in self.counts.items()}
        expand, evaluate = c.get("hjcf.expand_items", 0), c.get("hjcf.eval_items", 0)
        return {
            "cli.self_ms": self_ns["cli.main"] * ms,
            "cli.atlas_format_ms": atlas_format * ms,
            "scenario.parse_ms": dur["scenario.parse"] * ms,
            "report.emit_ms": (dur["report.emit"] + dur["report.to_text"]) * ms,
            "report.bytes": c["report.bytes"] * per_op,
            "verify.self_ms": self_ns["verify.verify"] * ms,
            "configuration.preset_calls": calls["configuration.preset"] * per_op,
            "configuration.run_program_ms": dur["configuration.run_program"] * ms,
            "configuration.blow_up_calls": c.get("configuration.blow_up_calls", 0) * per_op,
            "configuration.audit_ms": dur["configuration.audit"] * ms,
            "configuration.find_chains_ms": dur["configuration.find_chains"] * ms,
            "configuration.find_chains_calls": calls["configuration.find_chains"] * per_op,
            "configuration.pairing_calls": c.get("configuration.pairing_calls", 0) * per_op,
            "lattice.definite_ms": dur["lattice.definite"] * ms,
            "lattice.definite_calls": calls["lattice.definite"] * per_op,
            "lattice.definite_order_sum": c["lattice.definite_order_sum"] * per_op,
            "lattice.gram_ms": dur["lattice.gram"] * ms,
            "lattice.det_ms": dur["lattice.det"] * ms,
            "surgery.blowdown_ms": self_ns["surgery.blowdown"] * ms,
            "fundgroup.pi1_ms": (dur["fundgroup.pi1"] + dur["fundgroup.witness"]) * ms,
            "cover.lift_ms": dur["cover.lift"] * ms,
            "cover.preimages_calls": c.get("cover.preimages_calls", 0) * per_op,
            "hjcf.expand_ns": dur["hjcf.expand_batch"] / expand if expand else 0.0,
            "hjcf.eval_ns": dur["hjcf.eval_batch"] / evaluate if evaluate else 0.0,
            "hjcf.atlas_family_ms": sum(self.family_ns.values()) * ms,
        }

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent"], "spans": self.spans,
                       "counts": {name: cell[0] for name, cell in self.counts.items()}}, fh)
