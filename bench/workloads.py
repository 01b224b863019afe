"""The benchmark's workloads and the checks on the program's outputs.

Each workload prepares its inputs in ``setup`` (counted in ``setup_s``) and
then runs whole rounds: every round attempts the same operations, so the
share of failed operations is the same in every run.  Operations are timed
one by one with ``perf_counter``; the checks run outside the timed region
and use ``oracles``, never the program's own arithmetic.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import time
from math import gcd
from pathlib import Path

import oracles
import scaled


class Stats:
    """What one run measured: operation times, items done, failures, errors."""

    def __init__(self):
        self.samples_ms: list[float] = []
        self.busy_s = 0.0
        self.items = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def op(self, seconds: float, items: int = 1, attempted: int = 1):
        self.samples_ms.append(seconds * 1e3)
        self.busy_s += seconds
        self.items += items
        self.attempted += attempted

    def check(self, ok: bool, message: str):
        if not ok and len(self.errors) < 20:
            self.errors.append(message)


def call_cli(main, argv) -> tuple[int, str, str]:
    """Run ``blowdown`` in-process and capture its standard output and error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _timed_cli(main, argv):
    t0 = time.perf_counter()
    result = call_cli(main, argv)
    return time.perf_counter() - t0, result


# --- report checks ---------------------------------------------------------

def checked(check, *args) -> list[str]:
    """Run a report check; a report too malformed to read is one more error."""
    try:
        return check(*args)
    except (KeyError, IndexError, TypeError, ValueError) as err:
        return [f"report unreadable: {type(err).__name__} {err}"]


INVARIANT_KEYS = ("computed", "before", "after", "computed_before",
                  "computed_after_blowups", "computed_after_surgery")


def _wahl_pq(text: str) -> tuple[int, int]:
    p, q = text.strip("()").split(",")
    return int(p), int(q)


def _invariant_errors(report: dict) -> list[str]:
    """K^2 = 2e + 3 sigma and the b2 split, for every invariant set reported."""
    errors = []
    for section, entry in report["sections"].items():
        for key in INVARIANT_KEYS:
            inv = entry.get(key)
            if not isinstance(inv, dict) or "e" not in inv:
                continue
            e, s = inv["e"], inv["sigma"]
            if inv["K2"] != 2 * e + 3 * s:
                errors.append(f"{section}.{key}: K2 {inv['K2']} != 2e + 3sigma")
            if inv["b2"] != e - 2 or inv["b2_plus"] + inv["b2_minus"] != inv["b2"] \
                    or inv["b2_plus"] - inv["b2_minus"] != s:
                errors.append(f"{section}.{key}: inconsistent b2 split {inv}")
    return errors


def _doubled(cover: dict, base: dict) -> bool:
    return all(cover[k] == 2 * base[k] for k in ("e", "sigma", "K2"))


def report_errors(report: dict, chains: list[tuple[int, ...]]) -> list[str]:
    """Properties every report of a passing construction must have.

    ``chains`` are the scenario's target chains, read from its file by the
    benchmark, in declaration order.
    """
    errors = _invariant_errors(report)
    sec = report["sections"]
    if report["status"] != "pass":
        errors.append(f"status {report['status']}")
    if "chains" in sec:
        ch = sec["chains"]
        embs = ch["embeddings"]
        if [len(e) for e in embs] != [len(c) for c in chains]:
            errors.append("embedding lengths differ from the target chains")
        for entries, wahl, order, definite in zip(chains, ch["wahl"], ch["boundary_orders"],
                                                  ch["negative_definite"]):
            p, q = _wahl_pq(wahl)
            if not oracles.is_wahl(entries, p, q):
                errors.append(f"chain {entries} is not C{wahl}")
            if order != p * p:
                errors.append(f"boundary order {order} != p^2 = {p * p}")
            if definite != oracles.chain_is_negative_definite(entries):
                errors.append(f"definiteness of {entries} disagrees with the oracle")
    if "surgery" in sec:
        su = sec["surgery"]
        total = sum(len(e) for e in sec["chains"]["embeddings"])
        before, after = su["before"], su["after"]
        if su["total_length"] != total:
            errors.append("surgery length differs from the summed embeddings")
        if after["b2_plus"] != before["b2_plus"]:
            errors.append("b2+ changed under surgery")
        if (after["e"], after["sigma"]) != (before["e"] - total, before["sigma"] + total):
            errors.append("e and sigma not shifted by the summed chain lengths")
    if "cover" in sec:
        cov = sec["cover"]
        if not _doubled(cov["computed_before"], sec["surface"]["computed"]):
            errors.append("cover e, sigma, K2 before blow-ups are not twice the base")
        if not _doubled(cov["computed_after_blowups"], sec["blowups"]["computed"]):
            errors.append("cover e, sigma, K2 after blow-ups are not twice the base")
        if "computed_after_surgery" in cov and \
                not _doubled(cov["computed_after_surgery"], sec["surgery"]["after"]):
            errors.append("cover e, sigma, K2 after surgery are not twice the base")
    return errors


def scenario_chains(text: str) -> list[tuple[int, ...]]:
    """Target chains of the [chains] section of a scenario file."""
    section = re.search(r"^\[chains\]$(.*?)(?=^\[|\Z)", text, re.M | re.S)
    if not section:
        return []
    return [tuple(int(b) for b in m.group(1).split(","))
            for m in re.finditer(r"^chain\s*=\s*([\d,]+)", section.group(1), re.M)]


# the paper's numbers, checked on top of the generic properties
PAPER = {
    "k2_4_pi2": lambda s: (s["surgery"]["after"]["pg"], s["surgery"]["after"]["K2"],
                           s["pi1"]["computed_order"]) == (0, 4, 2),
    "k2_5_sympl": lambda s: (s["surgery"]["after"]["b2_plus"], s["surgery"]["after"]["K2"],
                             s["pi1"]["computed_order"]) == (1, 5, 2),
}


# --- workloads -------------------------------------------------------------

class Scenarios:
    """The four bundled scenarios through ``cli.main(["verify", ...])``.

    A round verifies each scenario in JSON and in text, and runs the three
    fault probes, in an order shuffled by the seed.
    """

    name = "scenarios"

    def __init__(self, work: Path, seed: int):
        from blowdown import bundled, cli
        self.cli = cli
        self.rng = random.Random(seed)
        self.paths = {n: str(bundled.path(n)) for n in bundled.names()}
        self.chains = {n: scenario_chains(bundled.text(n)) for n in self.paths}
        self.seen: dict[tuple[str, str], str] = {}
        self.probes = self._write_probes(work, bundled)

    @staticmethod
    def _write_probes(work: Path, bundled) -> dict[str, str]:
        cover = bundled.text("cover_b2plus3")
        head, _, tail = cover.partition("[cover]")
        tail = tail.replace("chain = 6,2,2\n", "")
        for key, value in (("e", 20), ("sigma", -12), ("K2", 4)):
            tail = re.sub(rf"^expect {key} = .*$", f"expect {key} = {value}", tail, flags=re.M)
        k24 = bundled.text("k2_4_pi2")
        texts = {
            # cover chains are not the preimages of the base embeddings
            "cover_chains_dropped": head + "[cover]" + tail,
            # a non-integer surface invariant
            "surface_not_integer": k24.replace(
                "preset = enriques_kondo",
                "e = abc\nsigma = -8\npg = 0\nq = 0\npi1_order = 2"),
            # a negative consumed intersection
            "negative_consume": k24.replace("k6 = point S2, F", "k6 = point S2, F consume S2.F=-5"),
        }
        paths = {}
        for name, text in texts.items():
            path = work / f"probe_{name}.scn"
            path.write_text(text, encoding="utf-8")
            paths[name] = str(path)
        return paths

    def _probe(self, name: str) -> bool:
        """True when the program handles the probe correctly."""
        argv = ["verify", self.probes[name], "--format", "json"]
        try:
            code, out, err = call_cli(self.cli.main, argv)
        except Exception:  # a traceback is the fault being probed
            return False
        if name == "cover_chains_dropped":
            try:
                cover = json.loads(out)["sections"].get("cover", {})
            except ValueError:
                return code != 0
            return cover.get("status") != "pass"
        if name == "surface_not_integer":
            return code == 2 and re.search(r"line \d+:", err) is not None
        return code == 2

    def setup(self, stats: Stats):
        for name, chains in self.chains.items():
            stats.check(bool(chains) or name == "cover_k3", f"{name}: no chains read")
        self.round(stats, warmup=True)

    def round(self, stats: Stats, tracer=None, warmup: bool = False):
        ops = [(n, f) for n in self.paths for f in ("json", "text")] + list(self.probes)
        self.rng.shuffle(ops)
        for op in ops:
            if isinstance(op, str):
                if not warmup:
                    stats.attempted += 1
                    stats.failed += not self._probe(op)
                continue
            name, fmt = op
            dt, (code, out, _) = _timed_cli(
                self.cli.main, ["verify", self.paths[name], "--format", fmt])
            if not warmup:
                stats.op(dt)
            self._check(stats, name, fmt, code, out)

    def _check(self, stats: Stats, name: str, fmt: str, code: int, out: str):
        stats.check(code == 0, f"{name} {fmt}: exit {code}")
        first = self.seen.setdefault((name, fmt), out)
        if first is not out:
            stats.check(out == first, f"{name} {fmt}: output differs between repeats")
            return
        if fmt == "text":
            stats.check("\noverall:  PASS\n" in out, f"{name}: text report is not PASS")
            return
        for err in checked(self._report_errors, out, name):
            stats.check(False, f"{name}: {err}")

    def _report_errors(self, out: str, name: str) -> list[str]:
        report = json.loads(out)
        errors = report_errors(report, self.chains[name])
        if name in PAPER and not PAPER[name](report["sections"]):
            errors.append("paper invariants differ")
        return errors


class HJSweep:
    """Round trips hj_eval(hj_expand(n, m)) over every coprime pair of a band.

    One operation is every m for one n; a round is the whole band in an
    order shuffled by the seed.
    """

    name = "hj_sweep"
    BAND = range(4950, 5000)

    def __init__(self, work: Path, seed: int):
        from blowdown import hjcf
        self.expand, self.eval = hjcf.hj_expand, hjcf.hj_eval
        self.rng = random.Random(seed)
        self.residues = {n: oracles.coprime_residues(n) for n in self.BAND}
        self.expected = sum(oracles.totient(n) for n in self.BAND)

    def setup(self, stats: Stats):
        stats.check(sum(map(len, self.residues.values())) == self.expected,
                    "coprime residues disagree with the totient sum")
        n = self.BAND[0]
        self._sweep(stats, n, self.residues[n])

    def _sweep(self, stats: Stats, n: int, ms: list[int]) -> float:
        expand, evaluate = self.expand, self.eval
        bad = 0
        t0 = time.perf_counter()
        for m in ms:
            if evaluate(expand(n, m)) != (n, m):
                bad += 1
        dt = time.perf_counter() - t0
        stats.check(bad == 0, f"n={n}: {bad} round trips did not return (n, m)")
        return dt

    def _traced_sweep(self, stats: Stats, tracer, n: int, ms: list[int]) -> float:
        expand, evaluate = self.expand, self.eval
        t0 = time.perf_counter()
        with tracer.span("hjcf.expand_batch"):
            chains = [expand(n, m) for m in ms]
        with tracer.span("hjcf.eval_batch"):
            values = [evaluate(c) for c in chains]
        dt = time.perf_counter() - t0
        tracer.add("hjcf.expand_items", len(ms))
        tracer.add("hjcf.eval_items", len(ms))
        stats.check(values == [(n, m) for m in ms], f"n={n}: a round trip did not return (n, m)")
        return dt

    def round(self, stats: Stats, tracer=None):
        order = list(self.BAND)
        self.rng.shuffle(order)
        done = 0
        for n in order:
            ms = self.residues[n]
            dt = self._traced_sweep(stats, tracer, n, ms) if tracer else self._sweep(stats, n, ms)
            stats.op(dt, items=len(ms), attempted=len(ms))
            done += len(ms)
        stats.check(done == self.expected, f"round did {done} round trips, phi sum {self.expected}")


class HJAtlas:
    """``blowdown chains --max-p P``: every Wahl chain with p <= P.

    The input is fixed (the seed does not change it); one operation is one
    atlas call, checked row by row on its first call and for byte-identity
    afterwards.
    """

    name = "hj_atlas"
    MAX_P = 250

    def __init__(self, work: Path, seed: int):
        from blowdown import cli
        self.cli = cli
        self.argv = ["chains", "--max-p", str(self.MAX_P), "--max-length", str(self.MAX_P)]
        self.rows = oracles.wahl_pair_count(self.MAX_P)
        self.checked: str | None = None

    def setup(self, stats: Stats):
        code, out, _ = call_cli(self.cli.main, self.argv)
        stats.check(code == 0, f"chains: exit {code}")
        for err in self.atlas_errors(out):
            stats.check(False, err)
        self.checked = out

    def atlas_errors(self, out: str) -> list[str]:
        lines = out.splitlines()
        errors = []
        if not lines or lines[0] != "p\tq\tlength\tchain\tboundary_order":
            errors.append("atlas header missing")
        seen = set()
        for line in lines[1:]:
            p, q, length, chain, order = line.split("\t")
            p, q, length, order = int(p), int(q), int(length), int(order)
            entries = tuple(int(b) for b in chain.split(","))
            seen.add((p, q))
            if not (0 < q < p <= self.MAX_P and gcd(p, q) == 1):
                errors.append(f"row ({p},{q}) is not a Wahl pair")
            if len(entries) != length or not oracles.is_wahl(entries, p, q) or order != p * p:
                errors.append(f"row ({p},{q}) is not the chain C({p},{q})")
        if len(lines) - 1 != self.rows or len(seen) != self.rows:
            errors.append(f"atlas has {len(lines) - 1} rows, phi sum is {self.rows}")
        return errors[:5]

    def round(self, stats: Stats, tracer=None):
        dt, (code, out, _) = _timed_cli(self.cli.main, self.argv)
        stats.op(dt, items=out.count("\n") - 1)
        stats.check(code == 0 and out == self.checked, "atlas output differs from the checked one")


class ScaledScenario:
    """A generated scenario far above bundled size, verified through ``cli.main``."""

    name = "scaled_scenario"

    def __init__(self, work: Path, seed: int):
        from blowdown import bundled, cli
        self.cli = cli
        self.warm = str(bundled.path("k2_4_pi2"))
        self.path, self.facts = scaled.write(seed, work)
        self.first: str | None = None

    def setup(self, stats: Stats):
        for chain in self.facts["chains"]:
            stats.check(oracles.is_wahl(chain["entries"], chain["p"], chain["q"])
                        and oracles.chain_is_negative_definite(chain["entries"]),
                        f"generated chain C({chain['p']},{chain['q']}) fails the oracle")
        code, _, _ = call_cli(self.cli.main, ["verify", self.warm, "--format", "json"])
        stats.check(code == 0, "warm-up verify failed")

    def round(self, stats: Stats, tracer=None):
        dt, (code, out, _) = _timed_cli(self.cli.main,
                                        ["verify", str(self.path), "--format", "json"])
        stats.op(dt)
        stats.check(code == 0, f"scaled verify: exit {code}")
        if self.first is not None:
            stats.check(out == self.first, "scaled report differs between repeats")
            return
        self.first = out
        for err in checked(self.report_errors, out):
            stats.check(False, f"scaled: {err}")

    def report_errors(self, out: str) -> list[str]:
        report = json.loads(out)
        facts = self.facts
        chains = [tuple(c["entries"]) for c in facts["chains"]]
        errors = report_errors(report, chains)
        sec = report["sections"]
        base = _Table(facts["base_final"])
        errors += base.embedding_errors(sec["chains"]["embeddings"], chains)
        after = sec["surgery"]["after"]
        planted = facts["base_after"]
        if any(after[k] != planted[k] for k in ("e", "sigma", "K2", "b2_plus")):
            errors.append(f"base after surgery {after} != planted {planted}")
        if sec["pi1"].get("computed_order") != planted["pi1_order"] or not sec["pi1"]["witness"]:
            errors.append("pi1 order or witness differs from the planted one")
        cov = sec["cover"]
        cover = _Table(facts["cover_final"])
        cover_chains = [tuple(c) for c in (chains[1], chains[1], chains[0], chains[0])]
        errors += cover.embedding_errors(cov["chain_embeddings"], cover_chains)
        planted = facts["cover_after"]
        got = cov["computed_after_surgery"]
        if any(got[k] != planted[k] for k in ("e", "sigma", "K2", "b2_plus")):
            errors.append(f"cover after surgery {got} != planted {planted}")
        if cov.get("computed_pi1_order") != planted["pi1_order"]:
            errors.append("cover pi1 order differs from the planted one")
        return errors


class _Table:
    """The generator's final self-intersections and pairings."""

    def __init__(self, table: dict):
        self.self_int = table["self_int"]
        self.pairs = {(a, b): v for a, b, v in table["pairings"]}

    def pairing(self, a: str, b: str) -> int:
        return self.pairs.get((a, b) if a < b else (b, a), 0)

    def embedding_errors(self, embeddings, chains) -> list[str]:
        """Chain conditions for each embedding, and disjointness between them."""
        errors = []
        if len(embeddings) != len(chains):
            return [f"{len(embeddings)} embeddings for {len(chains)} chains"]
        for emb, entries in zip(embeddings, chains):
            if len(emb) != len(entries) or len(set(emb)) != len(emb):
                errors.append(f"embedding {emb[:3]}... has the wrong curves")
                continue
            if any(self.self_int.get(c) != -b for c, b in zip(emb, entries)):
                errors.append(f"embedding {emb[:3]}... has wrong self-intersections")
            for i, a in enumerate(emb):
                for j in range(i + 1, len(emb)):
                    if self.pairing(a, emb[j]) != (1 if j == i + 1 else 0):
                        errors.append(f"embedding {emb[:3]}...: {a}.{emb[j]} breaks the chain")
        for i, a in enumerate(embeddings):
            for b in embeddings[i + 1:]:
                if set(a) & set(b) or any(self.pairing(x, y) for x in a for y in b):
                    errors.append("embeddings are not disjoint")
        return errors


WORKLOADS = {w.name: w for w in (Scenarios, HJSweep, HJAtlas, ScaledScenario)}
