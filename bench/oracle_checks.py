"""Tests of the benchmark's own oracles and scenario generator.

The file name keeps it out of the repository's test run; run it with

    python3 -m pytest bench/oracle_checks.py
"""

import json
import random
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

import oracles
import scaled
from workloads import ScaledScenario, Stats, _Table, scenario_chains

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

# (p, q, chain) of the paper's four chains
PAPER_CHAINS = [
    (19, 13, (2, 2, 9, 2, 2, 2, 2, 4)),
    (73, 50, (2, 2, 7, 6, 2, 3, 2, 2, 2, 2, 4)),
    (4, 1, (6, 2, 2)),
    (151, 31, (5, 8, 6, 2, 3, 2, 2, 2, 2, 2, 3, 2, 2, 2)),
]


@pytest.mark.parametrize("p,q,chain", PAPER_CHAINS)
def test_paper_chains(p, q, chain):
    assert p * p in (361, 5329, 16, 22801)
    assert oracles.continuant(chain) == (p * p, p * q - 1)
    assert abs(oracles.chain_determinant(chain)) == p * p
    assert oracles.chain_is_negative_definite(chain)
    assert oracles.is_wahl(chain, p, q)
    assert not oracles.is_wahl(chain, p, q + 1)


def _minors_by_elimination(entries):
    """Leading minors by exact Gaussian elimination on the dense matrix."""
    n = len(entries)
    rows = [[Fraction(-entries[i]) if i == j else Fraction(int(abs(i - j) == 1))
             for j in range(n)] for i in range(n)]
    minors = []
    for k in range(1, n + 1):
        m = [row[:k] for row in rows[:k]]
        det = Fraction(1)
        for c in range(k):
            pivot = next((r for r in range(c, k) if m[r][c] != 0), None)
            if pivot is None:
                det = Fraction(0)
                break
            if pivot != c:
                m[c], m[pivot] = m[pivot], m[c]
                det = -det
            det *= m[c][c]
            for r in range(c + 1, k):
                f = m[r][c] / m[c][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
        minors.append(int(det))
    return minors


def test_tridiagonal_minors_match_elimination():
    rng = random.Random(5)
    for _ in range(40):
        entries = [rng.randint(1, 6) for _ in range(rng.randint(1, 9))]
        assert oracles.tridiagonal_minors(entries) == _minors_by_elimination(entries)


def test_definiteness_rejects():
    assert not oracles.chain_is_negative_definite([2, 1, 2])  # D3 = 0
    assert not oracles.chain_is_negative_definite([1, 1])     # D2 = 0
    assert oracles.chain_is_negative_definite([2] * 50)


def test_totient_and_counts():
    assert oracles.totient(1) == 1
    for n in range(2, 400):
        assert oracles.totient(n) == sum(1 for m in range(1, n) if gcd(m, n) == 1)
        assert len(oracles.coprime_residues(n)) == oracles.totient(n)
    pairs = sum(1 for p in range(2, 31) for q in range(1, p) if gcd(p, q) == 1)
    assert oracles.wahl_pair_count(30) == pairs


def test_scenario_chains_reads_the_chains_section():
    text = "[chains]\nchain = 6,2,2 expect 4,1\n[cover]\nchain = 5,2\n"
    assert scenario_chains(text) == [(6, 2, 2)]


def test_generator_chains_are_planted_wahl_chains():
    for p, q, entries in (scaled.CHAIN_SHORT, scaled.CHAIN_LONG):
        assert oracles.is_wahl(entries, p, q)
    assert [len(e) for _, _, e in (scaled.CHAIN_SHORT, scaled.CHAIN_LONG)] == [35, 100]
    assert gcd(scaled.CHAIN_SHORT[0], scaled.CHAIN_LONG[0]) == 1


def test_generator_is_seeded():
    assert scaled.generate(3) == scaled.generate(3)
    assert scaled.generate(3)[0] != scaled.generate(4)[0]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generator_facts(seed):
    _, facts = scaled.generate(seed)
    chains = [tuple(c["entries"]) for c in facts["chains"]]
    base = _Table(facts["base_final"])
    assert base.embedding_errors([c["embedding"] for c in facts["chains"]], chains) == []
    assert base.embedding_errors([facts["decoy"]], chains[:1]) == []
    # the decoy is found first and blocks the long chain
    assert facts["decoy"][0] < facts["chains"][0]["embedding"][0]
    assert any(base.pairing(facts["decoy"][0], c) for c in facts["chains"][1]["embedding"])
    cover = _Table(facts["cover_final"])
    cover_chains = [chains[1], chains[1], chains[0], chains[0]]
    assert cover.embedding_errors(facts["cover_embeddings"], cover_chains) == []
    after = facts["base_after"]
    assert after["K2"] == 2 * after["e"] + 3 * after["sigma"]
    cov = facts["cover_after"]
    assert all(cov[k] == 2 * after[k] for k in ("e", "sigma", "K2"))
    assert facts["base_curves"] > 300
    # pendants hang off interior chain curves, never the second or last-but-one
    index = {c: (i, len(ids)) for ids in [facts["decoy"]] + [ch["embedding"] for ch in
                                                           facts["chains"]]
             for i, c in enumerate(ids, start=1)}
    pendants = [(a, b) for a, b, _ in facts["base_final"]["pairings"] if "T" in (a[0], b[0])]
    assert len(pendants) == scaled.PENDANTS
    for a, b in pendants:
        i, length = index[b if a[0] == "T" else a]
        assert 3 <= i <= length - 2


def test_generated_scenario_verifies(tmp_path):
    """The program passes a generated scenario and every check holds."""
    workload = ScaledScenario(tmp_path, seed=1)
    stats = Stats()
    workload.setup(stats)
    workload.round(stats)
    assert stats.errors == []
    facts = json.loads((tmp_path / "scaled_1.facts.json").read_text())
    assert facts["base_after"]["pi1_order"] == 2
