import random

import pytest

from blowdown.configuration import Configuration, Curve, InvariantSet
from blowdown.hjcf import WahlParams, wahl_chain
from blowdown.surgery import (SurgeryError, chain_facts, rational_blowdown,
                              smoothing_ledger)


def config_with_chain(entries, prefix="c", e=27, sigma=-23):
    """A configuration containing one bare chain with the given entries."""
    curves = {}
    pairings = {}
    ids = []
    for i, b in enumerate(entries):
        cid = f"{prefix}{i}"
        k = -2 + b  # adjunction for a smooth rational curve
        curves[cid] = Curve(cid, self_int=-b, k_degree=k)
        if i > 0:
            pairings[(min(cid, ids[-1]), max(cid, ids[-1]))] = 1
        ids.append(cid)
    ambient = InvariantSet.from_base(e=e, sigma=sigma, pg=0, q=0)
    return Configuration(curves, pairings, ambient, 2), ids


def merge(a, b):
    curves = dict(a.curves)
    curves.update(b.curves)
    pairings = dict(a.pairings)
    pairings.update(b.pairings)
    return Configuration(curves, pairings, a.ambient, a.pi1_order)


class TestRationalBlowdown:
    def test_section2_numbers(self):
        c1, ids1 = config_with_chain(wahl_chain(73, 50).entries, "a")
        c2, ids2 = config_with_chain(wahl_chain(19, 13).entries, "b")
        cfg = merge(c1, c2)
        result = rational_blowdown(cfg, chain_facts(cfg, [ids1, ids2]))
        after = result.after
        assert (after.e, after.sigma, after.k2) == (8, -4, 4)
        assert (after.b2, after.b2_plus, after.b2_minus) == (6, 1, 5)
        assert result.total_length == 19
        assert result.pieces == ((WahlParams(73, 50), 11), (WahlParams(19, 13), 8))

    def test_section4_numbers(self):
        c1, ids1 = config_with_chain(wahl_chain(151, 31).entries, "a",
                                     e=24, sigma=-20)
        c2, ids2 = config_with_chain(wahl_chain(4, 1).entries, "b",
                                     e=24, sigma=-20)
        cfg = merge(c1, c2)
        after = rational_blowdown(cfg, chain_facts(cfg, [ids1, ids2])).after
        assert (after.e, after.sigma, after.k2) == (7, -3, 5)
        assert (after.b2, after.b2_plus) == (5, 1)

    def test_empty_is_identity(self):
        cfg, _ = config_with_chain([4])
        result = rational_blowdown(cfg, chain_facts(cfg, []))
        assert result.before == result.after

    def test_rejects_non_wahl(self):
        cfg, ids = config_with_chain([2, 2])
        with pytest.raises(SurgeryError, match="not a Wahl chain"):
            rational_blowdown(cfg, chain_facts(cfg, [ids]))

    def test_rejects_overlap(self):
        cfg, ids = config_with_chain(wahl_chain(2, 1).entries)
        with pytest.raises(SurgeryError, match="overlap"):
            rational_blowdown(cfg, chain_facts(cfg, [ids, ids]))

    def test_rejects_touching_chains(self):
        c1, ids1 = config_with_chain([4], "a")
        c2, ids2 = config_with_chain([4], "b")
        cfg = merge(c1, c2).with_pairing("a0", "b0", 1)
        with pytest.raises(SurgeryError, match="disjoint"):
            rational_blowdown(cfg, chain_facts(cfg, [ids1, ids2]))

    def test_rejects_chains_longer_than_b2_minus(self):
        # e = 12, sigma = -8 has b2- = 9: C(10,1) (length 9) fits, C(12,1) does not
        cfg, ids = config_with_chain(wahl_chain(10, 1).entries, e=12, sigma=-8)
        after = rational_blowdown(cfg, chain_facts(cfg, [ids])).after
        assert (after.e, after.sigma, after.b2_plus, after.b2_minus) == (3, 1, 1, 0)
        cfg, ids = config_with_chain(wahl_chain(12, 1).entries, e=12, sigma=-8)
        with pytest.raises(SurgeryError, match=r"^chains of total length 11 exceed b2- = 9$"):
            rational_blowdown(cfg, chain_facts(cfg, [ids]))

    def test_rejects_indefinite(self):
        # C(3,1) = [5,2] with its two curves meeting 4 times: det 10 - 16 < 0
        cfg, ids = config_with_chain(wahl_chain(3, 1).entries)
        cfg = cfg.with_pairing(ids[0], ids[1], 4)
        with pytest.raises(SurgeryError, match="not negative definite"):
            rational_blowdown(cfg, chain_facts(cfg, [ids]))

    def test_chain_facts(self):
        c1, ids1 = config_with_chain(wahl_chain(19, 13).entries, "a")
        c2, ids2 = config_with_chain([2, 2], "b")
        f1, f2 = chain_facts(merge(c1, c2), [ids1, ids2])
        assert (f1.ids, f1.entries) == (tuple(ids1), wahl_chain(19, 13).entries)
        assert (f1.params, f1.definite, f1.boundary_order) == (WahlParams(19, 13), True, 361)
        assert (f2.params, f2.definite, f2.boundary_order) == (None, True, 3)

    def test_rejects_unknown_ids(self):
        cfg, _ = config_with_chain([4])
        with pytest.raises(SurgeryError, match="unknown"):
            rational_blowdown(cfg, chain_facts(cfg, [["zzz"]]))

    def test_delta_rules_randomized(self):
        rng = random.Random(5)
        params = [(p, q) for p in range(2, 30) for q in range(1, p)
                  if __import__("math").gcd(p, q) == 1]
        for _ in range(50):
            p, q = rng.choice(params)
            chain = wahl_chain(p, q)
            # roomy ambient with b2+ = 1 before and after the surgery
            cfg, ids = config_with_chain(chain.entries, "x",
                                         e=len(chain) + 40,
                                         sigma=-(len(chain) + 36))
            r = rational_blowdown(cfg, chain_facts(cfg, [ids]))
            l = len(chain)
            assert r.after.k2 - r.before.k2 == l
            assert r.after.sigma - r.before.sigma == l
            assert r.before.e - r.after.e == l
            assert r.after.b2_plus == r.before.b2_plus
            assert r.after.k2 == 2 * r.after.e + 3 * r.after.sigma


class TestSmoothingLedger:
    def test_four_entries(self):
        cfg, ids = config_with_chain(wahl_chain(19, 13).entries)
        result = rational_blowdown(cfg, chain_facts(cfg, [ids]))
        ledger = smoothing_ledger(result)
        keys = [a.key for a in ledger]
        assert len(ledger) == 4
        assert "milnor_fiber" in keys

    def test_symplectic_cites_symington(self):
        cfg, ids = config_with_chain(wahl_chain(4, 1).entries, e=24, sigma=-20)
        ledger = smoothing_ledger(rational_blowdown(cfg, chain_facts(cfg, [ids])))
        entry = next(a for a in ledger if a.key == "symplectic_structure")
        assert "Symington" in entry.citation

    def test_empty_surgery_empty_ledger(self):
        cfg, _ = config_with_chain([4])
        assert smoothing_ledger(rational_blowdown(cfg, chain_facts(cfg, []))) == []
