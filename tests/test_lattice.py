import random

import pytest

from blowdown.configuration import Configuration, Curve, InvariantSet, preset
from blowdown.hjcf import wahl_chain, wahl_family
from blowdown.lattice import (GramMatrix, boundary_group_order, chain_gram,
                              curves_definite, det_exact, gram, is_negative_definite)


def dense(ids, rows):
    return GramMatrix(tuple(ids), tuple(tuple(r) for r in rows))


class TestGram:
    def test_singleton(self):
        g = chain_gram([4])
        assert g.rows == ((-4,),)

    def test_two_twos(self):
        g = chain_gram([2, 2])
        assert g.rows == ((-2, 1), (1, -2))

    def test_from_configuration(self):
        cfg = preset("enriques_kondo")
        g = gram(cfg, ["D1", "D2", "D3"])
        assert g.rows == ((-2, 1, 0), (1, -2, 1), (0, 1, -2))

    def test_unknown_id(self):
        cfg = preset("enriques_kondo")
        with pytest.raises(KeyError):
            gram(cfg, ["D1", "nope"])

    def test_duplicate_id(self):
        cfg = preset("enriques_kondo")
        with pytest.raises(KeyError):
            gram(cfg, ["D1", "D1"])

    def test_requires_symmetry(self):
        with pytest.raises(ValueError):
            dense(["a", "b"], [[-2, 1], [0, -2]])


def cofactor_det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * cofactor_det(minor)
    return total


class TestDeterminant:
    def test_wahl_19_13(self):
        g = chain_gram(wahl_chain(19, 13))
        assert abs(det_exact(g)) == 361

    def test_tridiagonal_recurrence(self):
        # all-(-2) chain of length k has det (-1)^k (k+1)
        for k in range(1, 13):
            g = chain_gram([2] * k)
            assert det_exact(g) == (-1) ** k * (k + 1)

    def test_singleton(self):
        assert det_exact(dense(["a"], [[-4]])) == -4

    def test_zero_matrix(self):
        assert det_exact(dense(["a", "b"], [[0, 0], [0, 0]])) == 0

    def test_against_cofactor_expansion(self):
        rng = random.Random(7)
        for _ in range(40):
            n = 5
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                rows[i][i] = rng.randint(-9, 9)
                for j in range(i + 1, n):
                    v = rng.randint(-9, 9)
                    rows[i][j] = rows[j][i] = v
            g = dense([f"c{i}" for i in range(n)], rows)
            assert det_exact(g) == cofactor_det([list(r) for r in rows])

    def test_needs_pivot_swap(self):
        g = dense(["a", "b"], [[0, 1], [1, 0]])
        assert det_exact(g) == -1


class TestDefiniteness:
    def test_paper_chains(self):
        for p, q in [(19, 13), (73, 50), (4, 1), (151, 31)]:
            assert is_negative_definite(chain_gram(wahl_chain(p, q)))

    def test_zero_not_definite(self):
        assert not is_negative_definite(dense(["a"], [[0]]))

    def test_two_twos(self):
        assert is_negative_definite(chain_gram([2, 2]))

    def test_positive_entry(self):
        assert not is_negative_definite(dense(["a", "b"], [[-2, 3], [3, -2]]))

    def test_matches_leading_minors(self):
        # Sylvester's criterion, each leading minor from its own det_exact
        rng = random.Random(5)
        seen = {True: 0, False: 0, "zero minor": 0}
        for trial in range(1500):
            tridiagonal = trial % 2 == 0
            n = rng.randint(1, 7)
            spread = rng.choice([1, 2, 4])
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                rows[i][i] = rng.randint(-2 * spread - 2, 1)
                for j in range(i + 1, min(i + 2, n) if tridiagonal else n):
                    rows[i][j] = rows[j][i] = rng.randint(-spread, spread)
            minors = [det_exact(dense("abcdefg"[:k], [r[:k] for r in rows[:k]]))
                      for k in range(1, n + 1)]
            expected = all(d != 0 and (d < 0) == (k % 2 == 1)
                           for k, d in enumerate(minors, 1))
            seen["zero minor"] += 0 in minors
            seen[expected] += 1
            assert is_negative_definite(dense("abcdefg"[:n], rows)) == expected, rows
        assert min(seen.values()) > 50

    def test_zero_minor_inside(self):
        # minors -1, 0, ...: the 2x2 minor vanishes, so not definite
        g = dense(["a", "b", "c"], [[-1, 1, 0], [1, -1, 1], [0, 1, -5]])
        assert not is_negative_definite(g)
        g = dense(["a", "b", "c"], [[-1, 1, 1], [1, -1, 0], [1, 0, -5]])
        assert not is_negative_definite(g)

    def test_long_chain(self):
        chain = wahl_chain(400, 1)
        assert len(chain) == 399
        assert is_negative_definite(chain_gram(chain))


def random_configuration(rng, n, tridiagonal):
    """n curves c0..c(n-1); only consecutive curves pair when tridiagonal."""
    ids = [f"c{i}" for i in range(n)]
    curves = {cid: Curve(cid, rng.randint(-7, 1)) for cid in ids}
    pairings = {}
    for i in range(n):
        for j in range(i + 1, min(i + 2, n) if tridiagonal else n):
            v = rng.choice([0, 0, 1, 1, 2, 3])
            if v:
                pairings[ids[i], ids[j]] = v
    ambient = InvariantSet.from_base(e=12, sigma=-8, pg=0)
    return Configuration(curves, pairings, ambient), ids


class TestCurvesDefinite:
    def test_matches_gram_matrix(self):
        rng = random.Random(11)
        seen = {True: 0, False: 0}
        for trial in range(1200):
            cfg, ids = random_configuration(rng, rng.randint(1, 7), trial % 3 != 0)
            rng.shuffle(ids)
            order = ids[:rng.randint(1, len(ids))]
            expected = is_negative_definite(gram(cfg, order))
            seen[expected] += 1
            assert curves_definite(cfg, order) == expected, (cfg.pairings, order)
        assert min(seen.values()) > 100

    def test_rows_come_from_neighbours(self):
        rng = random.Random(3)
        for _ in range(200):
            cfg, ids = random_configuration(rng, 6, False)
            rng.shuffle(ids)
            g = gram(cfg, ids[:4])
            assert all(g.rows[i][j] == (cfg.curves[a].self_int if i == j else cfg.pairing(a, b))
                       for i, a in enumerate(ids[:4]) for j, b in enumerate(ids[:4]))

    def test_long_chain_without_gram(self, monkeypatch):
        chain = wahl_chain(400, 1).entries
        ids = [f"c{i}" for i in range(len(chain))]
        curves = {cid: Curve(cid, -b) for cid, b in zip(ids, chain)}
        cfg = Configuration(curves, {(ids[i], ids[i + 1]) if ids[i] < ids[i + 1]
                                     else (ids[i + 1], ids[i]): 1
                                     for i in range(len(ids) - 1)},
                            InvariantSet.from_base(e=12, sigma=-8, pg=0))
        monkeypatch.setattr("blowdown.lattice.gram", None)  # the chain needs no Gram matrix
        assert curves_definite(cfg, ids)
        monkeypatch.undo()
        with pytest.raises(KeyError, match="duplicate"):  # a repeated id goes to gram
            curves_definite(cfg, ids[:1] + ids)


class TestBoundaryOrder:
    def test_c19(self):
        assert boundary_group_order([2, 2, 9, 2, 2, 2, 2, 4]) == 361

    def test_c73(self):
        assert boundary_group_order([2, 2, 7, 6, 2, 3, 2, 2, 2, 2, 4]) == 5329

    def test_lens_three(self):
        assert boundary_group_order([3]) == 3

    def test_matches_numerator_up_to_length_10(self):
        rng = random.Random(11)
        for _ in range(300):
            length = rng.randint(1, 10)
            chain = [rng.randint(2, 7) for _ in range(length)]
            assert boundary_group_order(chain) == abs(det_exact(chain_gram(chain)))

    def test_wahl_chains_give_p_squared(self):
        for w, chain in wahl_family(40):
            assert boundary_group_order(chain) == w.p * w.p
