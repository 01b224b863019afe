import itertools
import math
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from blowdown.cli import main
from blowdown.hjcf import (Chain, WahlParams, dual_chain, hj_eval, hj_expand,
                           tchain_children, wahl_chain, wahl_closure,
                           wahl_family, wahl_recognize, wahl_texts)


def entries(c):
    return list(c.entries)


class TestChainType:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Chain(())

    def test_rejects_small_entries(self):
        with pytest.raises(ValueError):
            Chain((2, 1, 3))

    def test_rejects_non_integers(self):
        with pytest.raises(ValueError):
            Chain((2, 2.5))

    def test_immutable(self):
        c = Chain((2, 3))
        with pytest.raises(AttributeError):
            c.entries = (4,)

    def test_equality_and_hash(self):
        assert Chain((2, 3)) == Chain((2, 3))
        assert Chain((2, 3)) != Chain((3, 2))
        assert len({Chain((4,)), Chain((4,))}) == 1


class TestExpand:
    def test_single_step(self):
        assert entries(hj_expand(4, 1)) == [4]

    def test_c19_13(self):
        # (19^2, 19*13 - 1)
        assert entries(hj_expand(361, 246)) == [2, 2, 9, 2, 2, 2, 2, 4]

    def test_c151_31(self):
        assert entries(hj_expand(22801, 4680)) == [5, 8, 6, 2, 3, 2, 2, 2, 2, 2, 3, 2, 2, 2]

    def test_two_twos(self):
        assert entries(hj_expand(3, 2)) == [2, 2]

    def test_matches_ceiling_steps(self):
        # the blockwise expansion against b = ceil(n/m), n/m -> m/(b*m - n)
        def stepwise(n, m):
            out = []
            while m:
                b = -(-n // m)
                out.append(b)
                n, m = m, b * m - n
            return out

        for n in range(2, 300):
            for m in range(1, n):
                if math.gcd(n, m) == 1:
                    assert entries(hj_expand(n, m)) == stepwise(n, m), (n, m)
        assert entries(hj_expand(10**6 + 1, 10**6)) == [2] * 10**6

    @pytest.mark.parametrize("n, m", [(4, 4), (3, 0), (2, 3), (6, 4), (10, 5)])
    def test_rejects_malformed(self, n, m):
        with pytest.raises(ValueError):
            hj_expand(n, m)


class TestEval:
    def test_single(self):
        assert hj_eval([4]) == (4, 1)

    def test_c73_50(self):
        # cross-check 5329 = 73^2 and 3649 = 73*50 - 1
        n, m = hj_eval([2, 2, 7, 6, 2, 3, 2, 2, 2, 2, 4])
        assert (n, m) == (5329, 3649)
        assert n == 73 * 73 and m == 73 * 50 - 1

    def test_two_twos(self):
        assert hj_eval([2, 2]) == (3, 2)

    def test_accepts_chain_object(self):
        assert hj_eval(Chain((2, 2))) == (3, 2)


class TestWahlRecognize:
    def test_c19_13(self):
        assert wahl_recognize([2, 2, 9, 2, 2, 2, 2, 4]) == WahlParams(19, 13)

    def test_c4_1(self):
        assert wahl_recognize([6, 2, 2]) == WahlParams(4, 1)

    def test_non_square(self):
        assert wahl_recognize([2, 2]) is None

    def test_four(self):
        assert wahl_recognize([4]) == WahlParams(2, 1)

    def test_square_but_bad_q(self):
        # 9/1 = [9]: m + 1 = 2 not divisible by p = 3
        assert wahl_recognize([9]) is None


class TestWahlChain:
    def test_c151_31(self):
        assert entries(wahl_chain(151, 31)) == [5, 8, 6, 2, 3, 2, 2, 2, 2, 2, 3, 2, 2, 2]

    def test_seed(self):
        assert entries(wahl_chain(2, 1)) == [4]

    def test_c73_50(self):
        assert entries(wahl_chain(73, 50)) == [2, 2, 7, 6, 2, 3, 2, 2, 2, 2, 4]

    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            wahl_chain(6, 2)

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            wahl_chain(5, 5)


class TestChildren:
    def test_seed_children(self):
        left, right = tchain_children([4])
        assert entries(left) == [2, 5]
        assert entries(right) == [5, 2]
        assert wahl_recognize(left) == WahlParams(3, 2)
        assert wahl_recognize(right) == WahlParams(3, 1)

    def test_five_two(self):
        left, right = tchain_children([5, 2])
        assert entries(left) == [2, 5, 3]
        assert entries(right) == [6, 2, 2]
        assert wahl_recognize(right) == WahlParams(4, 1)

    def test_two_five(self):
        left, right = tchain_children([2, 5])
        assert entries(left) == [2, 2, 6]
        assert wahl_recognize(left) is not None
        assert wahl_recognize(right) is not None

    def test_rejects_non_wahl(self):
        with pytest.raises(ValueError):
            tchain_children([2, 2])


class TestDual:
    def test_four(self):
        assert entries(dual_chain([4])) == [2, 2, 2]

    def test_two_twos(self):
        assert entries(dual_chain([2, 2])) == [3]

    def test_involution_on_paper_chain(self):
        c = Chain((2, 2, 9, 2, 2, 2, 2, 4))
        assert dual_chain(dual_chain(c)) == c

    def test_all_twos_dual(self):
        for k in range(1, 9):
            assert entries(dual_chain([2] * k)) == [k + 1]


class TestProperties:
    def test_round_trip_small(self):
        for n in range(2, 150):
            for m in range(1, n):
                if math.gcd(n, m) == 1:
                    assert hj_eval(hj_expand(n, m)) == (n, m)

    def test_wahl_round_trip_p_to_60(self):
        for p in range(2, 61):
            for q in range(1, p):
                if math.gcd(p, q) == 1:
                    assert wahl_recognize(wahl_chain(p, q)) == WahlParams(p, q)

    def test_entry_sum_class_t(self):
        # every Wahl chain has entry sum 3l + 1; spot-check across p
        for w, chain in wahl_family(40):
            assert sum(chain.entries) == 3 * len(chain) + 1

    def test_grammar_closure_small(self):
        # closure to length 6 equals the recognizer-enumerated set
        closure = wahl_closure(6)
        found = set()
        for length in range(1, 7):
            total = 3 * length + 1
            for comp in _compositions(total, length):
                if wahl_recognize(comp) is not None:
                    found.add(comp)
        assert found == closure

    @given(st.integers(2, 2000), st.integers(1, 1999))
    @settings(max_examples=300, deadline=None)
    def test_round_trip_hypothesis(self, n, m):
        if m >= n or math.gcd(n, m) != 1:
            return
        assert hj_eval(hj_expand(n, m)) == (n, m)

    @given(st.lists(st.integers(2, 12), min_size=1, max_size=9))
    @settings(max_examples=300, deadline=None)
    def test_eval_expand_inverse_on_chains(self, bs):
        n, m = hj_eval(bs)
        assert hj_expand(n, m) == Chain(tuple(bs))

    @given(st.lists(st.integers(2, 9), min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_duality_involution(self, bs):
        c = Chain(tuple(bs))
        assert dual_chain(dual_chain(c)) == c


class TestWahlFamily:
    """wahl_family expands the pairs with 2q <= p and reverses the others."""

    def test_matches_wahl_chain(self):
        pairs = [(p, q) for p in range(2, 151) for q in range(1, p) if math.gcd(p, q) == 1]
        assert list(wahl_family(150)) == [(WahlParams(p, q), wahl_chain(p, q))
                                          for p, q in pairs]

    def test_entries_at_most_p_plus_2(self):
        # the bound the atlas's table of entry strings relies on
        for w, chain in wahl_family(150):
            assert max(chain.entries) <= w.p + 2
        assert max(wahl_chain(150, 1).entries) == 152

    def test_atlas_row_count_is_totient_sum(self, capsys):
        def phi(n):
            result, rest = n, n
            for f in range(2, n + 1):
                if rest % f == 0:
                    result -= result // f
                    while rest % f == 0:
                        rest //= f
            return result

        assert main(["chains", "--max-p", "40", "--max-length", "1000"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == sum(phi(p) for p in range(2, 41)) == 489


class TestWahlTexts:
    """wahl_texts writes the chains of wahl_family as text."""

    def test_matches_wahl_family(self):
        assert list(wahl_texts(150)) == [(w.p, w.q, len(c), ",".join(map(str, c)))
                                         for w, c in wahl_family(150)]

    def test_length_and_run_bounds(self):
        # the bounds wahl_texts's tables of entry strings and runs rely on
        for w, chain in wahl_family(250):
            runs = [len(list(run)) for b, run in itertools.groupby(chain) if b == 2]
            assert len(chain) <= w.p - 1
            assert max(runs, default=0) <= w.p - 2


@pytest.fixture(scope="module")
def family_300():
    return [(w.p, w.q, len(c), ",".join(map(str, c))) for w, c in wahl_family(300)]


class TestWahlTree:
    """wahl_texts walks the tchain_children tree, pruned by p and by length."""

    @pytest.mark.parametrize("max_p", [2, 3, 7, 60, 300])
    def test_bounds_match_filtered_family(self, family_300, max_p):
        for max_length in [*range(1, 13), None]:
            want = [row for row in family_300 if row[0] <= max_p
                    and (max_length is None or row[2] <= max_length)]
            assert list(wahl_texts(max_p, max_length)) == want, max_length

    def test_rows_have_tchain_children(self):
        rows = {(p, q): (length, text) for p, q, length, text in wahl_texts(240)}
        for (p, q), (length, text) in rows.items():
            if p > 120:
                continue
            left, right = tchain_children(Chain(int(b) for b in text.split(",")))
            assert rows[2 * p - q, p] == (length + 1, ",".join(map(str, left)))
            assert rows[p + q, q] == (length + 1, ",".join(map(str, right)))

    def test_length_is_partial_quotient_sum_minus_one(self):
        for p, q, length, _ in wahl_texts(300):
            total, n, m = 0, p, q
            while m:
                total += n // m
                n, m = m, n % m
            assert length == total - 1, (p, q)

    def test_short_atlas_memory_follows_output(self):
        tracemalloc.start()
        try:
            rows = list(wahl_texts(3000, 6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rows) == 63
        assert peak < 1 << 20


def _compositions(total, parts, minimum=2):
    """All tuples of `parts` integers >= minimum summing to total."""
    if parts == 1:
        if total >= minimum:
            yield (total,)
        return
    for first in range(minimum, total - minimum * (parts - 1) + 1):
        for rest in _compositions(total - first, parts - 1, minimum):
            yield (first,) + rest
