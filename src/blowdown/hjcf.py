"""Hirzebruch-Jung continued fractions and Wahl chain recognition.

A *chain* is a finite sequence of integers b_1, ..., b_l, each >= 2,
encoding a linear plumbing of 2-spheres with self-intersections -b_i.
Its value is the negative (ceiling-type) continued fraction

    n/m = b_1 - 1/(b_2 - 1/( ... - 1/b_l)),

always a fraction n/m > 1 in lowest terms.  A chain is a *Wahl chain*
when n = p^2 and m = p*q - 1 for coprime 0 < q < p; such chains are the
minimal resolutions of the cyclic quotient singularities 1/p^2(1, pq-1),
which admit rational-ball smoothings.  All arithmetic here is exact.

The (p, q) <-> chain correspondence follows the standard convention for
the singularity 1/p^2(1, pq-1); see e.g. Kawamata / Koll'ar-Shepherd-Barron
on class-T singularities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence


class Chain:
    """Linear plumbing chain; entries[i] = b_i means a sphere of square -b_i.

    Immutable value type.  Kept as a plain class with __slots__: chains are
    created millions of times in the property sweeps.
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        entries = tuple(entries)
        if not entries:
            raise ValueError("chain must be nonempty")
        if min(entries) < 2 or any(type(b) is not int for b in entries):
            raise ValueError(f"chain entries must be integers >= 2, got {list(entries)}")
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("Chain is immutable")

    def __eq__(self, other):
        if isinstance(other, Chain):
            return self.entries == other.entries
        return NotImplemented

    def __hash__(self):
        return hash(("Chain", self.entries))

    def __repr__(self) -> str:
        return f"Chain({list(self.entries)!r})"

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __str__(self) -> str:
        return "[" + ",".join(str(b) for b in self.entries) + "]"


@dataclass(frozen=True)
class WahlParams:
    """Parameters (p, q) of the Wahl singularity 1/p^2(1, pq-1)."""

    p: int
    q: int

    def __post_init__(self):
        if self.p < 2 or not (0 < self.q < self.p):
            raise ValueError(f"need p >= 2 and 0 < q < p, got ({self.p}, {self.q})")
        if math.gcd(self.p, self.q) != 1:
            raise ValueError(f"p and q must be coprime, got ({self.p}, {self.q})")

    def __str__(self) -> str:
        return f"({self.p},{self.q})"


def as_chain(c: "Chain | Sequence[int]") -> Chain:
    if isinstance(c, Chain):
        return c
    return Chain(tuple(c))


_CHAIN_NEW = Chain.__new__
_SETATTR = object.__setattr__
_gcd = math.gcd


def hj_expand(n: int, m: int) -> Chain:
    """Expand n/m > 1 (coprime) into its Hirzebruch-Jung chain.

    Each HJ step takes b = ceil(n/m) and recurses on m / (b*m - n); long
    runs of 2s make that linear in n.  Instead this walks the regular
    continued fraction n/m = [a_1; a_2, ..., a_k] (Euclid, O(log n) steps)
    and writes the chain blockwise:

        [a_1 + 1, 2 * (a_2 - 1), a_3 + 2, 2 * (a_4 - 1), ...]

    where "2 * j" is a run of j 2s and the final odd-position term is
    a_k + 1 rather than a_k + 2 (and a_1 alone when k = 1).
    """
    if m <= 0 or n <= m:
        raise ValueError(f"need 0 < m < n, got n={n}, m={m}")
    if _gcd(n, m) != 1:
        raise ValueError(f"n and m must be coprime, got n={n}, m={m}")
    q, r = divmod(n, m)
    if not r:
        out = [q]
    else:
        out = [q + 1]
        n, m = m, r
        while True:
            # even position a_2, a_4, ...: a run of a - 1 twos
            q, r = divmod(n, m)
            out += [2] * (q - 1)
            if not r:
                break
            n, m = m, r
            # odd position a_3, a_5, ...
            q, r = divmod(n, m)
            if not r:
                out.append(q + 1)
                break
            out.append(q + 2)
            n, m = m, r
    chain = _CHAIN_NEW(Chain)
    _SETATTR(chain, "entries", tuple(out))
    return chain


def hj_eval(c: "Chain | Sequence[int]") -> tuple[int, int]:
    """Evaluate a chain bottom-up; returns (n, m) in lowest terms with n/m > 1."""
    try:
        entries = c.entries
    except AttributeError:
        entries = as_chain(c).entries
    # value = b - m/n applied right to left, tracked as a fraction n/m
    it = reversed(entries)
    n = next(it)
    m = 1
    for b in it:
        n, m = b * n - m, n
    # continuant recurrences of coprime seeds stay coprime
    return n, m


def wahl_recognize(c: "Chain | Sequence[int]") -> Optional[WahlParams]:
    """Return (p, q) if the chain resolves 1/p^2(1, pq-1), else None."""
    return wahl_params(*hj_eval(c))


def wahl_params(n: int, m: int) -> Optional[WahlParams]:
    """(p, q) if n/m = p^2/(pq - 1), the value of a Wahl chain, else None."""
    p = math.isqrt(n)
    if p * p != n:
        return None
    # m = p*q - 1 for an integer 0 < q < p coprime to p
    if (m + 1) % p != 0:
        return None
    q = (m + 1) // p
    if not (0 < q < p) or math.gcd(p, q) != 1:
        return None
    return WahlParams(p, q)


def wahl_chain(p: int, q: int) -> Chain:
    """The chain C_{p,q}: HJ expansion of p^2 / (pq - 1)."""
    WahlParams(p, q)  # validates
    return hj_expand(p * p, p * q - 1)


def tchain_children(c: "Chain | Sequence[int]") -> tuple[Chain, Chain]:
    """The two class-T augmentations of a Wahl chain.

    [b_1,...,b_l] -> ([2, b_1, ..., b_l + 1], [b_1 + 1, b_2, ..., b_l, 2]);
    both children are again Wahl chains.
    """
    chain = as_chain(c)
    if wahl_recognize(chain) is None:
        raise ValueError(f"{chain} is not a Wahl chain")
    e = chain.entries
    left = Chain((2,) + e[:-1] + (e[-1] + 1,))
    right = Chain((e[0] + 1,) + e[1:] + (2,))
    return left, right


def dual_chain(c: "Chain | Sequence[int]") -> Chain:
    """Riemenschneider dual: the chain of n/(n-m) for a chain of value n/m."""
    n, m = hj_eval(c)
    return hj_expand(n, n - m)


def wahl_family(max_p: int) -> Iterator[tuple[WahlParams, Chain]]:
    """All Wahl chains with 2 <= p <= max_p, in (p, q) lexicographic order.

    Only the pairs with 2q <= p are expanded.  A reversed chain of value n/m
    has value n/m' with m * m' = 1 (mod n), and

        (pq - 1)(p(p - q) - 1) = p^2 (q(p - q) - 1) + 1 = 1 (mod p^2),

    so for 2q > p the chain C(p, q) is C(p, p - q) reversed.
    """
    for p in range(2, max_p + 1):
        pp = p * p
        half = {}  # q -> entries of C(p, q), for 2q <= p
        for q in range(1, p):
            if _gcd(p, q) != 1:
                continue
            if 2 * q <= p:
                chain = hj_expand(pp, p * q - 1)
                half[q] = chain.entries
            else:
                chain = _CHAIN_NEW(Chain)
                _SETATTR(chain, "entries", half[p - q][::-1])
            yield WahlParams(p, q), chain


def wahl_texts(max_p: int, max_length: Optional[int] = None
               ) -> Iterator[tuple[int, int, int, str]]:
    """(p, q, length, text) for the chains of wahl_family, in the same order.

    text is the chain of C(p, q) joined by commas; with max_length given,
    only chains of at most that many entries are yielded.  Every Wahl chain
    grows from [4] = C(2, 1) by the two moves of tchain_children:

        C(p + q, q)  = [b_1 + 1, b_2, ..., b_l, 2]
        C(2p - q, p) = [2, b_1, ..., b_l + 1]

    each with a larger p and one more entry, and each chain is reached once.
    So the walk keeps the pending chains of each p, takes p upwards and q
    upwards within it, and writes a child's text from its parent's by
    changing one end entry and adding a 2.  Both bounds prune the tree, so
    the cost follows the output.  A chain of p has at most p - 1 entries,
    each at most p + 2: so max_length = max_p bounds nothing, and num holds
    the string of every entry.
    """
    if max_length is None:
        max_length = max_p
    num = [str(b) for b in range(max_p + 3)]
    # pending[p]: (q, first entry, last entry, length, text) of C(p, q)
    pending = [[] for _ in range(max_p + 1)]
    if max_p >= 2:
        pending[2].append((1, 4, 4, 1, "4"))
    for p in range(2, max_p + 1):
        nodes = pending[p]
        pending[p] = None
        nodes.sort()
        # C(p + q, q) fits for q <= room, C(2p - q, p) for q >= p - room
        room = max_p - p
        for q, first, last, length, text in nodes:
            yield p, q, length, text
            if length == max_length:
                continue
            if q <= room:
                text_r = num[first + 1] + text[len(num[first]):] + ",2"
                pending[p + q].append((q, first + 1, 2, length + 1, text_r))
            if q >= p - room:
                text_l = "2," + text[:len(text) - len(num[last])] + num[last + 1]
                pending[2 * p - q].append((p, 2, last + 1, length + 1, text_l))


def wahl_closure(max_length: int) -> set[tuple[int, ...]]:
    """Closure of {[4]} under tchain_children, cut off at the given length."""
    seed = (4,)
    seen: set[tuple[int, ...]] = {seed}
    frontier = [seed]
    while frontier:
        nxt = []
        for t in frontier:
            if len(t) + 1 > max_length:
                continue
            for child in tchain_children(Chain(t)):
                if child.entries not in seen:
                    seen.add(child.entries)
                    nxt.append(child.entries)
        frontier = nxt
    return seen
