"""Reference arithmetic the benchmark checks the program against.

Written apart from ``blowdown.hjcf`` and ``blowdown.lattice`` so that a
fault there cannot hide itself: every output check in the benchmark goes
through these functions, never through the program's own.
"""

from __future__ import annotations

from math import gcd


def continuant(entries) -> tuple[int, int]:
    """Value n/m of the chain [b1, ..., bl] = b1 - 1/(b2 - 1/(... - 1/bl)).

    Folded from the right starting at 1/0, so both terms stay coprime.
    """
    n, m = 1, 0
    for b in reversed(entries):
        n, m = b * n - m, n
    return n, m


def tridiagonal_minors(entries) -> list[int]:
    """Leading principal minors of the chain Gram matrix (diagonal -b, off-diagonal 1).

    D_0 = 1, D_1 = -b_1 and D_k = -b_k * D_{k-1} - D_{k-2}.
    """
    minors = [1]
    prev = 0
    for b in entries:
        prev, cur = minors[-1], -b * minors[-1] - prev
        minors.append(cur)
    return minors[1:]


def chain_is_negative_definite(entries) -> bool:
    """Sylvester's criterion on the tridiagonal minors: signs -, +, -, ..."""
    return all((d < 0) if k % 2 else (d > 0)
               for k, d in enumerate(tridiagonal_minors(entries), start=1))


def chain_determinant(entries) -> int:
    return tridiagonal_minors(entries)[-1]


def is_wahl(entries, p: int, q: int) -> bool:
    """The chain is C(p, q): its value is p^2 / (pq - 1) and its entries sum to 3l + 1."""
    return (continuant(entries) == (p * p, p * q - 1)
            and sum(entries) == 3 * len(entries) + 1
            and abs(chain_determinant(entries)) == p * p)


def totient(n: int) -> int:
    """Euler's phi by trial-division factorisation."""
    result, rest, f = n, n, 2
    while f * f <= rest:
        if rest % f == 0:
            while rest % f == 0:
                rest //= f
            result -= result // f
        f += 1
    if rest > 1:
        result -= result // rest
    return result


def coprime_residues(n: int) -> list[int]:
    """All 0 < m < n with gcd(m, n) = 1, in increasing order."""
    return [m for m in range(1, n) if gcd(m, n) == 1]


def wahl_pair_count(max_p: int) -> int:
    """Number of Wahl chains C(p, q) with 2 <= p <= max_p: the sum of phi(p)."""
    return sum(totient(p) for p in range(2, max_p + 1))
