"""Exact integer intersection-lattice algebra.

Gram matrices of curve collections, fraction-free determinants,
negative-definiteness by leading principal minors (O(n) on the tridiagonal
matrix of a chain), and the order of the first homology of a linear plumbing
boundary (a lens space: the chain's continuant).  Everything is integer
arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .hjcf import Chain, as_chain, hj_eval


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric integer matrix with a declared row/column labelling."""

    ids: tuple[str, ...]
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.ids)
        if len(self.rows) != n or any(len(r) != n for r in self.rows):
            raise ValueError("matrix shape does not match id list")
        for i in range(n):
            for j in range(i, n):
                if self.rows[i][j] != self.rows[j][i]:
                    raise ValueError("matrix is not symmetric")

    @property
    def n(self) -> int:
        return len(self.ids)

    def __str__(self) -> str:
        return "\n".join(" ".join(f"{x:4d}" for x in row) for row in self.rows)


def gram(config, ids: Sequence[str]) -> GramMatrix:
    """Gram matrix of the listed curves: diagonal C.C, off-diagonal pairings.

    Each row is filled from the curve's neighbours, not from a scan of the
    whole pairing table.
    """
    pos: dict[str, int] = {}
    for i, cid in enumerate(ids):
        if cid in pos:
            raise KeyError(f"duplicate curve id {cid!r}")
        if cid not in config.curves:
            raise KeyError(f"unknown curve id {cid!r}")
        pos[cid] = i
    near = config.neighbours
    rows = []
    for i, cid in enumerate(ids):
        row = [0] * len(ids)
        row[i] = config.curves[cid].self_int
        for other, v in near[cid].items():
            j = pos.get(other)
            if j is not None:
                row[j] = v
        rows.append(tuple(row))
    return GramMatrix(tuple(ids), tuple(rows))


def chain_gram(c: "Chain | Sequence[int]") -> GramMatrix:
    """Tridiagonal Gram matrix of a bare chain (diagonal -b_i, off-diagonal 1)."""
    entries = as_chain(c).entries
    n = len(entries)
    rows = []
    for i in range(n):
        row = [0] * n
        row[i] = -entries[i]
        if i > 0:
            row[i - 1] = 1
        if i < n - 1:
            row[i + 1] = 1
        rows.append(tuple(row))
    ids = tuple(f"c{i + 1}" for i in range(n))
    return GramMatrix(ids, tuple(rows))


def _det_rows(rows: Sequence[Sequence[int]], definite: bool = False) -> int:
    """Bareiss fraction-free elimination; exact integer determinant.

    Without a row swap the k-th pivot is the k-th leading principal minor
    (Bareiss 1968).  With definite=True no row is swapped and the result is
    0 at the first minor that breaks the sign pattern -, +, -, ... of a
    negative definite matrix, so a nonzero result means negative definite.
    """
    n = len(rows)
    if n == 0:
        return 1
    m = [list(row) for row in rows]
    sign = 1
    prev = 1
    for k in range(n):
        if definite:
            if m[k][k] == 0 or (m[k][k] < 0) != (k % 2 == 0):
                return 0
        elif m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        top = m[k]
        for i in range(k + 1, n):
            row = m[i]
            head = row[k]
            if head:
                for j in range(k + 1, n):
                    row[j] = (pivot * row[j] - head * top[j]) // prev
                row[k] = 0
            else:
                # Bareiss still rescales zero-head rows; zeros stay zero
                for j in range(k + 1, n):
                    v = row[j]
                    if v:
                        row[j] = (pivot * v) // prev
        prev = pivot
    return sign * m[n - 1][n - 1]


def det_exact(g: GramMatrix) -> int:
    return _det_rows(g.rows)


def is_negative_definite(g: GramMatrix) -> bool:
    """Leading principal minors alternate in sign starting negative.

    On a tridiagonal matrix the minors are the continuants
    D_k = a_k D_{k-1} - c_k^2 D_{k-2}; otherwise one Bareiss pass.
    """
    rows = g.rows
    if any(any(row[k + 2:]) for k, row in enumerate(rows)):  # not tridiagonal
        return _det_rows(rows, definite=True) != 0
    return _tridiagonal_definite([row[k] for k, row in enumerate(rows)],
                                 [row[k - 1] if k else 0 for k, row in enumerate(rows)])


def _tridiagonal_definite(diagonal: Sequence[int], below: Sequence[int]) -> bool:
    """The continuant test; below[k] is the entry left of diagonal[k] (below[0] unused)."""
    before, minor = 0, 1
    for k, (a, c) in enumerate(zip(diagonal, below)):
        before, minor = minor, a * minor - c * c * before
        if minor == 0 or (minor < 0) != (k % 2 == 0):
            return False
    return True


def curves_definite(config, ids: Sequence[str]) -> bool:
    """Whether the Gram matrix of the listed curves is negative definite.

    When only consecutive curves pair (every chain embedding), the matrix
    is tridiagonal and the continuants are read off the neighbour map;
    otherwise the Gram matrix goes through is_negative_definite.
    """
    near, pos = config.neighbours, {cid: i for i, cid in enumerate(ids)}
    if len(pos) < len(ids) or any(abs(pos.get(other, i) - i) > 1
                                  for i, cid in enumerate(ids) for other in near[cid]):
        return is_negative_definite(gram(config, ids))
    return _tridiagonal_definite([config.curves[cid].self_int for cid in ids],
                                 [near[cid].get(ids[i - 1], 0) if i else 0
                                  for i, cid in enumerate(ids)])


def boundary_group_order(c: "Chain | Sequence[int]") -> int:
    """|H_1| of the plumbing boundary lens space: |det| of the chain Gram matrix.

    That is the continuant numerator n of the chain's value n/m, computed
    in O(n); for a Wahl chain C_{p,q} it is p^2.
    """
    return hj_eval(c)[0]
