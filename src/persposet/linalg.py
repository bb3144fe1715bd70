"""Exact linear algebra over a prime field: dense matrices and sparse columns.

Deterministic elimination (first nonzero entry in a fixed scan order is
the pivot) so that every basis and every induced matrix is reproducible.

The sparse kernel works on columns given as ``dict[int, int]``, a row
index to a nonzero coefficient mod p, and on pivot tables that map a
row to the normalised column whose lowest (largest) nonzero row it is.
"""

from __future__ import annotations

import numpy as np

from .errors import InternalError

Column = dict[int, int]  # sparse column: row index -> nonzero coefficient mod p


def normalize(a: np.ndarray, p: int) -> np.ndarray:
    return np.mod(np.asarray(a, dtype=np.int64), p)


def zeros(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=np.int64)


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    return np.mod(a @ b, p)


def _inv_scalar(x: int, p: int) -> int:
    return pow(int(x), p - 2, p)


def row_reduce(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and the pivot column list."""
    m = normalize(a, p).copy()
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
        m[r] = np.mod(m[r] * _inv_scalar(m[r, c], p), p)
        other = np.nonzero(m[:, c])[0]
        for j in other:
            if j != r:
                m[j] = np.mod(m[j] - m[j, c] * m[r], p)
        pivots.append(c)
        r += 1
    return m, pivots


def rank(a: np.ndarray, p: int) -> int:
    if a.size == 0:
        return 0
    return len(row_reduce(a, p)[1])


def nullspace(a: np.ndarray, p: int) -> np.ndarray:
    """Columns form a deterministic basis of the kernel."""
    a = normalize(a, p)
    rows, cols = a.shape
    if cols == 0:
        return zeros(0, 0)
    red, pivots = row_reduce(a, p)
    free = [c for c in range(cols) if c not in set(pivots)]
    basis = zeros(cols, len(free))
    for k, fc in enumerate(free):
        basis[fc, k] = 1
        for r, pc in enumerate(pivots):
            basis[pc, k] = (-red[r, fc]) % p
    return basis


def solve(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray | None:
    """One solution of a x = b (free variables zero), or None if inconsistent."""
    a = normalize(a, p)
    b = normalize(b.reshape(-1, 1), p)
    aug = np.hstack([a, b])
    red, pivots = row_reduce(aug, p)
    if a.shape[1] in pivots:
        return None
    x = zeros(a.shape[1], 1)
    for r, pc in enumerate(pivots):
        x[pc, 0] = red[r, -1]
    return x[:, 0]


def solve_matrix(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray | None:
    """Columnwise solve of a X = b; None if any column is inconsistent."""
    cols = []
    for j in range(b.shape[1]):
        x = solve(a, b[:, j], p)
        if x is None:
            return None
        cols.append(x)
    if not cols:
        return zeros(a.shape[1], 0)
    return np.stack(cols, axis=1)


def column_space_basis(a: np.ndarray, p: int) -> np.ndarray:
    """The pivot columns of a, as a deterministic basis of the column space."""
    a = normalize(a, p)
    if a.size == 0:
        return zeros(a.shape[0], 0)
    _, pivots = row_reduce(a, p)
    return a[:, pivots] if pivots else zeros(a.shape[0], 0)


def reduce_column(column: Column, pivots: dict[int, Column], p: int) -> Column:
    """A new column: column minus pivot columns until it is zero or its lowest row has no pivot."""
    col = dict(column)
    while col:
        low = max(col)
        pivot = pivots.get(low)
        if pivot is None:
            break
        c = col[low]
        for r, v in pivot.items():
            x = (col.get(r, 0) - c * v) % p
            if x:
                col[r] = x
            else:
                del col[r]
    return col


def insert_pivot(column: Column, pivots: dict[int, Column], p: int) -> None:
    """File a nonzero reduced column, scaled to 1 at its lowest row, under that row."""
    low = max(column)
    if low in pivots:
        raise InternalError(f"row {low} already has a pivot; the column was not reduced")
    inv = _inv_scalar(column[low], p)
    pivots[low] = {r: v * inv % p for r, v in column.items()}
