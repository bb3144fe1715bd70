"""Exact sparse linear algebra over a prime field.

A column is a ``dict[int, int]``, a row index to a nonzero coefficient
mod p.  A pivot table maps a row to the normalised column whose lowest
(largest) nonzero row it is.  Columns are reduced in a fixed order and
pivot on their lowest row, so every result is reproducible.
"""

from __future__ import annotations

from typing import Sequence

from .errors import InternalError

Column = dict[int, int]  # sparse column: row index -> nonzero coefficient mod p


def _inv_scalar(x: int, p: int) -> int:
    return pow(int(x), p - 2, p)


def apply(columns: Sequence[Column], column: Column, p: int) -> Column:
    """The image of a sparse column under the matrix with the given sparse columns."""
    out: Column = {}
    for j, c in column.items():
        for r, v in columns[j].items():
            x = (out.get(r, 0) + c * v) % p
            if x:
                out[r] = x
            else:
                del out[r]
    return out


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
