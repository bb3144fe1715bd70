"""Exact sparse linear algebra over a prime field.

A column is a ``dict[int, int]``, a row index to a nonzero coefficient
mod p.  A pivot table maps a row to the normalised column whose lowest
(largest) nonzero row it is.  Columns are reduced in a fixed order and
pivot on their lowest row, so every result is reproducible.

The kernel copies nothing it is not asked to: the caller hands over each
column it reduces, which is reduced in place, and a reduced column whose
lowest coefficient is already 1 (every column over F_2) is filed as it is.
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
    """Subtract pivot columns from column, in place, until it is zero or its lowest row has no pivot.

    The caller hands the column over: it is changed, and returned.
    """
    while column:
        low = max(column)
        pivot = pivots.get(low)
        if pivot is None:
            break
        c = column[low]
        for r, v in pivot.items():
            x = (column.get(r, 0) - c * v) % p
            if x:
                column[r] = x
            else:
                del column[r]
    return column


def insert_pivot(column: Column, pivots: dict[int, Column], p: int) -> None:
    """File a nonzero reduced column under its lowest row, scaled to 1 there.

    A column whose lowest coefficient is already 1 is filed as it is, so
    the caller must not change it afterwards; any other is filed as a
    scaled copy.
    """
    low = max(column)
    if low in pivots:
        raise InternalError(f"row {low} already has a pivot; the column was not reduced")
    if column[low] != 1:
        inv = _inv_scalar(column[low], p)
        column = {r: v * inv % p for r, v in column.items()}
    pivots[low] = column
