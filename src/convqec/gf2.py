"""GF(2) linear algebra on bit-packed integer rows.

Rows are Python integers; column j is bit j.  Whole-row XORs are single
big-int operations, which keeps rank and membership computations fast at the
matrix sizes this package needs (a few hundred rows of a few hundred bits).
"""

from __future__ import annotations


class RowBasis:
    """Row space of a GF(2) matrix, kept in reduced form for fast queries.

    Each inserted row is reduced against the pivots collected so far; the
    basis also tracks, for every stored row, which original rows XOR to it,
    so membership queries can report the combination.
    """

    def __init__(self) -> None:
        self._pivots: dict[int, tuple[int, int]] = {}  # pivot bit -> (row, tag)
        self._count = 0

    def add(self, row: int) -> bool:
        """Insert a row; returns True if it enlarged the span."""
        tag = 1 << self._count
        self._count += 1
        row, tag = self._reduce(row, tag)
        if row == 0:
            return False
        self._pivots[row.bit_length() - 1] = (row, tag)
        return True

    def _reduce(self, row: int, tag: int) -> tuple[int, int]:
        while row:
            entry = self._pivots.get(row.bit_length() - 1)
            if entry is None:
                break
            row ^= entry[0]
            tag ^= entry[1]
        return row, tag

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def contains(self, row: int) -> bool:
        """True iff ``row`` lies in the span of the inserted rows."""
        return self._reduce(row, 0)[0] == 0

    def combination(self, row: int) -> int | None:
        """Bitmask of inserted-row indices whose XOR equals ``row`` (None if outside)."""
        reduced, tag = self._reduce(row, 0)
        return tag if reduced == 0 else None

