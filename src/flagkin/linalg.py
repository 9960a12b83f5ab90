"""Exact sparse linear algebra over the rationals.

Rows are dicts mapping column index to a nonzero Fraction.  The echelon
accumulator keeps fully reduced pivot rows, which makes rank computation
incremental and solution read-off immediate.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import SolveFailure

Row = dict[int, Fraction]


class SparseEchelon:
    """Incremental reduced row echelon form over Fraction."""

    def __init__(self) -> None:
        self.pivots: dict[int, Row] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, row: Row) -> Row:
        """Return row minus its projection onto the accumulated pivot rows."""
        row = dict(row)
        for col in sorted(row):
            if row.get(col, 0) == 0:
                continue
            pivot_row = self.pivots.get(col)
            if pivot_row is None:
                continue
            factor = row[col]
            for c, v in pivot_row.items():
                new = row.get(c, Fraction(0)) - factor * v
                if new == 0:
                    row.pop(c, None)
                else:
                    row[c] = new
        return {c: v for c, v in row.items() if v != 0}

    def add(self, row: Row) -> bool:
        """Absorb a row; return True when it enlarged the span."""
        row = self.reduce(row)
        if not row:
            return False
        col = min(row)
        inv = 1 / row[col]
        row = {c: v * inv for c, v in row.items()}
        for prow in self.pivots.values():
            factor = prow.get(col)
            if factor is None:
                continue
            for c, v in row.items():
                new = prow.get(c, Fraction(0)) - factor * v
                if new == 0:
                    prow.pop(c, None)
                else:
                    prow[c] = new
        self.pivots[col] = row
        return True


def solve_unique(columns: list[Row], rhs: Row) -> list[Fraction]:
    """Solve A x = rhs where A is given column-wise; require a unique solution.

    Column entries and rhs are keyed by arbitrary shared row indices.
    Raises SolveFailure when the system is inconsistent or under-determined.
    """
    ncols = len(columns)
    rows_idx: set[int] = set(rhs)
    for col in columns:
        rows_idx.update(col)
    ech = SparseEchelon()
    RHS = ncols  # augmented column holding the right-hand side
    for r in sorted(rows_idx):
        row: Row = {}
        for j, col in enumerate(columns):
            v = col.get(r)
            if v:
                row[j] = v
        v = rhs.get(r)
        if v:
            row[RHS] = v
        ech.add(row)
    if RHS in ech.pivots:
        raise SolveFailure("inconsistent linear system")
    if len(ech.pivots) < ncols:
        raise SolveFailure("under-determined linear system")
    sol = [Fraction(0)] * ncols
    for col, prow in ech.pivots.items():
        extra = [c for c in prow if c not in (col, RHS)]
        if extra:
            raise SolveFailure("under-determined linear system")
        sol[col] = prow.get(RHS, Fraction(0))
    return sol
