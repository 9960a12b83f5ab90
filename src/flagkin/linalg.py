"""Exact sparse linear algebra over the rationals.

Rows are dicts mapping column index to a nonzero Fraction.  The echelon
accumulator keeps fully reduced pivot rows, which makes rank computation
incremental and solution read-off immediate.

Ranks are first attempted as a certificate modulo the prime 2^61 - 1: an
integer matrix has rank mod p at most its rank over Q, so full column rank
mod p proves full column rank over Q.  When the certificate cannot decide,
the Fraction echelon gives the rank.  No floats are used.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import lcm

from .errors import SolveFailure

Row = dict[int, Fraction]

PRIME = (1 << 61) - 1


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


def full_column_rank_mod_p(columns: Sequence[Row]) -> bool:
    """True when the columns are certified linearly independent over Q.

    Each column is scaled by the lcm of its denominators to an integer
    vector and eliminated modulo PRIME.  False only means "not certified":
    a dependency mod PRIME need not hold over Q.
    """
    pivots: dict[int, dict[int, int]] = {}  # leading index -> row with leading entry 1
    for col in columns:
        scale = lcm(*(v.denominator for v in col.values()))
        row = {}
        for r, v in col.items():
            e = v.numerator * (scale // v.denominator) % PRIME
            if e:
                row[r] = e
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                inv = pow(row[lead], -1, PRIME)
                pivots[lead] = {r: e * inv % PRIME for r, e in row.items()}
                break
            factor = row[lead]
            for r, e in pivot.items():
                new = (row.get(r, 0) - factor * e) % PRIME
                if new:
                    row[r] = new
                else:
                    del row[r]
        else:
            return False
    return True


def column_rank(columns: Sequence[Row]) -> int:
    """Exact rank of a sequence of columns: the mod-p certificate, else the echelon."""
    if full_column_rank_mod_p(columns):
        return len(columns)
    ech = SparseEchelon()
    for col in columns:
        ech.add(col)
    return ech.rank


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
