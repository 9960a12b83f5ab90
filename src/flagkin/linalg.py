"""Exact sparse linear algebra over the rationals.

Rows are dicts mapping column index to a nonzero rational, an int or a
Fraction.  The echelon accumulator turns every entry into a Fraction and
keeps fully reduced pivot rows, which makes rank computation incremental
and solution read-off immediate.

Ranks are first attempted as a certificate modulo the prime 2^61 - 1: an
integer matrix has rank mod p at most its rank over Q, so full column rank
mod p proves full column rank over Q.  The certificate reads its columns
once, as a stream, and keeps integer entries as they are.  When it cannot
decide, the Fraction echelon gives the rank.  No floats are used.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from fractions import Fraction
from math import lcm

from .errors import SolveFailure

Row = dict[int, Fraction]  # or dict[int, int]: the entries only need to be rational

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
        inv = 1 / Fraction(row[col])
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


def _integer_row(col: Row) -> dict[int, int]:
    """col itself when its entries are ints, else col scaled by the lcm of its denominators."""
    if all(type(v) is int for v in col.values()):
        return col
    scale = lcm(*(v.denominator for v in col.values()))
    return {r: v.numerator * (scale // v.denominator) for r, v in col.items()}


def certified_rank(columns: Iterable[Row]) -> int | None:
    """The number of columns when they are certified linearly independent over Q.

    Each column becomes an integer vector (see _integer_row) and is
    eliminated modulo PRIME.  A pivot is kept as the row itself plus the
    inverse of its leading entry; a column whose leading index is new and
    whose leading entry is a unit mod PRIME is stored without a copy.
    None only means "not certified": a dependency mod PRIME need not hold
    over Q.
    """
    pivots: dict[int, tuple[dict[int, int], int]] = {}  # leading index -> (row, 1/lead mod p)
    count = 0
    for col in columns:
        count += 1
        row = _integer_row(col)
        lead = min(row, default=None)
        if lead is not None and lead not in pivots and row[lead] % PRIME:
            pivots[lead] = (row, pow(row[lead], -1, PRIME))
            continue
        row = {r: e % PRIME for r, e in row.items() if e % PRIME}
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = (row, pow(row[lead], -1, PRIME))
                break
            prow, inv = pivot
            factor = row[lead] * inv % PRIME
            for r, e in prow.items():
                new = (row.get(r, 0) - factor * e) % PRIME
                if new:
                    row[r] = new
                else:
                    row.pop(r, None)
        else:
            return None
    return count


def full_column_rank_mod_p(columns: Iterable[Row]) -> bool:
    """True when the columns, any iterable of rows, are certified independent over Q."""
    return certified_rank(columns) is not None


def column_rank(
    columns: Iterable[Row], exact: Callable[[], Iterable[Row]] | None = None
) -> int:
    """Exact rank of the columns: the mod-p certificate, else the Fraction echelon.

    columns may be a one-pass stream; exact() then gives the same columns
    again for the echelon, which only runs when the certificate fails.
    """
    rank = certified_rank(columns)
    if rank is not None:
        return rank
    ech = SparseEchelon()
    for col in columns if exact is None else exact():
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
