"""Exact sparse linear algebra over the rationals.

Rows are dicts mapping column index to a nonzero rational, an int or a
Fraction.  The echelon accumulator turns every entry into a Fraction and
keeps fully reduced pivot rows, which makes rank computation incremental
and solution read-off immediate.

Ranks of integer rows are first attempted as a certificate modulo the
prime 2^61 - 1: an integer matrix has rank mod p at most its rank over Q,
so full rank mod p proves full rank over Q.  The certificate reads the
rows once, as a stream.  When it cannot decide, the echelon reads the same
rows again and gives the rank.  No floats are used.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from fractions import Fraction

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


def certified_rank(rows: Iterable[dict[int, int]]) -> int | None:
    """The number of integer rows when they are certified linearly independent over Q.

    The rows are eliminated modulo PRIME.  A pivot is kept as the row itself
    plus the inverse of its leading entry; a row whose leading index is new
    and whose leading entry is a unit mod PRIME is stored without a copy.
    None only means "not certified": a dependency mod PRIME need not hold
    over Q.
    """
    pivots: dict[int, tuple[dict[int, int], int]] = {}  # leading index -> (row, 1/lead mod p)
    count = 0
    for row in rows:
        count += 1
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


def column_rank(make_rows: Callable[[], Iterable[dict[int, int]]]) -> int:
    """Exact rank of the integer rows that make_rows() yields.

    The certificate reads make_rows() once; only when it cannot decide does
    the echelon read make_rows() a second time.
    """
    rank = certified_rank(make_rows())
    if rank is not None:
        return rank
    ech = SparseEchelon()
    for row in make_rows():
        ech.add(row)
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
