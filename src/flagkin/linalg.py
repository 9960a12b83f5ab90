"""Exact sparse linear algebra over the rationals.

Rows are dicts mapping column index to a nonzero rational, an int or a
Fraction.  The echelon accumulator turns every pivot row into Fractions
with leading entry 1, which makes rank computation incremental and
membership in the span a reduction to zero.

Ranks of integer rows are certified modulo the prime 2^61 - 1: an
integer matrix has rank mod p at most its rank over Q, so full rank mod p
proves full rank over Q.  The certificate reads the rows once, as a
stream, and is the only rank that flagkin computes; the echelon is the
exact reference that the tests rank against, and the only code here that
imports fractions and heapq, when it runs.  No floats are used.
"""

from __future__ import annotations

from collections.abc import Iterable

Row = dict  # column index -> nonzero rational: an int or a Fraction

PRIME = (1 << 61) - 1


class SparseEchelon:
    """Incremental row echelon form over Fraction: pivot rows keyed by their leading column."""

    def __init__(self) -> None:
        self.pivots: dict[int, Row] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, row: Row) -> Row:
        """Return row minus a combination of pivot rows that clears every pivot column.

        A pivot row has entries only after its leading column, so
        subtracting it can fill in a later pivot column; the columns are
        cleared in increasing order, fill-in included.
        """
        import heapq

        row = {c: v for c, v in row.items() if v != 0}
        todo = [c for c in row if c in self.pivots]
        heapq.heapify(todo)
        while todo:
            col = heapq.heappop(todo)
            factor = row.get(col)
            if factor is None:  # cleared by an earlier pivot row, or pushed twice
                continue
            for c, v in self.pivots[col].items():
                new = row.get(c, 0) - factor * v
                if new == 0:
                    row.pop(c, None)
                else:
                    if c not in row and c in self.pivots:
                        heapq.heappush(todo, c)
                    row[c] = new
        return row

    def add(self, row: Row) -> bool:
        """Absorb a row; return True when it enlarged the span."""
        from fractions import Fraction

        row = self.reduce(row)
        if not row:
            return False
        col = min(row)
        inv = 1 / Fraction(row[col])
        self.pivots[col] = {c: v * inv for c, v in row.items()}
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
