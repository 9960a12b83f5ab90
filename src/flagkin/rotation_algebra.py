"""The graded algebra R[X]/I by its index sets: chord bases, counts and ranks.

Chord monomials (diagonal factors plus a non-crossing perfect matching)
give a basis in each degree.  Graded dimensions are certified by the
chord monomials' lead keys, one int each, with no row built and no rank
routine called (see graded_dimension); the +-1 rows themselves give the
forms that the convolution suite checks.  The primal rotation-measure
space is ranked by one stream of rows into the mod-p certificate, and the
rotation relations are checked on blade keys, read from index masks,
against their witness, so every rank here is a certificate and none is an
elimination.  No form is built here: grassmann_oracle realizes the
generators x_{ij} as invariant forms.
AlgebraElement, a form with its n, stays here because perfbench/tracer.py
reads AlgebraElement.__mul__.  This module loads neither fractions nor
linalg; the functions that need them import them when they run.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb

from .errors import BadIndexSet, DimensionMismatch, FlagkinError, IndexOutOfRange
from .records import Record, _set


class AlgebraElement(Record):
    """Element of R[X]/I over ambient dimension n, stored as its form body (a Multivector)."""

    __slots__ = ("n", "body")

    def __init__(self, n: int, body) -> None:
        _set(self, "n", n)
        _set(self, "body", body)

    def _check(self, other: "AlgebraElement") -> None:
        if self.n != other.n:
            raise DimensionMismatch(f"n={self.n} vs n={other.n}")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        return AlgebraElement(self.n, self.body + other.body)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        return AlgebraElement(self.n, self.body - other.body)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.n, -self.body)

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        return AlgebraElement(self.n, self.body.wedge(other.body))

    def __pow__(self, k: int) -> "AlgebraElement":
        out = AlgebraElement(self.n, self.body.unit())
        for _ in range(k):
            out = out * self
        return out

    def smul(self, s, den: int = 1) -> "AlgebraElement":
        return AlgebraElement(self.n, self.body.smul(s, den))

    def __rmul__(self, s) -> "AlgebraElement":
        return self.smul(s)

    def is_zero(self) -> bool:
        return self.body.is_zero()


# -- chord monomials ---------------------------------------------------------


def _noncrossing_matchings(points: tuple[int, ...]):
    """All non-crossing perfect matchings of an ascending tuple of points."""
    if not points:
        yield ()
        return
    first = points[0]
    for t in range(1, len(points), 2):
        left, partner, right = points[1:t], points[t], points[t + 1 :]
        for m1 in _noncrossing_matchings(left):
            for m2 in _noncrossing_matchings(right):
                yield ((first, partner),) + m1 + m2


def _chord_index_sets(n: int, k: int):
    """Diagonals and matching of each chord monomial of degree k, in chord_basis order."""
    if not 0 <= k <= n - 1:
        raise IndexOutOfRange(f"degree {k} outside 0..{n - 1}")
    indices = range(2, n + 1)
    for chords in range(k + 1):
        for diag in itertools.combinations(indices, k - chords):
            rest = [v for v in indices if v not in diag]
            for points in itertools.combinations(rest, 2 * chords):
                for matching in _noncrossing_matchings(points):
                    yield diag, matching


def chord_basis(n: int, k: int) -> tuple[tuple, ...]:
    """The (diagonals, matching) index sets of each chord monomial of degree k.

    Diagonals ascend, and the chords (a, b), each with a < b, ascend too;
    the monomial is the product of x_ij over [(d, d) for d in diagonals] + list(matching).
    """
    return tuple(_chord_index_sets(n, k))


def chord_text(diagonals: tuple[int, ...], matching: tuple[tuple[int, int], ...]) -> str:
    """D{d,...}M{(a,b)...}, the printed form of a chord monomial."""
    d = ",".join(str(v) for v in diagonals)
    m = "".join(f"({a},{b})" for a, b in matching)
    return f"D{{{d}}}M{{{m}}}"


def catalan(l: int) -> int:
    return comb(2 * l, l) // (l + 1)


def chord_count(n: int, k: int) -> int:
    """Combinatorial count: sum_l C(n-1,k-l) C(n-k+l-1,2l) Catalan(l)."""
    return sum(
        comb(n - 1, k - l) * comb(n - k + l - 1, 2 * l) * catalan(l)
        for l in range(k + 1)
    )


def narayana(n: int, k: int) -> int:
    return comb(n, k) * comb(n, k + 1) // n


# -- graded dimensions -------------------------------------------------------


def _chord_row(diagonals: tuple[int, ...], matching: tuple[tuple[int, int], ...]) -> dict[int, int]:
    """The row of a chord monomial's evaluation times 2^m, m = len(matching); entries are +-1.

    The monomial wedges sigma_d ^ omega_{d,1} over its diagonals and
    (sigma_a ^ omega_{b,1} + sigma_b ^ omega_{a,1}) / 2 over its m chords,
    so it is the sum of the 2^m blades given by orienting each chord.  Each
    carries the sign of reordering its 2-forms into canonical order, over
    2^m.  The chords do not cross, so flipping one changes no inversion
    parity, and the sign is that of the orientation (a, b) with a < b.
    """
    pairs = [(d, d) for d in diagonals] + list(matching)
    smask = omask = 0
    inversions = len(pairs) * (len(pairs) - 1) // 2  # sigmas moved past omegas
    for s, t in pairs:
        inversions += (smask >> (s + 1)).bit_count() + (omask >> (t + 1)).bit_count()
        smask |= 1 << s
        omask |= 1 << t
    diag = sum(1 << d for d in diagonals)
    keys = [diag << 32 | diag]
    for a, b in matching:
        ab, ba = 1 << a << 32 | 1 << b, 1 << b << 32 | 1 << a
        keys = [key | ab for key in keys] + [key | ba for key in keys]
    return dict.fromkeys(keys, -1 if inversions & 1 else 1)


@lru_cache(maxsize=None)
def _chord_columns(n: int, k: int) -> tuple[dict[int, Fraction], ...]:
    """The row of each chord_basis(n, k) monomial's evaluation, over Fraction.

    Nothing in flagkin calls it; it stays only for perfbench/tracer.py,
    which reads its cache statistics.  The tests compare it with generator products.
    """
    from fractions import Fraction

    return tuple(
        {key: Fraction(e, 1 << len(matching)) for key, e in _chord_row(diag, matching).items()}
        for diag, matching in _chord_index_sets(n, k)
    )


def _chord_lead(diagonals: tuple[int, ...], matching: tuple[tuple[int, int], ...]) -> int:
    """min(_chord_row(diagonals, matching)): sigma takes each chord's start, omega its end."""
    diag = starts = ends = 0
    for d in diagonals:
        diag |= 1 << d
    for a, b in matching:
        starts |= 1 << a
        ends |= 1 << b
    return (diag | starts) << 32 | diag | ends


def graded_dimension(n: int, k: int) -> int:
    """Exact rank of the chord-monomial image span in degree k, certified by lead keys.

    Lemma: rows whose smallest keys are pairwise distinct are linearly
    independent.  In a nonzero combination, the row with the smallest
    lead among those taken is the only one with a nonzero entry there.
    A chord row's smallest key is _chord_lead, with entry +-1: orienting a
    chord (a, b), a < b, as (b, a) adds 2^b - 2^a > 0 to the sigma mask,
    and sigma fills the high bits.  So when the leads of the chord
    monomials are distinct, the rank is their number.  The leads are
    distinct for a correct basis, since sigma & omega gives the diagonals
    and the matching is the bracket matching of sigma-only indices as "("
    against omega-only ones as ")".  A collision means the chord basis is
    wrong, and raises FlagkinError: there is no elimination to fall back on.
    """
    leads = set()
    for diagonals, matching in _chord_index_sets(n, k):
        lead = _chord_lead(diagonals, matching)
        if lead in leads:
            raise FlagkinError(f"chord leads collide at n={n}, k={k}")
        leads.add(lead)
    return len(leads)


# -- the primal rotation-measure space ----------------------------------------


def _dalpha_wedge(n: int, smask: int, omask: int) -> dict[int, int]:
    """Row of dalpha ^ sigma_S ^ omega_{O,1} for the canonical blade with masks S, O.

    The term sigma_i ^ omega_{i,1} of dalpha survives for i outside S and
    O.  Its sign is that of moving omega_{i,1} past the |S| sigmas, then
    sigma_i and omega_{i,1} into canonical position.  Entries are +-1.
    """
    row = {}
    lead = smask.bit_count()
    for i in range(2, n + 1):
        bit = 1 << i
        if (smask | omask) & bit:
            continue
        below = bit - 1
        inv = lead + (smask & below).bit_count() + (omask & below).bit_count()
        row[(smask | bit) << 32 | omask | bit] = -1 if inv & 1 else 1
    return row


def _dalpha_rows(n: int, k: int):
    """Nonzero images of wedge-by-dalpha from bidegree (k-1, n-2-k), built on demand."""
    if k < 1 or n - 2 - k < 0:
        return
    for sig in itertools.combinations(range(2, n + 1), k - 1):
        smask = sum(1 << i for i in sig)
        for om in itertools.combinations(range(2, n + 1), n - 2 - k):
            img = _dalpha_wedge(n, smask, sum(1 << j for j in om))
            if img:
                yield img


@lru_cache(maxsize=None)
def _dalpha_image_columns(n: int, k: int) -> tuple[dict[int, Fraction], ...]:
    """The rows of _dalpha_rows(n, k) over Fraction.

    Nothing in flagkin calls it; it stays only for perfbench/tracer.py,
    which reads its cache statistics.
    """
    from fractions import Fraction

    return tuple({key: Fraction(e) for key, e in row.items()} for row in _dalpha_rows(n, k))


def rotation_space_dimension(n: int, k: int) -> int:
    """dim of (sigma^k x omega^(n-1-k)) modulo the image of wedge-by-dalpha, certified mod p.

    Wedge-by-dalpha is injective below the middle degree: up to +-1
    scalings its blocks are the inclusion matrices W_{b,b+1}(2b+2), which
    have full rank (Gottlieb 1966, Kantor 1972).  So the rank is the number
    of rows, and _dalpha_rows streams once into certified_rank to prove it.
    Only a dependency modulo the prime can leave the certificate undecided;
    that raises FlagkinError, as there is no elimination to fall back on.
    """
    if not 0 <= k <= n - 1:
        raise IndexOutOfRange(f"degree {k} outside 0..{n - 1}")
    from .linalg import certified_rank

    rank = certified_rank(_dalpha_rows(n, k))
    if rank is None:
        raise FlagkinError(f"dalpha rank certificate undecided at n={n}, k={k}")
    return comb(n - 1, k) * comb(n - 1, n - 1 - k) - rank


def _perm_sign(seq) -> int:
    """Sign of a sequence of non-negative integers against its sorted order; 0 on a repeat."""
    inv = seen = 0
    for v in seq:
        bit = 1 << v
        if seen & bit:
            return 0
        inv += (seen >> (v + 1)).bit_count()
        seen |= bit
    return -1 if inv & 1 else 1


def _rep_term(n: int, imask: int, jmask: int) -> tuple[int, int, int]:
    """Sign, sigma mask and omega mask of S_{I,J}'s blade, I and J given as masks.

    The sign is that of (J, J^c) ascending, J^c = 2..n - J: one inversion per
    c in J^c below a j in J.  Below j lie j - 2 indices, C(|J|, 2) of them in
    J overall, so the parity is that of the odd j in J plus C(|J|, 2).
    """
    t, odd = jmask.bit_count(), (jmask & 0xAAAAAAAA).bit_count()  # bits 1, 3, ..., 31
    return -1 if (odd + t * (t - 1) // 2) & 1 else 1, imask, ((1 << n + 1) - 4) ^ jmask


def _relation_sum(n: int, imask: int, jmask: int) -> dict[int, int]:
    """Row of the sum over l of (-1)^l times the blade of S_{I' + j_l, J' - j_l}, J' ascending.

    I' + j is I' ascending, then j, signed by the bits of I' above j.  A j in
    I' repeats an index, so its term vanishes; the other terms' sigma masks differ.
    """
    row = {}
    for j in range(2, n + 1):
        bit = 1 << j
        if jmask & bit and not imask & bit:
            sign, smask, omask = _rep_term(n, imask | bit, jmask ^ bit)
            flip = ((jmask & bit - 1).bit_count() + 1 + (imask >> j).bit_count()) & 1
            row[smask << 32 | omask] = -sign if flip else sign
    return row


def rotation_relation_check(n: int, i_prime, j_prime) -> bool:
    """Check the alternating-sum relation among the S_{I,J} in degree k.

    i_prime has k-1 entries, j_prime has k+1; the relation holds iff the
    alternating sum of representatives lies in the image of wedge-by-dalpha.
    For correct representatives the sum is +-witness, the witness being
    dalpha ^ sigma_{I'} ^ omega_{(J')^c,1}: for sorted I', J' and j = j_l
    in J' - I', the l-th term and the j-term of the witness are the same
    blade, with sign ratio (-1)^(E(J')+k+1) whatever j is (E(J') counts the
    pairs x in J', c not in J' with c < x); a j in I' vanishes on both
    sides; and reordering I' or J' only signs the sum, so masks suffice.
    """
    i_prime, j_prime = tuple(i_prime), tuple(j_prime)
    k = len(j_prime) - 1
    if len(i_prime) != k - 1:
        raise BadIndexSet(f"|I'|={len(i_prime)} but |J'|-1={k}")
    if len(set(i_prime)) != len(i_prime) or len(set(j_prime)) != len(j_prime):
        raise BadIndexSet("repeated index inside I' or J'")
    for v in i_prime + j_prime:
        if not 2 <= v <= n:
            raise BadIndexSet(f"index {v} outside 2..{n}")
    imask, jmask = sum(1 << i for i in i_prime), sum(1 << j for j in j_prime)
    witness = _dalpha_wedge(n, imask, ((1 << n + 1) - 4) ^ jmask)
    return _relation_sum(n, imask, jmask) in (witness, {key: -c for key, c in witness.items()})
