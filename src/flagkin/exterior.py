"""Exterior algebra over the invariant coframe generators.

Generators, in canonical order: sigma_1 < ... < sigma_n < omega_{2,1} < ...
< omega_{n,1}, optionally followed by a single rho marker (the formal fiber
volume factor).  Blades are encoded as bitmasks (bit i of ``sigma`` set
means sigma_i present, bit j of ``omega`` means omega_{j,1} present), so
all wedge signs reduce to inversion counts between masks.

The rho marker stands for a form of unspecified degree; it is only legal
in the rightmost factor of a wedge, which is the only position the in-scope
formulas ever use.  The blade sigma_1 ^ ... ^ sigma_n ^ omega_{2,1} ^ ... ^
omega_{n,1} ^ rho is the positive orientation.

A multivector is a map from blade keys to nonzero Fractions: forms have
rational coefficients, and a caller that attaches a volume unit to a
coefficient does so itself.  The key of a blade is ``sigma << 32 | omega``,
plus bit 64 for rho, so indices run up to 31.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import IndexOutOfRange, NonSigmaInput, RhoOrdering
from .scalars import Record, _set


def _inversions(a: int, b: int) -> int:
    """Pairs (x in a, y in b) with x > y, masks read as ascending index sets."""
    count = 0
    while b:
        low = b & -b
        y = low.bit_length() - 1
        count += (a >> (y + 1)).bit_count()
        b ^= low
    return count


def _mask_to_indices(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def full_sigma_mask(n: int) -> int:
    return ((1 << (n + 1)) - 1) & ~1  # bits 1..n


def full_omega_mask(n: int) -> int:
    return ((1 << (n + 1)) - 1) & ~3  # bits 2..n


class Blade(Record, order=True):
    __slots__ = ("sigma", "omega", "rho")

    def __init__(self, sigma: int = 0, omega: int = 0, rho: bool = False) -> None:
        _set(self, "sigma", sigma)
        _set(self, "omega", omega)
        _set(self, "rho", rho)

    def sigma_indices(self) -> list[int]:
        return _mask_to_indices(self.sigma)

    def omega_indices(self) -> list[int]:
        return _mask_to_indices(self.omega)

    def to_text(self) -> str:
        parts = [f"s{i}" for i in self.sigma_indices()]
        parts += [f"w{j}1" for j in self.omega_indices()]
        if self.rho:
            parts.append("rho")
        return "^".join(parts) if parts else "1"


def wedge_blades(a: Blade, b: Blade) -> tuple[int, Blade]:
    """Sign (0 or +-1) and canonical blade of a ^ b, one blade pair at a time.

    The reference that Multivector.wedge is tested against.
    """
    if a.rho and b.rho:
        return 0, Blade()
    if a.rho and (b.sigma or b.omega):
        raise RhoOrdering("rho marker must stay in the rightmost factor")
    if (a.sigma & b.sigma) or (a.omega & b.omega):
        return 0, Blade()
    inv = (
        _inversions(a.sigma, b.sigma)
        + _inversions(a.omega, b.omega)
        + a.omega.bit_count() * b.sigma.bit_count()
    )
    sign = -1 if inv & 1 else 1
    return sign, Blade(a.sigma | b.sigma, a.omega | b.omega, a.rho or b.rho)


# -- blade keys ----------------------------------------------------------------

_LOW = (1 << 32) - 1
_SIGMA = _LOW << 32
_RHO = 1 << 64


def _key(blade: Blade) -> int:
    if not (0 <= blade.sigma <= _LOW and 0 <= blade.omega <= _LOW):
        raise IndexOutOfRange(f"generator index above 31 in {blade.to_text()}")
    return blade.sigma << 32 | blade.omega | (_RHO if blade.rho else 0)


def _blade(key: int) -> Blade:
    return Blade(key >> 32 & _LOW, key & _LOW, key >= _RHO)


def _canonical(key: int) -> int:
    """The generators of key as one mask whose bit order is the canonical order."""
    return (key & _LOW) << 32 | key >> 32 & _LOW


def _below_parity(mask: int) -> int:
    """Bit x set iff an odd number of bits of mask lie below x (x < 64).

    The parity of _inversions(a, mask) is then that of (a & result).bit_count().
    """
    p = mask << 1
    p ^= p << 1
    p ^= p << 2
    p ^= p << 4
    p ^= p << 8
    p ^= p << 16
    p ^= p << 32
    return p


class Multivector:
    """Finite rational linear combination of blades.

    Internally: a map from blade key to nonzero Fraction.  Blade objects
    are built only by terms().
    """

    __slots__ = ("_row",)

    def __init__(self, terms: dict[Blade, int | Fraction] | None = None):
        self._row = {_key(blade): Fraction(c) for blade, c in (terms or {}).items() if c}

    @classmethod
    def _of(cls, row: dict[int, Fraction]) -> "Multivector":
        """Adopt row (nonzero values only) without copying it."""
        mv = object.__new__(cls)
        mv._row = row
        return mv

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Multivector":
        return Multivector()

    @staticmethod
    def from_blade(blade: Blade, coeff: int | Fraction = 1) -> "Multivector":
        return Multivector({blade: coeff})

    @staticmethod
    def unit() -> "Multivector":
        return Multivector._of({0: Fraction(1)})

    # -- inspection --------------------------------------------------------

    @property
    def row(self) -> dict[int, Fraction]:
        """Rational coefficients keyed by sigma << 32 | omega (| 1 << 64 for rho).

        The multivector's own map, shared with the caller: read it, never
        mutate it.
        """
        return self._row

    def terms(self) -> list[tuple[Blade, Fraction]]:
        keys = sorted(self._row, key=lambda k: (k & ~_RHO, k))
        return [(_blade(k), self._row[k]) for k in keys]

    def coefficient(self, blade: Blade) -> Fraction:
        return self._row.get(_key(blade), Fraction(0))

    def is_zero(self) -> bool:
        return not self._row

    def __bool__(self) -> bool:
        return bool(self._row)

    def __len__(self) -> int:
        return len(self._row)

    def sigma_degrees(self) -> set[int]:
        return {(k & _SIGMA).bit_count() for k in self._row}

    def bidegrees(self) -> set[tuple[int, int, bool]]:
        """(sigma degree, omega degree, rho present) of every blade."""
        return {((k & _SIGMA).bit_count(), (k & _LOW).bit_count(), k >= _RHO) for k in self._row}

    def has_sigma_factor(self, i: int) -> bool:
        """Does every blade contain sigma_i?"""
        bit = 1 << (32 + i)
        return all(k & bit for k in self._row)

    def __eq__(self, other) -> bool:
        return isinstance(other, Multivector) and self._row == other._row

    def __hash__(self):
        return hash(frozenset(self._row.items()))

    # -- linear structure ----------------------------------------------------

    def __add__(self, other: "Multivector") -> "Multivector":
        row = dict(self._row)
        for k, c in other._row.items():
            acc = row.get(k)
            if acc is not None:
                c += acc
            if c:
                row[k] = c
            else:
                del row[k]
        return Multivector._of(row)

    def __neg__(self) -> "Multivector":
        return Multivector._of({k: -c for k, c in self._row.items()})

    def __sub__(self, other: "Multivector") -> "Multivector":
        return self + (-other)

    def smul(self, s: int | Fraction) -> "Multivector":
        s = Fraction(s)
        if not s or not self._row:
            return Multivector()
        return Multivector._of({k: c * s for k, c in self._row.items()})

    def __rmul__(self, s: int | Fraction) -> "Multivector":
        return self.smul(s)

    # -- wedge ---------------------------------------------------------------

    def wedge(self, other: "Multivector") -> "Multivector":
        left, right = self._row, other._row
        if not left or not right:
            return Multivector()
        # Per right blade: its key, the parity mask of its generators in
        # canonical order (rho excluded) and its coefficient.
        rights = [(k2, _below_parity(_canonical(k2)), c2) for k2, c2 in right.items()]
        out: dict[int, Fraction] = {}
        for k1, c1 in left.items():
            if k1 >= _RHO and any(0 < k2 < _RHO for k2 in right):
                raise RhoOrdering("rho marker must stay in the rightmost factor")
            canon1 = _canonical(k1)
            for k2, parity2, c2 in rights:
                if k1 & k2:
                    continue
                c = c1 * c2
                key = k1 | k2
                acc = out.get(key)
                if (canon1 & parity2).bit_count() & 1:
                    out[key] = -c if acc is None else acc - c
                else:
                    out[key] = c if acc is None else acc + c
        return Multivector._of({k: c for k, c in out.items() if c})

    # -- text ------------------------------------------------------------------

    def to_text(self) -> str:
        if self.is_zero():
            return "0"
        return " + ".join(
            f"[{c.numerator}/{c.denominator}] {b.to_text()}" for b, c in self.terms()
        )

    def __str__(self) -> str:
        return self.to_text()

    __repr__ = __str__


def sigma(i: int) -> Multivector:
    if i < 1:
        raise ValueError("sigma index must be >= 1")
    return Multivector.from_blade(Blade(sigma=1 << i))

def omega1(j: int) -> Multivector:
    if j < 2:
        raise ValueError("omega index must be >= 2")
    return Multivector.from_blade(Blade(omega=1 << j))


def rho() -> Multivector:
    return Multivector.from_blade(Blade(rho=True))


def wedge(*factors: Multivector) -> Multivector:
    out = Multivector.unit()
    for f in factors:
        out = out.wedge(f)
    return out


def hodge_complement(n: int, sigma_mask: int) -> tuple[int, int]:
    """Sign and mask of *(sigma_I), fixed by sigma_I ^ *(sigma_I) = sigma_1...sigma_n."""
    comp = full_sigma_mask(n) & ~sigma_mask
    sign = -1 if _inversions(sigma_mask, comp) & 1 else 1
    return sign, comp


def _complement_sigma(n: int, a: Multivector, degree_sign) -> Multivector:
    """Replace each blade's sigma part by its complement over sigma_1..sigma_n.

    A blade with sigma-part of degree k picks up the Hodge sign of the
    complement times degree_sign(k); the omega and rho parts are kept.
    """
    images: dict[int, tuple[int, bool]] = {}  # sigma mask -> (shifted complement, negate)
    row: dict[int, Fraction] = {}
    for key, c in a._row.items():
        s = key >> 32 & _LOW
        image = images.get(s)
        if image is None:
            hsign, comp = hodge_complement(n, s)
            image = images[s] = (comp << 32, hsign * degree_sign(s.bit_count()) < 0)
        new = image[0] | (key & ~_SIGMA)
        if image[1]:
            c = -c
        acc = row.get(new)
        row[new] = c if acc is None else acc + c
    return Multivector._of({k: c for k, c in row.items() if c})


def hodge_star_sigma(n: int, a: Multivector) -> Multivector:
    """Hodge star on pure sigma multivectors over sigma_1..sigma_n."""
    full = full_sigma_mask(n)
    for key in a._row:
        if key & ~_SIGMA:
            raise NonSigmaInput(f"non-sigma factor in {_blade(key).to_text()}")
        if key >> 32 & ~full:
            raise NonSigmaInput(f"sigma index above n={n} in {_blade(key).to_text()}")
    return _complement_sigma(n, a, lambda k: 1)


def star1(n: int, a: Multivector) -> Multivector:
    """The *_1 operator: Hodge star on the sigma block with the degree sign.

    On a blade with sigma-part of degree k the result is
    (-1)^binom(n-k, 2) (*sigma-part) ^ (omega/rho part).
    """
    return _complement_sigma(n, a, lambda k: -1 if ((n - k) * (n - k - 1) // 2) & 1 else 1)


def star1_inv(n: int, a: Multivector) -> Multivector:
    """Explicit inverse of star1: degree sign (-1)^(binom(j, 2) + j (n - j))."""
    return _complement_sigma(n, a, lambda j: -1 if (j * (j - 1) // 2 + j * (n - j)) & 1 else 1)


def top_blade(n: int, with_rho: bool = False) -> Blade:
    return Blade(full_sigma_mask(n), full_omega_mask(n), with_rho)


def top_coefficient(n: int, a: Multivector, with_rho: bool = False) -> Fraction:
    return a.coefficient(top_blade(n, with_rho))
