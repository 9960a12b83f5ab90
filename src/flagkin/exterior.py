"""Exterior algebra over the invariant coframe generators.

Generators, in canonical order: sigma_1 < ... < sigma_n < omega_{2,1} < ...
< omega_{n,1}.  A blade is its integer key ``sigma << 32 | omega``: bit i
of the sigma mask set means sigma_i present, bit j of the omega mask means
omega_{j,1} present, so indices run up to 31 and all wedge signs reduce to
inversion counts between masks.  The blade sigma_1 ^ ... ^ sigma_n ^
omega_{2,1} ^ ... ^ omega_{n,1} is the positive orientation.

A multivector is a map from blade keys to nonzero int numerators over one
positive denominator: forms have rational coefficients, and a caller that
attaches a volume unit to a coefficient does so itself.  The arithmetic is
in integers, so the exterior kernel loads no rational type; only the
accessors that the tests read (terms) build Fractions.
"""

from __future__ import annotations

from math import gcd, lcm

from .errors import IndexOutOfRange


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


# -- blade keys ----------------------------------------------------------------

_LOW = (1 << 32) - 1
_SIGMA = _LOW << 32


def _blade_text(sigma: int, omega: int) -> str:
    parts = [f"s{i}" for i in _mask_to_indices(sigma)]
    parts += [f"w{j}1" for j in _mask_to_indices(omega)]
    return "^".join(parts) if parts else "1"


def _key(sigma: int, omega: int) -> int:
    """The key of the blade with these masks; IndexOutOfRange for an index above 31."""
    if not (0 <= sigma <= _LOW and 0 <= omega <= _LOW):
        raise IndexOutOfRange(f"generator index above 31 in {_blade_text(sigma, omega)}")
    return sigma << 32 | omega


def _canonical(key: int) -> int:
    """The generators of key as one mask whose bit order is the canonical order."""
    return (key & _LOW) << 32 | key >> 32


def _below_parity(mask: int) -> int:
    """Bit x set iff an odd number of bits of mask lie below x (x < 64).

    The parity of the pairs (x in a, y in mask) with x > y is then that of
    (a & result).bit_count().
    """
    p = mask << 1
    p ^= p << 1
    p ^= p << 2
    p ^= p << 4
    p ^= p << 8
    p ^= p << 16
    p ^= p << 32
    return p


def _exact(c) -> tuple[int, int]:
    """c as (numerator, denominator) with a positive denominator.

    c is an int or an exact rational with integer numerator and
    denominator, such as a Fraction; a float is refused, since no
    verification path may round.
    """
    if isinstance(c, int):
        return int(c), 1
    num, den = getattr(c, "numerator", None), getattr(c, "denominator", None)
    if not (isinstance(num, int) and isinstance(den, int) and den):
        raise TypeError(f"a form coefficient must be exact, got {type(c).__name__}")
    return (num, den) if den > 0 else (-num, -den)


def _lowest(row: dict[int, int], den: int) -> tuple[dict[int, int], int]:
    """row / den in lowest terms, for nonzero ints in row and den > 0."""
    if den > 1:
        g = gcd(den, *row.values())
        if g > 1:
            row = {k: c // g for k, c in row.items()}
            den //= g
    return row, den


class Multivector:
    """Finite rational linear combination of blades: nonzero int numerators over one denominator.

    The denominator is positive and shares no factor with every numerator,
    so equal forms have equal rows and denominators.
    """

    __slots__ = ("_row", "_den")

    def __init__(self, terms: dict | None = None):
        """The form sum c e_k over terms {k: c}; each c is an int or an exact rational."""
        ratios = {_key(k >> 32, k & _LOW): _exact(c) for k, c in (terms or {}).items() if c}
        den = lcm(*(d for _, d in ratios.values()))
        self._row, self._den = _lowest({k: num * (den // d) for k, (num, d) in ratios.items()}, den)

    @classmethod
    def _of(cls, row: dict[int, int], den: int = 1) -> "Multivector":
        """Adopt row / den (nonzero ints, den > 0, in lowest terms) without copying it."""
        mv = object.__new__(cls)
        mv._row = row
        mv._den = den
        return mv

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Multivector":
        return Multivector()

    @staticmethod
    def unit() -> "Multivector":
        return Multivector._of({0: 1})

    # -- inspection --------------------------------------------------------

    @property
    def row(self) -> dict[int, int]:
        """Integer numerators over den, keyed by sigma << 32 | omega.

        The multivector's own map, shared with the caller: read it, never
        mutate it.
        """
        return self._row

    @property
    def den(self) -> int:
        """The positive denominator of every coefficient in row."""
        return self._den

    def terms(self):
        """(key, Fraction coefficient) of every blade, by key; the tests read forms this way."""
        from fractions import Fraction

        return [(k, Fraction(c, self._den)) for k, c in sorted(self._row.items())]

    def is_zero(self) -> bool:
        return not self._row

    def __bool__(self) -> bool:
        return bool(self._row)

    def sigma_degrees(self) -> set[int]:
        return {(k & _SIGMA).bit_count() for k in self._row}

    def has_sigma_factor(self, i: int) -> bool:
        """Does every blade contain sigma_i?"""
        bit = 1 << (32 + i)
        return all(k & bit for k in self._row)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Multivector)
            and self._den == other._den
            and self._row == other._row
        )

    def __hash__(self):
        return hash((self._den, frozenset(self._row.items())))

    # -- linear structure ----------------------------------------------------

    def __add__(self, other: "Multivector") -> "Multivector":
        d1, d2 = self._den, other._den
        den = d1 if d1 == d2 else lcm(d1, d2)
        s1, s2 = den // d1, den // d2
        row = {k: c * s1 for k, c in self._row.items()} if s1 > 1 else dict(self._row)
        for k, c in other._row.items():
            c *= s2
            acc = row.get(k)
            if acc is not None:
                c += acc
            if c:
                row[k] = c
            else:
                del row[k]
        return Multivector._of(*_lowest(row, den))

    def __neg__(self) -> "Multivector":
        return Multivector._of({k: -c for k, c in self._row.items()}, self._den)

    def __sub__(self, other: "Multivector") -> "Multivector":
        return self + (-other)

    def smul(self, s, den: int = 1) -> "Multivector":
        """self times s / den: s an int or an exact rational, den a positive int."""
        num, d = _exact(s)
        if not num or not self._row:
            return Multivector()
        row = {k: c * num for k, c in self._row.items()}
        return Multivector._of(*_lowest(row, self._den * d * den))

    def __rmul__(self, s) -> "Multivector":
        return self.smul(s)

    # -- wedge ---------------------------------------------------------------

    def wedge(self, other: "Multivector") -> "Multivector":
        left, right = self._row, other._row
        if not left or not right:
            return Multivector()
        # Per right blade: its key, the parity mask of its generators in
        # canonical order and its coefficient.
        rights = [(k2, _below_parity(_canonical(k2)), c2) for k2, c2 in right.items()]
        out: dict[int, int] = {}
        for k1, c1 in left.items():
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
        out = {k: c for k, c in out.items() if c}
        return Multivector._of(*_lowest(out, self._den * other._den))

    # -- text ------------------------------------------------------------------

    def to_text(self) -> str:
        if self.is_zero():
            return "0"
        den, parts = self._den, []
        for k, c in sorted(self._row.items()):
            g = gcd(c, den)
            parts.append(f"[{c // g}/{den // g}] {_blade_text(k >> 32, k & _LOW)}")
        return " + ".join(parts)

    def __str__(self) -> str:
        return self.to_text()

    __repr__ = __str__


def sigma(i: int) -> Multivector:
    if i < 1:
        raise ValueError("sigma index must be >= 1")
    return Multivector._of({_key(1 << i, 0): 1})

def omega1(j: int) -> Multivector:
    if j < 2:
        raise ValueError("omega index must be >= 2")
    return Multivector._of({_key(0, 1 << j): 1})


def wedge(*factors: Multivector) -> Multivector:
    out = Multivector.unit()
    for f in factors:
        out = out.wedge(f)
    return out


def hodge_complement(n: int, sigma_mask: int) -> tuple[int, int]:
    """Sign and mask of *(sigma_I), fixed by sigma_I ^ *(sigma_I) = sigma_1...sigma_n."""
    comp = full_sigma_mask(n) & ~sigma_mask
    sign = -1 if (sigma_mask & _below_parity(comp)).bit_count() & 1 else 1
    return sign, comp


def _complement_sigma(n: int, a: Multivector, degree_sign) -> Multivector:
    """Replace each blade's sigma part by its complement over sigma_1..sigma_n.

    A blade with sigma-part of degree k picks up the Hodge sign of the
    complement times degree_sign(k); the omega part is kept.
    """
    images: dict[int, tuple[int, bool]] = {}  # sigma mask -> (shifted complement, negate)
    row: dict[int, int] = {}
    for key, c in a._row.items():
        s = key >> 32
        image = images.get(s)
        if image is None:
            hsign, comp = hodge_complement(n, s)
            image = images[s] = (comp << 32, hsign * degree_sign(s.bit_count()) < 0)
        new = image[0] | (key & _LOW)
        if image[1]:
            c = -c
        acc = row.get(new)
        row[new] = c if acc is None else acc + c
    return Multivector._of(*_lowest({k: c for k, c in row.items() if c}, a._den))


def star1(n: int, a: Multivector) -> Multivector:
    """The *_1 operator: Hodge star on the sigma block with the degree sign.

    On a blade with sigma-part of degree k the result is
    (-1)^binom(n-k, 2) (*sigma-part) ^ (omega part).
    """
    return _complement_sigma(n, a, lambda k: -1 if ((n - k) * (n - k - 1) // 2) & 1 else 1)


def star1_inv(n: int, a: Multivector) -> Multivector:
    """Explicit inverse of star1: degree sign (-1)^(binom(j, 2) + j (n - j))."""
    return _complement_sigma(n, a, lambda j: -1 if (j * (j - 1) // 2 + j * (n - j)) & 1 else 1)


def top_pairing(n: int, a: Multivector, b: Multivector) -> tuple[int, int]:
    """The coefficient of sigma_1 ^ ... ^ omega_{n,1} in a ^ b, a reduced (num, den).

    A blade k of a meets only the blade top ^ k of b, signed as
    Multivector.wedge signs that pair, so a ^ b is never formed; (0, 1)
    when no pair reaches the top blade.
    """
    top, num, den = full_sigma_mask(n) << 32 | full_omega_mask(n), 0, a._den * b._den
    for k, c in a._row.items():
        rest = top ^ k
        if rest in b._row and not k & rest:
            sign = -1 if (_canonical(k) & _below_parity(_canonical(rest))).bit_count() & 1 else 1
            num += sign * c * b._row[rest]
    g = gcd(num, den)
    return num // g, den // g
