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
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import NonSigmaInput, RhoOrdering
from .scalars import ONE, Scalar


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


def _indices_to_mask(indices) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def full_sigma_mask(n: int) -> int:
    return ((1 << (n + 1)) - 1) & ~1  # bits 1..n


def full_omega_mask(n: int) -> int:
    return ((1 << (n + 1)) - 1) & ~3  # bits 2..n


@dataclass(frozen=True, order=True)
class Blade:
    sigma: int = 0
    omega: int = 0
    rho: bool = False

    def sigma_degree(self) -> int:
        return self.sigma.bit_count()

    def omega_degree(self) -> int:
        return self.omega.bit_count()

    def degree(self) -> int:
        """Graded degree; the rho marker does not count."""
        return self.sigma_degree() + self.omega_degree()

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


_GEN_RE = re.compile(r"^s(\d+)$|^w(\d+)1$|^rho$")


def blade_from_text(text: str) -> Blade:
    if text == "1":
        return Blade()
    sigma = omega = 0
    rho = False
    for part in text.split("^"):
        m = _GEN_RE.match(part)
        if not m:
            raise ValueError(f"bad generator {part!r}")
        if m.group(1):
            sigma |= 1 << int(m.group(1))
        elif m.group(2):
            omega |= 1 << int(m.group(2))
        else:
            rho = True
    return Blade(sigma, omega, rho)


def wedge_blades(a: Blade, b: Blade) -> tuple[int, Blade]:
    """Sign (0 or +-1) and canonical blade of a ^ b."""
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


class Multivector:
    """Finite Scalar-linear combination of blades."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[Blade, Scalar] | None = None):
        self._terms = {b: c for b, c in (terms or {}).items() if not c.is_zero()}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Multivector":
        return Multivector()

    @staticmethod
    def from_blade(blade: Blade, coeff: Scalar = ONE) -> "Multivector":
        return Multivector({blade: coeff})

    @staticmethod
    def unit() -> "Multivector":
        return Multivector({Blade(): ONE})

    # -- inspection --------------------------------------------------------

    def terms(self) -> list[tuple[Blade, Scalar]]:
        return sorted(self._terms.items(), key=lambda t: t[0])

    def coefficient(self, blade: Blade) -> Scalar:
        return self._terms.get(blade, Scalar())

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def sigma_degrees(self) -> set[int]:
        return {b.sigma_degree() for b in self._terms}

    def degrees(self) -> set[int]:
        return {b.degree() for b in self._terms}

    def __eq__(self, other) -> bool:
        return isinstance(other, Multivector) and self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    # -- linear structure ----------------------------------------------------

    def __add__(self, other: "Multivector") -> "Multivector":
        terms = dict(self._terms)
        for b, c in other._terms.items():
            acc = terms.get(b)
            terms[b] = c if acc is None else acc + c
        return Multivector(terms)

    def __neg__(self) -> "Multivector":
        return Multivector({b: -c for b, c in self._terms.items()})

    def __sub__(self, other: "Multivector") -> "Multivector":
        return self + (-other)

    def smul(self, s) -> "Multivector":
        s = Scalar.coerce(s)
        if s.is_zero():
            return Multivector()
        return Multivector({b: c * s for b, c in self._terms.items()})

    def __rmul__(self, s) -> "Multivector":
        return self.smul(s)

    # -- wedge ---------------------------------------------------------------

    def wedge(self, other: "Multivector") -> "Multivector":
        terms: dict[Blade, Scalar] = {}
        for b1, c1 in self._terms.items():
            for b2, c2 in other._terms.items():
                sign, blade = wedge_blades(b1, b2)
                if sign == 0:
                    continue
                c = c1 * c2
                if sign < 0:
                    c = -c
                acc = terms.get(blade)
                terms[blade] = c if acc is None else acc + c
        return Multivector(terms)

    def __xor__(self, other: "Multivector") -> "Multivector":
        return self.wedge(other)

    # -- serialization -------------------------------------------------------

    def to_text(self) -> str:
        if self.is_zero():
            return "0"
        return " + ".join(f"[{c.to_text()}] {b.to_text()}" for b, c in self.terms())

    @staticmethod
    def from_text(text: str) -> "Multivector":
        text = text.strip()
        if text == "0":
            return Multivector()
        terms: dict[Blade, Scalar] = {}
        for part in text.split(" + "):
            m = re.match(r"^\[(.+)\] (.+)$", part)
            if not m:
                raise ValueError(f"bad multivector term {part!r}")
            terms[blade_from_text(m.group(2))] = Scalar.from_text(m.group(1))
        return Multivector(terms)

    def to_json(self) -> dict:
        return {"terms": [{"blade": b.to_text(), "coeff": c.to_json()} for b, c in self.terms()]}

    @staticmethod
    def from_json(data: dict) -> "Multivector":
        return Multivector(
            {blade_from_text(t["blade"]): Scalar.from_json(t["coeff"]) for t in data["terms"]}
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
    terms: dict[Blade, Scalar] = {}
    for blade, coeff in a._terms.items():
        hsign, comp = hodge_complement(n, blade.sigma)
        c = coeff if hsign * degree_sign(blade.sigma_degree()) > 0 else -coeff
        new = Blade(comp, blade.omega, blade.rho)
        acc = terms.get(new)
        terms[new] = c if acc is None else acc + c
    return Multivector(terms)


def hodge_star_sigma(n: int, a: Multivector) -> Multivector:
    """Hodge star on pure sigma multivectors over sigma_1..sigma_n."""
    for blade in a._terms:
        if blade.omega or blade.rho:
            raise NonSigmaInput(f"non-sigma factor in {blade.to_text()}")
        if blade.sigma & ~full_sigma_mask(n):
            raise NonSigmaInput(f"sigma index above n={n} in {blade.to_text()}")
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


def top_coefficient(n: int, a: Multivector, with_rho: bool = False) -> Scalar:
    return a.coefficient(top_blade(n, with_rho))
