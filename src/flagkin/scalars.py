"""Exact scalars: rationals times a Laurent monomial in formal volume units.

The unit symbols omega(m) (volume of the (m-1)-sphere) and volSO(n) are
opaque and commute; they are never given numeric values.  Only the oracle
pairings and the checks of them use Scalar.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import DivisionByZero, UnitMismatch
from .records import Record, _set

Units = tuple[tuple[str, int], ...]


def omega_sym(m: int) -> str:
    if m < 1:
        raise ValueError("omega index must be >= 1")
    return f"omega({m})"


def vol_so_sym(n: int) -> str:
    return f"volSO({n})"


# The index is a positive integer without leading zeros, as omega_sym writes it.
_SYM_RE = re.compile(r"^(omega|volSO)\(([1-9]\d*)\)$")


def _check_sym(sym: str) -> None:
    if not _SYM_RE.match(sym):
        raise ValueError(f"unknown unit symbol {sym!r}")


def _merge_units(a: Units, b: Units, flip_b: bool = False) -> Units:
    acc: dict[str, int] = dict(a)
    for sym, exp in b:
        if flip_b:
            exp = -exp
        acc[sym] = acc.get(sym, 0) + exp
    return tuple(sorted((s, e) for s, e in acc.items() if e != 0))


class Scalar(Record):
    """An exact rational times a monomial in formal unit symbols."""

    __slots__ = ("value", "units")

    def __init__(self, value: Fraction = Fraction(0), units: Units = ()) -> None:
        self.__post_init__(value, units)

    def __post_init__(self, value, units) -> None:
        """Store value as a Fraction and units sorted, with no units on zero.

        value is an int or a Fraction: a float is refused, since no
        verification path may round.  Each unit symbol appears at most
        once, with a nonzero exponent.
        """
        if not isinstance(value, Fraction):
            if not isinstance(value, int):
                raise TypeError(f"a Scalar value must be exact, got {type(value).__name__}")
            value = Fraction(value)
        if value == 0:
            units = ()
        else:
            for sym, exp in units:
                _check_sym(sym)
                if exp == 0:
                    raise ValueError("zero exponent stored in unit map")
            units = tuple(sorted(units))
            if len(units) > 1 and len({sym for sym, _ in units}) < len(units):
                raise ValueError(f"repeated unit symbol in {units}")
        _set(self, "value", value)
        _set(self, "units", units)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def of(num, den: int = 1) -> "Scalar":
        return Scalar(Fraction(num, den))

    @staticmethod
    def omega(m: int, exp: int = 1) -> "Scalar":
        return Scalar(Fraction(1), ((omega_sym(m), exp),))

    @staticmethod
    def vol_so(n: int, exp: int = 1) -> "Scalar":
        return Scalar(Fraction(1), ((vol_so_sym(n), exp),))

    @staticmethod
    def coerce(x) -> "Scalar":
        if isinstance(x, Scalar):
            return x
        if isinstance(x, (int, Fraction)):
            return Scalar(Fraction(x))
        raise TypeError(f"cannot coerce {type(x).__name__} to Scalar")

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return self.value == 0

    def __bool__(self) -> bool:
        return self.value != 0

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "Scalar":
        other = Scalar.coerce(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.units != other.units:
            raise UnitMismatch(f"{self.units} vs {other.units}")
        return Scalar(self.value + other.value, self.units)

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return Scalar(-self.value, self.units)

    def __sub__(self, other) -> "Scalar":
        return self + (-Scalar.coerce(other))

    def __rsub__(self, other) -> "Scalar":
        return Scalar.coerce(other) + (-self)

    def __mul__(self, other) -> "Scalar":
        other = Scalar.coerce(other)
        if self.is_zero() or other.is_zero():
            return Scalar()
        return Scalar(self.value * other.value, _merge_units(self.units, other.units))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Scalar":
        other = Scalar.coerce(other)
        if other.is_zero():
            raise DivisionByZero("division by zero scalar")
        if self.is_zero():
            return Scalar()
        return Scalar(self.value / other.value, _merge_units(self.units, other.units, flip_b=True))

    def __rtruediv__(self, other) -> "Scalar":
        return Scalar.coerce(other) / self

    def __pow__(self, k: int) -> "Scalar":
        if k == 0:
            return Scalar.of(1)
        if k < 0:
            return Scalar.of(1) / self ** (-k)
        out = self
        for _ in range(k - 1):
            out = out * self
        return out

    # -- serialization -----------------------------------------------------

    def to_text(self) -> str:
        parts = [f"{self.value.numerator}/{self.value.denominator}"]
        parts += [f"{sym}^{exp}" for sym, exp in self.units]
        return " * ".join(parts)

    def __str__(self) -> str:
        return self.to_text()
