"""Exact scalars: rationals times a Laurent monomial in formal volume units.

The unit symbols omega(m) (volume of the (m-1)-sphere) and volSO(n) are
opaque and commute; they are never given numeric values.  Only the oracle
pairings and the checks of them use Scalar.  The rational is held as a
reduced integer pair, so this module loads no rational type; value builds
the Fraction for the tests that read one.
"""

from __future__ import annotations

from math import gcd

from .errors import DivisionByZero, UnitMismatch
from .records import Record, _set

Units = tuple[tuple[str, int], ...]


def omega_sym(m: int) -> str:
    if m < 1:
        raise ValueError("omega index must be >= 1")
    return f"omega({m})"


def vol_so_sym(n: int) -> str:
    return f"volSO({n})"


_LEADING = tuple("123456789")


def _check_sym(sym: str) -> None:
    """Refuse sym unless it is omega(m) or volSO(m) for a decimal m without leading zeros."""
    head, paren, index = sym.partition("(")
    if head in ("omega", "volSO") and paren and index.endswith(")"):
        digits = index[:-1]
        if digits[:1] in _LEADING and (len(digits) == 1 or digits[1:].isdecimal()):
            return
    raise ValueError(f"unknown unit symbol {sym!r}")


def _merge_units(a: Units, b: Units, flip_b: bool = False) -> Units:
    acc: dict[str, int] = dict(a)
    for sym, exp in b:
        if flip_b:
            exp = -exp
        acc[sym] = acc.get(sym, 0) + exp
    return tuple(sorted((s, e) for s, e in acc.items() if e != 0))


class Scalar(Record):
    """An exact rational num/den times a monomial in formal unit symbols."""

    __slots__ = ("num", "units", "den")

    def __init__(self, value=0, units: Units = (), den: int = 1) -> None:
        self.__post_init__(value, units, den)

    def __post_init__(self, value, units, den: int = 1) -> None:
        """Store value / den as a reduced pair with den > 0, and units sorted, with none on zero.

        value is an int or an exact rational with integer numerator and
        denominator, such as a Fraction: a float is refused, since no
        verification path may round.  Each unit symbol appears at most
        once, with a nonzero exponent.
        """
        if isinstance(value, int):
            num = int(value)
        else:
            num, d = getattr(value, "numerator", None), getattr(value, "denominator", None)
            if not (isinstance(num, int) and isinstance(d, int)):
                raise TypeError(f"a Scalar value must be exact, got {type(value).__name__}")
            den *= d
        if not den:
            raise ZeroDivisionError(f"Scalar {num}/0")
        if den < 0:
            num, den = -num, -den
        g = gcd(num, den)
        num, den = num // g, den // g
        if num == 0:
            units = ()
        else:
            for sym, exp in units:
                _check_sym(sym)
                if exp == 0:
                    raise ValueError("zero exponent stored in unit map")
            units = tuple(sorted(units))
            if len(units) > 1 and len({sym for sym, _ in units}) < len(units):
                raise ValueError(f"repeated unit symbol in {units}")
        _set(self, "num", num)
        _set(self, "units", units)
        _set(self, "den", den)

    @property
    def value(self):
        """The rational num/den as a Fraction; the tests read it."""
        from fractions import Fraction

        return Fraction(self.num, self.den)

    def __repr__(self) -> str:
        return f"Scalar(value={self.value!r}, units={self.units!r})"

    # -- constructors ------------------------------------------------------

    @staticmethod
    def of(num, den: int = 1) -> "Scalar":
        return Scalar(num, (), den)

    @staticmethod
    def omega(m: int, exp: int = 1) -> "Scalar":
        return Scalar(1, ((omega_sym(m), exp),))

    @staticmethod
    def vol_so(n: int, exp: int = 1) -> "Scalar":
        return Scalar(1, ((vol_so_sym(n), exp),))

    @staticmethod
    def coerce(x) -> "Scalar":
        """x as a Scalar: an int or an exact rational becomes one without units."""
        if isinstance(x, Scalar):
            return x
        try:
            return Scalar(x)
        except TypeError:
            raise TypeError(f"cannot coerce {type(x).__name__} to Scalar") from None

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num == 0

    def __bool__(self) -> bool:
        return self.num != 0

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "Scalar":
        other = Scalar.coerce(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.units != other.units:
            raise UnitMismatch(f"{self.units} vs {other.units}")
        return Scalar(self.num * other.den + other.num * self.den, self.units, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return Scalar(-self.num, self.units, self.den)

    def __sub__(self, other) -> "Scalar":
        return self + (-Scalar.coerce(other))

    def __rsub__(self, other) -> "Scalar":
        return Scalar.coerce(other) + (-self)

    def __mul__(self, other) -> "Scalar":
        other = Scalar.coerce(other)
        if self.is_zero() or other.is_zero():
            return Scalar()
        units = _merge_units(self.units, other.units)
        return Scalar(self.num * other.num, units, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Scalar":
        other = Scalar.coerce(other)
        if other.is_zero():
            raise DivisionByZero("division by zero scalar")
        if self.is_zero():
            return Scalar()
        units = _merge_units(self.units, other.units, flip_b=True)
        return Scalar(self.num * other.den, units, self.den * other.num)

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
        parts = [f"{self.num}/{self.den}"]
        parts += [f"{sym}^{exp}" for sym, exp in self.units]
        return " * ".join(parts)

    def __str__(self) -> str:
        return self.to_text()
