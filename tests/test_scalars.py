import pytest
from hypothesis import given
from hypothesis import strategies as st

from flagkin.errors import DivisionByZero, UnitMismatch
from flagkin.scalars import Scalar


def test_like_unit_addition():
    a = Scalar.of(1, 2) * Scalar.omega(3, -1)
    b = Scalar.of(1, 3) * Scalar.omega(3, -1)
    assert a + b == Scalar.of(5, 6) * Scalar.omega(3, -1)


def test_rational_product():
    assert Scalar.of(2, 3) * (Scalar.of(3, 4) * Scalar.omega(5)) == Scalar.of(1, 2) * Scalar.omega(5)


def test_unit_mismatch():
    with pytest.raises(UnitMismatch):
        Scalar.omega(3) + Scalar.omega(4)


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        Scalar.of(1) / Scalar()


def test_zero_is_canonical():
    z = Scalar.omega(3) - Scalar.omega(3)
    assert z == Scalar() and z.units == ()


def test_units_cancel_in_division():
    s = Scalar.omega(4) * Scalar.vol_so(4) / Scalar.omega(4)
    assert s == Scalar.vol_so(4)
    assert (s / s) == Scalar.of(1)


def test_power():
    s = Scalar.of(2) * Scalar.omega(3, -1)
    assert s**3 == Scalar.of(8) * Scalar.omega(3, -3)
    assert s**0 == Scalar.of(1)
    assert s**-1 == Scalar.of(1, 2) * Scalar.omega(3)


rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=50)


@given(rationals, rationals, rationals)
def test_field_axioms(a, b, c):
    sa, sb, sc = Scalar(a), Scalar(b), Scalar(c)
    assert (sa + sb) + sc == sa + (sb + sc)
    assert sa * (sb + sc) == sa * sb + sa * sc
    assert sa * sb == sb * sa
    if b != 0:
        assert (sa / sb) * sb == sa


@given(rationals)
def test_canonical_form_idempotent(a):
    s = Scalar(a) * Scalar.omega(3, -1)
    again = Scalar(s.value, s.units)
    assert again == s
    assert s.value.denominator > 0
    import math

    assert math.gcd(s.value.numerator, s.value.denominator) == 1


def test_text_round_trip():
    s = Scalar.of(-5, 6) * Scalar.omega(3, -1) * Scalar.vol_so(4)
    # the text form is written, never read back
    assert s.to_text() == str(s) == "-5/6 * omega(3)^-1 * volSO(4)^1"


@pytest.mark.parametrize(
    "units",
    [(("omega(3)", 1), ("omega(3)", 1)), (("omega(0)", 1),), (("omega(03)", 1),)],
    ids=["repeated", "omega0", "leading-zero"],
)
def test_malformed_units_are_refused(units):
    # a repeated symbol would merge into one exponent, so omega(3)^1 * omega(3)^1
    # times omega(3)^-1 came out as 1/1; omega(0) is no unit omega_sym writes
    with pytest.raises(ValueError):
        Scalar(1, units)


SYMBOLS = [
    "omega(3)", "volSO(12)", "omega(1٣)", "omega(0)", "omega(03)", "omega()", "omega(3",
    "omega3)", "omega(-3)", "omega(+3)", "omega( 3)", "omega(3 )", "Omega(3)", "omega((3))",
    "omega(٣)", "vol(3)", "omegavolSO(3)", "omega(3)x", "omega(3)\n", "omega", "",
]


@pytest.mark.parametrize("sym", SYMBOLS)
def test_unit_symbols_are_those_of_the_pattern(sym):
    # a name, then a decimal index without leading zeros in parentheses, and nothing more
    import re

    if re.fullmatch(r"(omega|volSO)\(([1-9]\d*)\)", sym):
        assert Scalar(1, ((sym, 1),)).units == ((sym, 1),)
    else:
        with pytest.raises(ValueError):
            Scalar(1, ((sym, 1),))
