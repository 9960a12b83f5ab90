"""The integer oracle against Fraction references of the algorithms it replaced.

Forms, the closed forms and the table checks used to compute on Fractions.
The references below restate those algorithms: a form as a map from blade
key to a nonzero Fraction, wedged blade by blade with the sign of the
inversions of its concatenated generators, star1 and star1_inv by the
Hodge complement of the sigma part, and the two closed forms as the
Fraction sums of the coefficient theorems.  The integer Multivector must
agree with the form reference on random forms with n <= 6, in lowest
terms over a positive denominator, and the integer closed forms with the
Fraction ones at every term of every (n, p) with n <= 10.
"""

from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagkin.exterior import (
    Multivector,
    full_omega_mask,
    full_sigma_mask,
    star1,
    star1_inv,
    top_pairing,
)
from flagkin.invariant_algebras import FlagContext
from flagkin.kinematics import KinematicTable, closed_form_phi, closed_form_S, coproduct_tables
from flagkin.measures import phi_label, s_label
from flagkin.verify import _suite_closed_forms, verify_structure

LOW = (1 << 32) - 1


# -- forms -------------------------------------------------------------------------


def _generators(key):
    """(0, i) per sigma_i and (1, j) per omega_{j,1} of a blade key, in canonical order."""
    return [(0, i) for i in range(32) if key >> 32 >> i & 1] + [
        (1, j) for j in range(32) if key >> j & 1
    ]


def _inversion_sign(seq):
    inversions = sum(1 for x in range(len(seq)) for y in range(x) if seq[y] > seq[x])
    return -1 if inversions & 1 else 1


def _nonzero(form):
    return {k: c for k, c in form.items() if c}


def _add(a, b):
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + c
    return _nonzero(out)


def _smul(a, s):
    return _nonzero({k: c * s for k, c in a.items()})


def _wedge(a, b):
    out = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            if not k1 & k2:
                sign = _inversion_sign(_generators(k1) + _generators(k2))
                out[k1 | k2] = out.get(k1 | k2, 0) + sign * c1 * c2
    return _nonzero(out)


def _star(n, a, degree_sign):
    """Each blade's sigma part replaced by its complement, with the Hodge and degree signs.

    The Hodge sign makes sigma_S ^ sigma_C the positive sigma_1 ^ ... ^ sigma_n.
    """
    out = {}
    for key, c in a.items():
        s = key >> 32
        comp = full_sigma_mask(n) & ~s
        order = [i for i in range(32) if s >> i & 1] + [i for i in range(32) if comp >> i & 1]
        hodge = _inversion_sign(order)
        new = comp << 32 | key & LOW
        out[new] = out.get(new, 0) + c * hodge * degree_sign(s.bit_count())
    return _nonzero(out)


def _star1(n, a):
    return _star(n, a, lambda k: (-1) ** comb(n - k, 2))


def _star1_inv(n, a):
    return _star(n, a, lambda j: (-1) ** (comb(j, 2) + j * (n - j)))


def _assert_matches(got, want):
    """got is the integer form of want, in lowest terms over a positive denominator."""
    assert dict(got.terms()) == want
    assert got.den > 0 and 0 not in got.row.values()
    assert gcd(got.den, *got.row.values()) == 1


_coefficients = st.fractions(min_value=-6, max_value=6, max_denominator=8)


@st.composite
def _forms(draw, n):
    """Up to five blades over sigma_1..sigma_n, omega_2..omega_n, the top blade among them often."""
    top = full_sigma_mask(n) << 32 | full_omega_mask(n)
    masks = st.tuples(st.integers(0, full_sigma_mask(n)), st.integers(0, full_omega_mask(n)))
    keys = st.one_of(
        st.just(top),
        masks.map(lambda m: (m[0] & full_sigma_mask(n)) << 32 | m[1] & full_omega_mask(n)),
    )
    return _nonzero(draw(st.dictionaries(keys, _coefficients, max_size=5)))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_integer_forms_match_the_fraction_reference(data):
    n = data.draw(st.integers(2, 6), label="n")
    a, b, c = (data.draw(_forms(n)) for _ in range(3))
    s = data.draw(_coefficients, label="s")
    A, B, C = Multivector(a), Multivector(b), Multivector(c)
    _assert_matches(A, a)
    _assert_matches(A.wedge(B), _wedge(a, b))
    _assert_matches(A.wedge(B).wedge(C), _wedge(_wedge(a, b), c))
    _assert_matches(A + B, _add(a, b))
    _assert_matches(A - B, _add(a, _smul(b, -1)))
    _assert_matches(-A, _smul(a, -1))
    _assert_matches(A.smul(s), _smul(a, s))
    _assert_matches(A.smul(s.numerator, s.denominator * 3), _smul(a, s / 3))
    _assert_matches(star1(n, A), _star1(n, a))
    _assert_matches(star1_inv(n, A), _star1_inv(n, a))
    top, one = full_sigma_mask(n) << 32 | full_omega_mask(n), Multivector.unit()
    for (num, den), ref in (
        (top_pairing(n, A, one), a),
        (top_pairing(n, A.wedge(B), one), _wedge(a, b)),
        (top_pairing(n, A, B), _wedge(a, b)),
        (top_pairing(n, A + C, one), _add(a, c)),
    ):
        assert den > 0 and gcd(num, den) == 1
        assert Fraction(num, den) == ref.get(top, 0)


def test_equal_forms_are_equal_and_hash_equal():
    # 1/2 + 1/2 reduces to the integer form 1, whatever denominators built it
    half = Multivector({1 << 34: Fraction(1, 2)})
    one = half + half
    assert one == Multivector({1 << 34: 1}) and one.den == 1
    assert hash(one) == hash(Multivector({1 << 34: 1}))
    assert (one - half).smul(2) == one


# -- closed forms --------------------------------------------------------------------


def _binom(m, r):
    return comb(m, r) if 0 <= r <= m else 0


def _c(ctx, k, i):
    n, m_k = ctx.n, ctx.m(k)
    return Fraction(
        _binom(n - 1, i), _binom(n - 1, k) * _binom(m_k, i) * _binom(abs(k - ctx.q) + m_k, i)
    )


def _phi_reference(ctx, k, a, j, b):
    p, q = ctx.p, ctx.q
    return Fraction(
        _binom(q - k + j + a - b, j - b) * _binom(p - a + b, b),
        _binom(q, j - b) * _binom(p, b),
    )


def _s_reference(ctx, k, i, j, b, c):
    p, q = ctx.p, ctx.q
    mk, mpk = ctx.m(k), ctx.m_prime(k)
    mpj, mpl = ctx.m_prime(j), ctx.m_prime(k - j)
    total = Fraction(0)
    for t in range(mpk - mk, mpk - i + 1):
        inner = Fraction(0)
        for s in range(max(mpj - b, t - mpl), min(mpj, t - mpl + c) + 1):
            inner += Fraction(
                _binom(b, mpj - s)
                * _binom(c, mpl - t + s)
                * _binom(q - k + t - s + j, j - s)
                * _binom(p - t + s, s),
                _binom(q, j - s) * _binom(p, s),
            )
        total += (-1) ** t * _binom(mpk - t, i) * inner
    sign = (-1) ** (b + c + mpj + mpl)
    return sign * _c(ctx, k, i) / (_c(ctx, j, b) * _c(ctx, k - j, c)) * total


def _pair(f):
    return f.numerator, f.denominator


@pytest.mark.parametrize("n", range(2, 11))
def test_closed_forms_match_the_fraction_reference(n):
    # each closed-form table holds, in this order, exactly the terms that
    # its theorem enumerates, each equal to its Fraction reference
    for p in range(n):
        ctx = FlagContext(n, p)
        for k in range(n):
            for a in ctx.phi_indices(k):
                want = [
                    ((phi_label(j, b), phi_label(k - j, a - b)), _pair(_phi_reference(ctx, k, a, j, b)))
                    for j in range(k + 1)
                    for b in ctx.phi_indices(j)
                    if a - b in ctx.phi_indices(k - j)
                ]
                assert list(closed_form_phi(ctx, k, a).items()) == want, (n, p, k, a)
            for i in range(ctx.m(k) + 1):
                want = [
                    ((s_label(j, b), s_label(k - j, c)), _pair(_s_reference(ctx, k, i, j, b, c)))
                    for j in range(k + 1)
                    for b in range(ctx.m(j) + 1)
                    for c in range(ctx.m(k - j) + 1)
                ]
                assert list(closed_form_S(ctx, k, i).items()) == want, (n, p, k, i)


# -- the production tables above the oracle's range -----------------------------------


@pytest.mark.parametrize("n", range(9, 17))
def test_tables_are_certified_above_the_oracle_range(n):
    # closed-form agreement and the structural laws need no form, so they
    # reach the tables that verify refuses without --max-n
    for p in range(n):
        ctx = FlagContext(n, p)
        assert _suite_closed_forms(ctx) is None, (n, p)
        assert verify_structure(ctx) is None, (n, p)


# -- coassociativity by the cyclic shift ------------------------------------------------


def _two_sided_coassociativity(ctx, family):
    """The first input whose (A (x) 1) A and (1 (x) A) A differ, on Fractions; None if none."""
    tables = {
        label: [(l, r, Fraction(*c)) for l, r, c in table.terms]
        for label, table in coproduct_tables(ctx, family).items()
    }
    for label, terms in tables.items():
        left, right = {}, {}
        for l, r, c in terms:
            for l2, r2, c2 in tables[l]:
                left[(l2, r2, r)] = left.get((l2, r2, r), 0) + c * c2
            for l2, r2, c2 in tables[r]:
                right[(l, l2, r2)] = right.get((l, l2, r2), 0) + c * c2
        if _nonzero(left) != _nonzero(right):
            return label
    return None


@pytest.mark.parametrize(
    "n, p, family, input, pair",
    [
        (4, 1, "S", s_label(2, 0), (s_label(1, 1), s_label(1, 0))),
        (5, 2, "Phi", phi_label(3, 1), (phi_label(1, 0), phi_label(2, 1))),
        (5, 2, "Phi", phi_label(2, 1), (phi_label(1, 1), phi_label(1, 0))),
    ],
)
def test_cyclic_coassociativity_finds_what_the_two_sided_check_finds(
    monkeypatch, n, p, family, input, pair
):
    # a term and its mirror scaled by 3 leave the table cocommutative, and
    # break coassociativity for the first input the two-sided check names
    ctx = FlagContext(n, p)
    tables = coproduct_tables(ctx, family)
    table = tables[input]
    mirror = pair[::-1]
    terms = tuple(
        (l, r, (3 * c[0], c[1]) if (l, r) in (pair, mirror) else c) for l, r, c in table.terms
    )
    assert terms != table.terms
    monkeypatch.setitem(tables, input, KinematicTable(ctx, input, family, terms))
    first = _two_sided_coassociativity(ctx, family)
    assert first is not None
    assert verify_structure(ctx) == f"coassociativity[{family}]: A({first})"
