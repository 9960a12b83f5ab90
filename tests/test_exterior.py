from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagkin.errors import IndexOutOfRange
from flagkin.exterior import (
    Multivector,
    full_omega_mask,
    full_sigma_mask,
    omega1,
    sigma,
    star1,
    star1_inv,
    top_pairing,
    wedge,
)
from flagkin.grassmann_oracle import rotation_measure_rep
from flagkin.scalars import Scalar

from oracle_reference import top_coefficient


def _blade(sigma=0, omega=0):
    """The blade key of a sigma mask and an omega mask."""
    return sigma << 32 | omega


def test_repeated_generator_annihilates():
    assert wedge(sigma(2), sigma(2)).is_zero()
    assert wedge(omega1(3), omega1(3)).is_zero()


def test_transposition_parity():
    assert wedge(sigma(3), sigma(2)) == -wedge(sigma(2), sigma(3))


def test_merge_sign_under_canonical_order():
    # The merge permutation of (s2, w31 | s3, w21) into the canonical order
    # s2 s3 w21 w31 has two inversions, so the sign is +1.
    got = wedge(sigma(2), omega1(3)).wedge(wedge(sigma(3), omega1(2)))
    canonical = wedge(sigma(2), sigma(3), omega1(2), omega1(3))
    assert got == canonical


def test_hodge_n2():
    # on a sigma blade of degree k, *_1 is the Hodge star times (-1)^C(n-k,2)
    assert star1(2, sigma(1)) == sigma(2)
    assert star1(2, sigma(2)) == -sigma(1)


def test_hodge_n3():
    assert star1(3, wedge(sigma(2), sigma(3))) == sigma(1)


def test_hodge_defining_property():
    # b ^ *_1(b) = (-1)^C(n-k,2) s1^...^sn for every sigma blade b of degree k
    import itertools

    for n in (2, 3, 4, 5):
        vol = Multivector({_blade(sigma=full_sigma_mask(n)): 1})
        for k in range(n + 1):
            for subset in itertools.combinations(range(1, n + 1), k):
                b = Multivector({_blade(sigma=sum(1 << i for i in subset)): 1})
                want = vol.smul((-1) ** ((n - k) * (n - k - 1) // 2))
                assert b.wedge(star1(n, b)) == want, (n, subset)


def test_star1_spec_example():
    # n=3: *_1(s2^w31) = (-1)^C(2,2) (*s2)^w31 = s1^s3^w31
    assert star1(3, wedge(sigma(2), omega1(3))) == wedge(sigma(1), sigma(3), omega1(3))


def test_star1_degree_zero_case():
    # *_1(w21) = (-1)^C(n,2) s1^...^sn^w21
    for n in (2, 3, 4, 5):
        pref = (-1) ** (n * (n - 1) // 2)
        vol = Multivector({_blade(sigma=full_sigma_mask(n)): 1})
        want = vol.wedge(omega1(2)).smul(pref)
        assert star1(n, omega1(2)) == want, n


def _random_mv(n, rnd):
    terms = {}
    for _ in range(5):
        b = _blade(
            rnd.getrandbits(n + 1) & full_sigma_mask(n),
            rnd.getrandbits(n + 1) & full_omega_mask(n),
        )
        terms[b] = rnd.randint(-4, 4)
    return Multivector(terms)


@given(st.integers(2, 6), st.randoms(use_true_random=False))
@settings(max_examples=60)
def test_star1_inverse_contract(n, rnd):
    m = _random_mv(n, rnd)
    assert star1(n, star1_inv(n, m)) == m
    assert star1_inv(n, star1(n, m)) == m


@given(st.integers(2, 6), st.randoms(use_true_random=False))
@settings(max_examples=60)
def test_graded_commutativity(n, rnd):
    def homogeneous(rnd):
        ks = rnd.randint(0, n)
        ko = rnd.randint(0, n - 1)
        terms = {}
        import itertools

        sig_sets = list(itertools.combinations(range(1, n + 1), ks))
        om_sets = list(itertools.combinations(range(2, n + 1), ko))
        for _ in range(3):
            b = _blade(
                sum(1 << i for i in rnd.choice(sig_sets)),
                sum(1 << j for j in rnd.choice(om_sets)),
            )
            terms[b] = rnd.randint(-3, 3)
        return Multivector(terms), ks + ko

    a, da = homogeneous(rnd)
    b, db = homogeneous(rnd)
    assert a.wedge(b) == b.wedge(a).smul((-1) ** (da * db))


@given(st.integers(2, 5), st.randoms(use_true_random=False))
@settings(max_examples=40)
def test_wedge_associative(n, rnd):
    a, b, c = (_random_mv(n, rnd) for _ in range(3))
    assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))


def _random_rational_mv(n, rnd):
    terms = {}
    for _ in range(rnd.randint(0, 5)):
        b = _blade(
            rnd.getrandbits(n + 1) & full_sigma_mask(n),
            rnd.getrandbits(n + 1) & full_omega_mask(n),
        )
        terms[b] = Fraction(rnd.randint(-4, 4), rnd.randint(1, 3))
    return Multivector(terms)


def _generators(key):
    """The generators of a blade key as (0, i) for sigma_i and (1, j) for omega_{j,1}, ascending."""
    return [(0, i) for i in range(32) if key >> 32 >> i & 1] + [
        (1, j) for j in range(32) if key >> j & 1
    ]


def wedge_blades(k1, k2):
    """Sign (0 or +-1) and key of k1 ^ k2: the parity of the concatenated generators' inversions."""
    seq = _generators(k1) + _generators(k2)
    if len(set(seq)) < len(seq):
        return 0, 0
    inversions = sum(1 for x in range(len(seq)) for y in range(x) if seq[y] > seq[x])
    return (-1) ** inversions, k1 | k2


def _blade_by_blade(a, b):
    terms = {}
    for k1, c1 in a.terms():
        for k2, c2 in b.terms():
            sign, key = wedge_blades(k1, k2)
            if sign:
                terms[key] = terms.get(key, 0) + c1 * c2 * sign
    return Multivector(terms)


@given(st.integers(2, 6), st.randoms(use_true_random=False))
@settings(max_examples=150)
def test_wedge_matches_blade_by_blade_sum(n, rnd):
    a = _random_rational_mv(n, rnd)
    b = _random_rational_mv(n, rnd)
    got, want = a.wedge(b), _blade_by_blade(a, b)
    assert got == want
    assert got.terms() == want.terms()


def test_terms_order_and_text_are_stable():
    m = (
        wedge(sigma(3), omega1(2)).smul(Fraction(-3, 7))
        + wedge(sigma(1), sigma(4))
        + sigma(2).smul(Fraction(5, 2))
        + wedge(omega1(2), omega1(5)).smul(-1)
    ).smul(2)
    assert m.terms() == [
        (_blade(omega=1 << 2 | 1 << 5), -2),
        (_blade(sigma=1 << 2), 5),
        (_blade(sigma=1 << 3, omega=1 << 2), Fraction(-6, 7)),
        (_blade(sigma=1 << 1 | 1 << 4), 2),
    ]
    assert all(type(k) is int and type(c) is Fraction for k, c in m.terms())
    assert m.to_text() == "[-2/1] w21^w51 + [5/1] s2 + [-6/7] s3^w21 + [2/1] s1^s4"


def test_forms_hold_rationals_only():
    # a volume unit belongs to the Scalar a caller builds from a coefficient
    with pytest.raises(TypeError):
        sigma(2).smul(Scalar.omega(3))
    with pytest.raises(TypeError):
        Multivector({_blade(sigma=4): Scalar.of(2)})
    assert Multivector.__slots__ == ("_row", "_den")


def test_floats_are_refused():
    # no verification path may round: a float coefficient or factor is an error, not a conversion
    with pytest.raises(TypeError):
        Multivector({_blade(sigma=4): 0.5})
    with pytest.raises(TypeError):
        sigma(2).smul(0.25)
    with pytest.raises(TypeError):
        Scalar(0.5)
    with pytest.raises(TypeError):
        Scalar.of(1) * 0.5
    assert sigma(2).smul(Fraction(1, 4)) == Multivector({_blade(sigma=4): Fraction(1, 4)})
    assert Scalar(2) == Scalar(Fraction(2))


def test_indices_above_31_are_refused():
    assert not sigma(31).wedge(omega1(31)).is_zero()
    assert Multivector({_blade(1 << 31, 1 << 31): 1}) == sigma(31).wedge(omega1(31))
    with pytest.raises(IndexOutOfRange):
        sigma(32)
    with pytest.raises(IndexOutOfRange):
        omega1(32)
    with pytest.raises(IndexOutOfRange):
        Multivector({_blade(sigma=1 << 32): 1})
    with pytest.raises(IndexOutOfRange):
        rotation_measure_rep(40, (33,), (33,))
    with pytest.raises(IndexOutOfRange):
        rotation_measure_rep(35, (2,), (2,))  # only the omega mask runs past bit 31


def test_top_coefficient():
    # the top coefficient of a form is its top pairing with 1
    n, one = 3, Multivector.unit()
    full = Multivector({_blade(full_sigma_mask(n), full_omega_mask(n)): 7})
    assert top_pairing(n, full, one) == (7, 1)
    assert top_pairing(n, full.wedge(sigma(4)), one) == (0, 1)
    assert top_pairing(n + 1, full.wedge(sigma(4)).wedge(omega1(4)), one) == (7, 1)
    assert top_pairing(n, full.smul(Fraction(2, 4)), one) == (7, 2)
    # s1^s2^s3^w21^w31 is already canonical, and w31 passes four generators
    # to its place in w31^s1^s2^s3^w21: both signs are +
    left = wedge(sigma(1), sigma(2), sigma(3), omega1(2))
    assert top_pairing(n, left, omega1(3)) == (1, 1)
    assert top_pairing(n, omega1(3), left) == (1, 1)
    # w21 against s1^s2^s3^w31: w21 passes three sigmas, so -
    assert top_pairing(n, omega1(2), wedge(sigma(1), sigma(2), sigma(3), omega1(3))) == (-1, 1)
    assert top_pairing(n, left.smul(Fraction(3, 4)), omega1(3).smul(Fraction(2, 9))) == (1, 6)


def _random_blades(rnd, n, count):
    """count random blade keys over sigma_1..sigma_(n+1), omega_2..omega_(n+1)."""
    sigmas, omegas = full_sigma_mask(n + 1), full_omega_mask(n + 1)
    return [_blade(rnd.getrandbits(n + 2) & sigmas, rnd.getrandbits(n + 2) & omegas) for _ in range(count)]


@given(st.integers(2, 8), st.booleans(), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_top_pairing_matches_the_top_coefficient_of_the_wedge(n, meet, rnd):
    # blades of mixed bidegree, some with an index above n; with meet, b also
    # holds the complement of some blades of a, so the product reaches the top
    top = _blade(full_sigma_mask(n), full_omega_mask(n))
    a_keys = _random_blades(rnd, n, rnd.randint(0, 6))
    b_keys = _random_blades(rnd, n, rnd.randint(0, 6))
    if meet:
        b_keys += [top & ~k for k in a_keys if rnd.random() < 0.7]
    coefficient = lambda: Fraction(rnd.choice([-5, -3, -1, 1, 2, 7]), rnd.choice([1, 2, 3, 6, 10]))
    a = Multivector({k: coefficient() for k in a_keys})
    b = Multivector({k: coefficient() for k in b_keys})
    num, den = top_pairing(n, a, b)
    assert den > 0 and gcd(num, den) == 1
    assert (num, den) == top_coefficient(n, a.wedge(b))
    assert top_pairing(n, b, a) == top_coefficient(n, b.wedge(a))
