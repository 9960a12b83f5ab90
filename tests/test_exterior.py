from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagkin.errors import IndexOutOfRange, NonSigmaInput, RhoOrdering
from flagkin.exterior import (
    Blade,
    Multivector,
    full_omega_mask,
    full_sigma_mask,
    hodge_star_sigma,
    omega1,
    rho,
    sigma,
    star1,
    star1_inv,
    top_blade,
    top_coefficient,
    wedge,
    wedge_blades,
)
from flagkin.scalars import Scalar


def test_repeated_generator_annihilates():
    assert wedge(sigma(2), sigma(2)).is_zero()
    assert wedge(omega1(3), omega1(3)).is_zero()
    assert wedge(rho(), rho()).is_zero()


def test_transposition_parity():
    assert wedge(sigma(3), sigma(2)) == -wedge(sigma(2), sigma(3))


def test_merge_sign_under_canonical_order():
    # The merge permutation of (s2, w31 | s3, w21) into the canonical order
    # s2 s3 w21 w31 has two inversions, so the sign is +1.
    got = wedge(sigma(2), omega1(3)).wedge(wedge(sigma(3), omega1(2)))
    canonical = wedge(sigma(2), sigma(3), omega1(2), omega1(3))
    assert got == canonical


def test_hodge_n2():
    assert hodge_star_sigma(2, sigma(1)) == sigma(2)
    assert hodge_star_sigma(2, sigma(2)) == -sigma(1)


def test_hodge_n3():
    assert hodge_star_sigma(3, wedge(sigma(2), sigma(3))) == sigma(1)


def test_hodge_rejects_omega():
    with pytest.raises(NonSigmaInput):
        hodge_star_sigma(3, wedge(sigma(2), omega1(3)))


def test_hodge_defining_property():
    import itertools

    for n in (2, 3, 4, 5):
        vol = Multivector.from_blade(Blade(sigma=full_sigma_mask(n)))
        for k in range(n + 1):
            for subset in itertools.combinations(range(1, n + 1), k):
                b = Multivector.from_blade(Blade(sigma=sum(1 << i for i in subset)))
                assert b.wedge(hodge_star_sigma(n, b)) == vol, (n, subset)


def test_star1_spec_example():
    # n=3: *_1(s2^w31) = (-1)^C(2,2) (*s2)^w31 = s1^s3^w31
    assert star1(3, wedge(sigma(2), omega1(3))) == wedge(sigma(1), sigma(3), omega1(3))


def test_star1_degree_zero_case():
    # *_1(w21) = (-1)^C(n,2) s1^...^sn^w21
    for n in (2, 3, 4, 5):
        pref = (-1) ** (n * (n - 1) // 2)
        vol = Multivector.from_blade(Blade(sigma=full_sigma_mask(n)))
        want = vol.wedge(omega1(2)).smul(pref)
        assert star1(n, omega1(2)) == want, n


def _random_mv(n, rnd):
    terms = {}
    for _ in range(5):
        b = Blade(
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
            b = Blade(
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


def _random_rational_mv(n, rnd, rho_ok):
    terms = {}
    for _ in range(rnd.randint(0, 5)):
        b = Blade(
            rnd.getrandbits(n + 1) & full_sigma_mask(n),
            rnd.getrandbits(n + 1) & full_omega_mask(n),
            rho_ok and rnd.random() < 0.3,
        )
        terms[b] = Fraction(rnd.randint(-4, 4), rnd.randint(1, 3))
    return Multivector(terms)


def _blade_by_blade(a, b):
    terms = {}
    for b1, c1 in a.terms():
        for b2, c2 in b.terms():
            sign, blade = wedge_blades(b1, b2)
            if sign:
                terms[blade] = terms.get(blade, 0) + c1 * c2 * sign
    return Multivector(terms)


def _outcome(f, *args):
    try:
        return f(*args)
    except RhoOrdering:
        return RhoOrdering


@given(st.integers(2, 6), st.randoms(use_true_random=False), st.booleans())
@settings(max_examples=150)
def test_wedge_matches_blade_by_blade_sum(n, rnd, left_rho):
    a = _random_rational_mv(n, rnd, left_rho)
    b = _random_rational_mv(n, rnd, True)
    got, want = _outcome(Multivector.wedge, a, b), _outcome(_blade_by_blade, a, b)
    assert got == want
    if got is not RhoOrdering:
        assert got.terms() == want.terms()


def test_terms_order_and_text_are_stable():
    m = (
        wedge(sigma(3), omega1(2), rho()).smul(Fraction(-3, 7))
        + wedge(sigma(1), sigma(4))
        + sigma(2).smul(Fraction(5, 2))
        + wedge(sigma(1), sigma(4), rho())
    ).smul(2)
    assert m.terms() == [
        (Blade(sigma=1 << 2), 5),
        (Blade(sigma=1 << 3, omega=1 << 2, rho=True), Fraction(-6, 7)),
        (Blade(sigma=1 << 1 | 1 << 4), 2),
        (Blade(sigma=1 << 1 | 1 << 4, rho=True), 2),
    ]
    assert all(type(c) is Fraction for _, c in m.terms())
    assert m.to_text() == "[5/1] s2 + [-6/7] s3^w21^rho + [2/1] s1^s4 + [2/1] s1^s4^rho"


def test_forms_hold_rationals_only():
    # a volume unit belongs to the Scalar a caller builds from a coefficient
    with pytest.raises(TypeError):
        sigma(2).smul(Scalar.omega(3))
    with pytest.raises(TypeError):
        Multivector({Blade(sigma=4): Scalar.of(2)})
    assert Multivector.__slots__ == ("_row",)


def test_indices_above_31_are_refused():
    assert not sigma(31).wedge(omega1(31)).is_zero()
    with pytest.raises(IndexOutOfRange):
        sigma(32)
    with pytest.raises(IndexOutOfRange):
        omega1(32)


def test_rho_ordering():
    measure_form = wedge(sigma(2), omega1(3)).wedge(rho())
    assert not measure_form.is_zero()
    with pytest.raises(RhoOrdering):
        rho().wedge(sigma(2))


def test_top_coefficient():
    n = 3
    full = Multivector.from_blade(top_blade(n, with_rho=True), 7)
    assert top_coefficient(n, full, with_rho=True) == Fraction(7)
    assert top_coefficient(n, full, with_rho=False) == 0
