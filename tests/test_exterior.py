import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagkin.errors import IndexOutOfRange, NonSigmaInput, RhoOrdering, UnitMismatch
from flagkin.exterior import (
    Blade,
    Multivector,
    blade_from_text,
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
        pref = Scalar.of((-1) ** (n * (n - 1) // 2))
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
        terms[b] = Scalar.of(rnd.randint(-4, 4))
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
            terms[b] = Scalar.of(rnd.randint(-3, 3))
        return Multivector(terms), ks + ko

    a, da = homogeneous(rnd)
    b, db = homogeneous(rnd)
    sign = Scalar.of((-1) ** (da * db))
    assert a.wedge(b) == b.wedge(a).smul(sign)


@given(st.integers(2, 5), st.randoms(use_true_random=False))
@settings(max_examples=40)
def test_wedge_associative(n, rnd):
    a, b, c = (_random_mv(n, rnd) for _ in range(3))
    assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))


_UNITS = (Scalar.of(1), Scalar.omega(3), Scalar.omega(4, -1) * Scalar.vol_flag(), Scalar.vol_so(5, 2))


def _random_unit_mv(n, rnd, rho_ok):
    unit = rnd.choice(_UNITS)
    terms = {}
    for _ in range(rnd.randint(0, 5)):
        b = Blade(
            rnd.getrandbits(n + 1) & full_sigma_mask(n),
            rnd.getrandbits(n + 1) & full_omega_mask(n),
            rho_ok and rnd.random() < 0.3,
        )
        terms[b] = Scalar.of(rnd.randint(-4, 4), rnd.randint(1, 3)) * unit
    return Multivector(terms)


def _blade_by_blade(a, b):
    terms = {}
    for b1, c1 in a.terms():
        for b2, c2 in b.terms():
            sign, blade = wedge_blades(b1, b2)
            if sign:
                terms[blade] = terms.get(blade, Scalar()) + c1 * c2 * sign
    return Multivector(terms)


def _outcome(f, *args):
    try:
        return f(*args)
    except RhoOrdering:
        return RhoOrdering


@given(st.integers(2, 6), st.randoms(use_true_random=False), st.booleans())
@settings(max_examples=150)
def test_wedge_matches_blade_by_blade_sum(n, rnd, left_rho):
    a = _random_unit_mv(n, rnd, left_rho)
    b = _random_unit_mv(n, rnd, True)
    got, want = _outcome(Multivector.wedge, a, b), _outcome(_blade_by_blade, a, b)
    assert got == want
    if got is not RhoOrdering:
        assert got.terms() == want.terms()


def test_mixed_units_raise():
    a = sigma(2).smul(Scalar.omega(3))
    b = sigma(3).smul(Scalar.omega(4))
    with pytest.raises(UnitMismatch):
        a + b
    with pytest.raises(UnitMismatch):
        a - b
    with pytest.raises(UnitMismatch):
        Multivector({Blade(sigma=4): Scalar.omega(3), Blade(sigma=8): Scalar.of(2)})
    assert a + Multivector.zero() == a == Multivector.zero() + a
    assert (a - a).is_zero() and (a - a).units == ()


def test_terms_order_and_text_are_stable():
    m = (
        wedge(sigma(3), omega1(2), rho()).smul(Scalar.of(-3, 7))
        + wedge(sigma(1), sigma(4))
        + sigma(2).smul(Scalar.of(5, 2))
        + wedge(sigma(1), sigma(4), rho())
    ).smul(Scalar.omega(4, -1))
    assert [b.to_text() for b, _ in m.terms()] == ["s2", "s3^w21^rho", "s1^s4", "s1^s4^rho"]
    assert m.to_text() == (
        "[5/2 * omega(4)^-1] s2 + [-3/7 * omega(4)^-1] s3^w21^rho"
        " + [1/1 * omega(4)^-1] s1^s4 + [1/1 * omega(4)^-1] s1^s4^rho"
    )
    assert Multivector.from_text(m.to_text()) == m
    assert Multivector.from_json(m.to_json()) == m
    assert m.to_json()["terms"][1] == {
        "blade": "s3^w21^rho",
        "coeff": {"num": -3, "den": 7, "units": [{"sym": "omega(4)", "exp": -1}]},
    }


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
    full = Multivector.from_blade(top_blade(n, with_rho=True), Scalar.of(7))
    assert top_coefficient(n, full, with_rho=True) == Scalar.of(7)
    assert top_coefficient(n, full, with_rho=False).is_zero()


def test_text_round_trip():
    m = wedge(sigma(2), omega1(3)).smul(Scalar.of(-3, 7)) + wedge(sigma(1), sigma(4))
    assert Multivector.from_text(m.to_text()) == m
    assert blade_from_text("s2^w31^rho") == Blade(sigma=1 << 2, omega=1 << 3, rho=True)
    assert blade_from_text("1") == Blade()


def test_json_round_trip():
    m = wedge(sigma(2), omega1(2)).smul(Scalar.of(1, 2) * Scalar.omega(4, -1))
    assert Multivector.from_json(m.to_json()) == m
