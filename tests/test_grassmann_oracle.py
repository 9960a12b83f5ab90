"""Oracle-layer tests.

The pairing values asserted here are the ones the engine's pinned
conventions actually produce (star1 with its displayed sign rule, the
orientation sigma_1 ^ ... ^ omega_{n,1}, pairings as omega_n times
the top-blade coefficient).  The rotation pairings land exactly on the
stated -vol SO(n) and -vol SO(n)/2; the flag-side diagonal acquires a
(-1)^k twist, the exceptional pairing a 2^-p factor, and the generating
identity reads (-1)^(n-1) (alpha-alpha~)^p (beta-beta~)^q.  Those three
deviations cannot be removed without breaking the rotation anchors: for
n=3 the representing form of Phi_{1,1} coincides with that of S_{2,2}, so
the stated values -vol SO(3) and +omega_3 would force opposite signs on
the same top-blade coefficient.
"""

import itertools
from math import factorial

import pytest

from flagkin.errors import BadIndexSet, DegreeMismatch, DimensionMismatch, ExceptionalUnavailable
from flagkin.exterior import Multivector, omega1, sigma, wedge
import flagkin.grassmann_oracle as grassmann_oracle
from flagkin.grassmann_oracle import (
    eta_ex,
    eta_hat,
    eta_poly,
    generating_identity_check,
    generator,
    generating_identity_polynomial,
    honest_diagonal_twist,
    honest_exceptional_pairing,
    honest_generating_identity,
    pairing,
    rotation_pairing,
    tau_ex,
    tau_tilde,
    u_element,
)
from flagkin.invariant_algebras import FlagContext, embed_monomial
from flagkin.measures import binom
from flagkin.rotation_algebra import chord_basis
from flagkin.scalars import Scalar

import oracle_reference
from convolution_reference import convolution_cross_check
from flagkin_caches import clear_caches, flagkin_caches

CONTEXTS = [(n, p) for n in range(2, 7) for p in range(n)]


def test_eta_hat_examples():
    ctx = FlagContext(3, 1)
    assert eta_hat(ctx, 0, 0) == wedge(omega1(2), omega1(3))
    assert eta_hat(ctx, 2, 1) == wedge(sigma(2), sigma(3))
    assert eta_hat(ctx, 1, 1) == wedge(sigma(2), omega1(3))


@pytest.mark.parametrize("n", range(2, 11))
def test_eta_poly_matches_the_product_reference(n):
    for p in range(n):
        ctx = FlagContext(n, p)
        assert eta_poly(ctx) == oracle_reference.eta_poly(ctx), p


@pytest.mark.parametrize("n", range(2, 10))
def test_generating_identity_matches_the_product_reference(n):
    for p in range(n):
        ctx = FlagContext(n, p)
        want = oracle_reference.generating_identity_polynomial(ctx)
        assert generating_identity_polynomial(ctx) == want, p


@pytest.mark.parametrize("n", range(3, 12, 2))
def test_u_element_matches_the_determinant_reference(n):
    ctx = FlagContext(n, (n - 1) // 2)
    entries = [[generator(n, i, j) for j in ctx.block2()] for i in ctx.block1()]
    assert u_element(ctx) == oracle_reference.determinant(entries)


@pytest.mark.parametrize("n", range(2, 10))
def test_embed_monomial_matches_the_product_reference(n):
    e = oracle_reference.elementary_symmetric
    for p in range(n):
        ctx = FlagContext(n, p)
        for a in range(p + 1):
            for b in range(ctx.q + 1):
                want = (e(n, ctx.block1(), a) * e(n, ctx.block2(), b)).smul(factorial(a) * factorial(b))
                assert embed_monomial(ctx, a, b) == want, (p, a, b)


def test_realized_generators_multiply_no_forms(monkeypatch):
    from flagkin.rotation_algebra import AlgebraElement

    def refuse(self, other):
        raise AssertionError("a realized generator multiplied forms")

    clear_caches()
    monkeypatch.setattr(AlgebraElement, "__mul__", refuse)
    ctx = FlagContext(7, 3)
    u_element(ctx)
    for a in range(ctx.p + 1):
        for b in range(ctx.q + 1):
            embed_monomial(ctx, a, b)


def test_eta_ex_examples():
    assert eta_ex(FlagContext(3, 1)) == wedge(sigma(3), omega1(3))
    assert eta_ex(FlagContext(5, 2)) == wedge(sigma(4), sigma(5), omega1(4), omega1(5))
    with pytest.raises(ExceptionalUnavailable):
        eta_ex(FlagContext(4, 1))


@pytest.mark.parametrize("n,p", CONTEXTS)
def test_pairing_orthogonality_and_diagonal(n, p):
    ctx = FlagContext(n, p)
    q = ctx.q
    labels = [
        (k, a)
        for k in range(n)
        for a in range(max(0, k - q), min(k, p) + 1)
    ]
    for (k, a) in labels:
        for (l, b) in labels:
            value = pairing(ctx, tau_tilde(ctx, k, a), eta_hat(ctx, l, b))
            if (k, a) == (l, b):
                want = (
                    honest_diagonal_twist(k)
                    * binom(p, a)
                    * binom(q, k - a)
                    * Scalar.omega(n)
                )
                assert value == want, (k, a)
            else:
                assert value.is_zero(), (k, a, l, b)


@pytest.mark.parametrize("n,p", [(3, 1), (5, 2)])
def test_exceptional_pairing(n, p):
    ctx = FlagContext(n, p)
    value = pairing(ctx, tau_ex(ctx), eta_ex(ctx))
    assert value == honest_exceptional_pairing(ctx)
    # relative to the stated (-1)^p p! omega_n, the model carries 2^-p
    stated = Scalar((-1) ** p * factorial(p)) * Scalar.omega(n)
    assert value == stated * Scalar.of(1, 2**p)


@pytest.mark.parametrize("n,p", [(3, 1), (5, 2)])
def test_tau_against_eta_ex_vanishes(n, p):
    ctx = FlagContext(n, p)
    k = ctx.middle
    for a in range(k + 1):
        assert pairing(ctx, tau_tilde(ctx, k, a), eta_ex(ctx)).is_zero(), a


@pytest.mark.parametrize("n,p", CONTEXTS)
def test_generating_identity(n, p):
    ctx = FlagContext(n, p)
    assert honest_generating_identity(ctx)
    if ctx.p + ctx.q > 0:
        assert not generating_identity_check(ctx)


@pytest.mark.parametrize("n,p", [(4, 1), (5, 2)])
def test_oracle_suite_catches_a_star1_inv_sign_flip(monkeypatch, n, p):
    """The generating identity states every flag pairing, so it sees a sign flipped in one degree."""
    from flagkin import exterior
    from flagkin.verify import _suite_oracle

    def flipped_star1_inv(n, a):
        def sign(j):
            s = -1 if (j * (j - 1) // 2 + j * (n - j)) & 1 else 1
            return -s if j == n - 2 else s

        return exterior._complement_sigma(n, a, sign)

    ctx = FlagContext(n, p)
    assert _suite_oracle(ctx) is None
    with monkeypatch.context() as m:
        m.setattr(grassmann_oracle, "star1_inv", flipped_star1_inv)
        assert _suite_oracle(ctx) == "generating identity polynomial has unexpected shape"


def test_generating_product_off_the_top_blade_is_a_degree_mismatch(monkeypatch):
    """A star1_inv that drops sigma_1 raises a FlagkinError, which verify reports as a FAIL."""
    original = grassmann_oracle.star1_inv

    def dropping_sigma_1(n, a):
        return Multivector({key & ~(1 << 33): c for key, c in original(n, a).row.items()})

    with monkeypatch.context() as m:
        m.setattr(grassmann_oracle, "star1_inv", dropping_sigma_1)
        with pytest.raises(DegreeMismatch):
            grassmann_oracle.generating_identity_polynomial(FlagContext(4, 1))


def test_generating_product_off_the_top_blade_in_omega_is_a_degree_mismatch(monkeypatch):
    """A star1_inv that drops omega_{n,1} keeps every sigma degree and must raise as well."""
    original = grassmann_oracle.star1_inv

    def dropping_omega_n(n, a):
        return Multivector({key & ~(1 << n): c for key, c in original(n, a).row.items()})

    with monkeypatch.context() as m:
        m.setattr(grassmann_oracle, "star1_inv", dropping_omega_n)
        with pytest.raises(DegreeMismatch):
            grassmann_oracle.generating_identity_polynomial(FlagContext(4, 1))


def test_generating_polynomial_n3():
    # (-1)^(3-1) (alpha - alpha~)(beta - beta~): four signed monomials
    poly = dict(generating_identity_polynomial(FlagContext(3, 1)))
    assert poly == {
        (1, 1, 0, 0): (1, 1), (1, 0, 0, 1): (-1, 1), (0, 1, 1, 0): (-1, 1), (0, 0, 1, 1): (1, 1)
    }
    assert all(type(num) is int and type(den) is int for num, den in poly.values())


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_rotation_pairings(n):
    for i in range(2, n + 1):
        assert rotation_pairing(n, i, i, (i,), (i,)) == Scalar.of(-1) * Scalar.vol_so(n)
        for j in range(2, n + 1):
            if i == j:
                continue
            assert rotation_pairing(n, i, j, (i,), (j,)) == Scalar.of(-1, 2) * Scalar.vol_so(n)
            for k in range(2, n + 1):
                if k not in (i, j):
                    assert rotation_pairing(n, i, j, (i,), (k,)).is_zero()


def test_rotation_pairing_only_degree_one():
    with pytest.raises(BadIndexSet):
        rotation_pairing(4, 2, 3, (2, 3), (2, 3))


def _monomials(n, degree):
    gens = [(i, j) for i in range(2, n + 1) for j in range(i, n + 1)]
    return list(itertools.product(gens, repeat=degree))


@pytest.mark.parametrize("n", [3, 4])
def test_convolution_cross_check_exhaustive(n):
    ctx = FlagContext(n, 1)
    for d1 in range(1, n - 1):
        for d2 in range(1, n - d1):
            for m1 in _monomials(n, d1):
                for m2 in _monomials(n, d2):
                    assert convolution_cross_check(ctx, m1, m2), (m1, m2)


@pytest.mark.parametrize("n", [5, 6])
def test_convolution_cross_check_chord_pairs(n):
    # every pair of chord monomials with d1 <= d2 and d1 + d2 <= n - 1;
    # n = 7 is covered by the convolution suite in the golden verify output
    ctx = FlagContext(n, 1)
    chords = {
        d: [tuple((v, v) for v in diag) + m for diag, m in chord_basis(n, d)] for d in range(1, n)
    }
    checked = 0
    for d1 in range(1, n):
        for d2 in range(d1, n - d1):
            for m1 in chords[d1]:
                for m2 in chords[d2]:
                    assert convolution_cross_check(ctx, m1, m2), (m1, m2)
                    checked += 1
    assert checked == {5: 800, 6: 6950}[n]


def test_convolution_degree_guard():
    with pytest.raises(DimensionMismatch):
        convolution_cross_check(FlagContext(3, 1), ((2, 2),), ((2, 3), (3, 3)))


def test_pairing_rejects_inhomogeneous_dual():
    ctx = FlagContext(4, 1)
    mixed = generator(4, 2, 2) + oracle_reference.one(4)
    with pytest.raises(DegreeMismatch):
        pairing(ctx, mixed, eta_hat(ctx, 1, 1))


def test_bridge_constants_rederived():
    # The dual normalization used by the measures module, rederived through
    # the oracle: the realized Phi dual, over omega_n, pairs with eta_hat(k,a)
    # to the (-1)^k twist of 1.
    from flagkin.grassmann_oracle import realize
    from flagkin.measures import phi_label, presented_dual

    for n, p in ((4, 1), (5, 2), (3, 1)):
        ctx = FlagContext(n, p)
        for k in range(n):
            for a in range(max(0, k - ctx.q), min(k, ctx.p) + 1):
                dual = realize(ctx, presented_dual(ctx, phi_label(k, a)))  # omega_n Phi*
                value = pairing(ctx, dual, eta_hat(ctx, k, a)) * Scalar.omega(n, -1)
                assert value == honest_diagonal_twist(k), (n, p, k, a)


def test_convolution_suite_catches_wrong_star1_inv_sign(monkeypatch):
    """Dropping the j (n - j) term of star1_inv's degree sign must be caught."""
    from flagkin import exterior, grassmann_oracle
    from flagkin.verify import _suite_convolution

    def wrong_star1_inv(n, a):
        return exterior._complement_sigma(n, a, lambda j: -1 if (j * (j - 1) // 2) & 1 else 1)

    ctx = FlagContext(4, 1)
    assert _suite_convolution(ctx) is None
    with monkeypatch.context() as m:
        m.setattr(grassmann_oracle, "star1_inv", wrong_star1_inv)
        detail = _suite_convolution(ctx)
    assert detail is not None and detail.startswith("convolution mismatch at")


def test_convolution_suite_keeps_no_form_cache():
    """The suite holds one chord monomial at a time; only dalpha(n) stays cached."""
    from flagkin.verify import _suite_convolution

    clear_caches()
    assert _suite_convolution(FlagContext(9, 4)) is None
    holding = {name for name, cache in flagkin_caches() if cache.cache_info().currsize}
    assert holding == {"flagkin.grassmann_oracle.dalpha"}
