"""The x, y, u presentation route against its exterior realization."""

import math
from fractions import Fraction

import pytest

import flagkin.grassmann_oracle as grassmann_oracle
from flagkin.errors import NotHomogeneous
from flagkin.grassmann_oracle import realize, zero
from flagkin.invariant_algebras import FlagContext, PresentedElement
from flagkin.measures import (
    PHI_EX,
    basis_labels,
    dual_product,
    expand_presented,
    phi_label,
    presented_dual,
)
from flagkin.verify import _suite_flag_algebra

from oracle_reference import flag_algebra_pairs

CONTEXTS = [(n, p) for n in range(2, 9) for p in range(n)]


def _labels(ctx, family):
    return list(dict.fromkeys(l for k in range(ctx.n) for l in basis_labels(ctx, k, family)))


@pytest.mark.parametrize("n,p", CONTEXTS)
def test_tables_equal_oracle(n, p):
    # Tables are products of presented duals; the suite checks that realizing
    # the presentation by forms is an injective ring map.
    assert _suite_flag_algebra(FlagContext(n, p)) is None


def test_flag_suite_and_its_pairwise_reference_agree_to_eleven():
    for n in range(2, 12):
        for p in range(n):
            ctx = FlagContext(n, p)
            assert _suite_flag_algebra(ctx) is None and flag_algebra_pairs(ctx) is None, (n, p)


@pytest.mark.parametrize("n,p", [(n, p) for n, p in CONTEXTS if n <= 6])
def test_products_equal_exterior_expansion(n, p):
    # dual_product, recombined over the realized duals, is the wedge of the
    # realized duals; each realized dual is omega_n times the dual form, and
    # the coefficients are the rational multiples of omega_n^-1.
    ctx = FlagContext(n, p)
    for family in ("Phi", "S"):
        labels = _labels(ctx, family)
        forms = {label: realize(ctx, presented_dual(ctx, label)) for label in labels}
        for left in labels:
            for right in labels:
                if left.degree(ctx) + right.degree(ctx) > n - 1:
                    continue
                got = zero(n)
                for label, (num, den) in dual_product(ctx, left, right, family).items():
                    assert type(num) is int and den > 0, (left, right, label)
                    assert num and math.gcd(num, den) == 1, (left, right, label)
                    got = got + forms[label].smul(Fraction(num, den))
                assert got == forms[left] * forms[right], (left, right)


@pytest.mark.parametrize("n,p", [(3, 1), (5, 2), (6, 2)])
def test_expand_inverts_presented_duals(n, p):
    # Recombining the duals with the coefficients expand_presented reads off
    # gives back every basis monomial, u included.
    ctx = FlagContext(n, p)
    monomials = [
        (PresentedElement(ctx, {(a, k - a): 1}), k)
        for k in range(n)
        for a in ctx.phi_indices(k)
    ]
    if ctx.exceptional:
        monomials.append((PresentedElement(ctx, {}, 1), ctx.middle))
    for family in ("Phi", "S"):
        for element, k in monomials:
            xy, u = {}, Fraction(0)
            for label, c in expand_presented(ctx, element, k, family).items():
                dual = presented_dual(ctx, label)
                c = Fraction(*c) / dual.den
                for key, v in dual.xy.items():
                    xy[key] = xy.get(key, 0) + c * v
                u += c * dual.u
            # each monomial has denominator 1
            assert ({key: v for key, v in xy.items() if v}, u) == (element.xy, element.u)


def test_expand_rejects_wrong_degree():
    ctx = FlagContext(5, 2)
    with pytest.raises(NotHomogeneous):
        expand_presented(ctx, presented_dual(ctx, phi_label(1, 0)), 2, "Phi")
    with pytest.raises(NotHomogeneous):
        expand_presented(ctx, PresentedElement(ctx, {}, presented_dual(ctx, PHI_EX).u), 1, "Phi")


# -- mutations the flag algebra suite must catch -------------------------------

_real_mul = PresentedElement.__mul__


def _with_xy(element, extra, den=1):
    """element plus extra[(a, b)] x^a y^b / den, over a common denominator."""
    xy = {key: c * den for key, c in element.xy.items()}
    for key, c in extra.items():
        xy[key] = xy.get(key, 0) + c * element.den
    xy = {key: c for key, c in xy.items() if c}
    return PresentedElement(element.ctx, xy, element.u * den, element.den * den)


def _u_square_doubled(self, other):
    out = _real_mul(self, other)
    if self.u and other.u:
        u1 = PresentedElement(self.ctx, {}, self.u, self.den)
        u2 = PresentedElement(self.ctx, {}, other.u, other.den)
        square = _real_mul(u1, u2)
        out = _with_xy(out, square.xy, square.den)
    return out


def _x_power_kept(self, other):
    p, q = self.ctx.p, self.ctx.q
    extra: dict = {}
    for (a, b), c in self.xy.items():
        for (a2, b2), c2 in other.xy.items():
            if a + a2 > p and b + b2 <= q:
                extra[(a + a2, b + b2)] = extra.get((a + a2, b + b2), 0) + c * c2
    return _with_xy(_real_mul(self, other), extra, self.den * other.den)


def _ux_in_one_order(self, other):
    out = _real_mul(self, other)
    if self.u and (1, 0) in other.xy:
        extra = {(self.ctx.p, 1): self.u * other.xy[(1, 0)]}
        out = _with_xy(out, extra, self.den * other.den)
    return out


@pytest.mark.parametrize(
    "mutation",
    [_u_square_doubled, _x_power_kept, _ux_in_one_order],
    ids=["u_square_doubled", "x_power_kept", "ux_in_one_order"],
)
def test_flag_suite_catches_a_wrong_product(monkeypatch, mutation):
    monkeypatch.setattr(PresentedElement, "__mul__", mutation)
    for n, p in ((3, 1), (5, 2)):
        assert _suite_flag_algebra(FlagContext(n, p)) is not None, (n, p)


def test_verify_reports_oracle_disagreement(monkeypatch):
    # one realized monomial scaled by 2: x * y no longer wedges to x y
    real = grassmann_oracle.embed_monomial

    def scaled(ctx, a, b):
        form = real(ctx, a, b)
        return form.smul(2) if (a, b) == (1, 1) else form

    monkeypatch.setattr(grassmann_oracle, "embed_monomial", scaled)
    assert _suite_flag_algebra(FlagContext(5, 2)) == (
        "(x^0 y^1) * (x^1 y^0) differs from the wedge of their forms"
    )
