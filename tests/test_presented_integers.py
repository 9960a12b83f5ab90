"""The integer presented engine against a Fraction reference of the algorithm it replaced.

The reference below restates the engine as it computed before it moved to
integers: Fraction binomials, the S/Phi base change as two rational
matrices, presented duals with Fraction coordinates, the x, y, u product
with the u^2 relation, and the expansion over the duals.  Every table for
every (n, p) with n <= 10, in both families (with the PhiEx terms where
PhiEx exists) and --hug-weil, and every dual product with n <= 6, must
agree with it term by term and in the same order, each (num, den) being
the numerator and denominator of the reference Fraction.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

import pytest

from flagkin.invariant_algebras import FlagContext
from flagkin.kinematics import coproduct_tables, hug_weil_coproduct
from flagkin.measures import PHI_EX, MeasureLabel, basis_labels, dual_product, phi_label, s_label


def _binom(m, r):
    return Fraction(comb(m, r)) if 0 <= r <= m else Fraction(0)


def _c(ctx, k, i):
    n, m_k = ctx.n, ctx.m(k)
    return _binom(n - 1, i) / _binom(n - 1, k) / _binom(m_k, i) / _binom(abs(k - ctx.q) + m_k, i)


def _s_in_phi(ctx, k):
    """P[i][a]: S_k^(p),i = sum_a P[i][a] Phi_{k,a}."""
    mp = ctx.m_prime(k)
    return [
        [_c(ctx, k, i) * _binom(mp - a, i) for a in ctx.phi_indices(k)]
        for i in range(ctx.m(k) + 1)
    ]


def _phi_in_s(ctx, k):
    """Q[a][i], the inverse of P."""
    mp = ctx.m_prime(k)
    return [
        [(-1) ** (a + mp + i) * _binom(i, mp - a) / _c(ctx, k, i) for i in range(ctx.m(k) + 1)]
        for a in ctx.phi_indices(k)
    ]


def _phi_scale(ctx, a, b):
    return _binom(ctx.q, b) * _binom(ctx.p, a) * factorial(a) * factorial(b)


def _dual(ctx, label):
    """omega_n times the dual of label, as (xy, u) with Fraction coordinates."""
    k = label.k
    if label.kind == "Phi":
        a = label.idx
        return {(a, k - a): 1 / _phi_scale(ctx, a, k - a)}, Fraction(0)
    if label.kind == "S":
        i = label.idx
        rows = zip(ctx.phi_indices(k), _phi_in_s(ctx, k))
        xy = {(a, k - a): row[i] / _phi_scale(ctx, a, k - a) for a, row in rows if row[i]}
        return xy, Fraction(0)
    return {}, Fraction((-1) ** ctx.p, factorial(ctx.p))


def _mul(ctx, left, right):
    (xy1, u1), (xy2, u2) = left, right
    p, q = ctx.p, ctx.q
    xy = {}
    for (a, b), c in xy1.items():
        for (a2, b2), c2 in xy2.items():
            if a + a2 <= p and b + b2 <= q:
                key = (a + a2, b + b2)
                xy[key] = xy.get(key, 0) + c * c2
    u = u1 * xy2.get((0, 0), 0) + u2 * xy1.get((0, 0), 0)
    if u1 and u2:
        xy[(p, q)] = xy.get((p, q), 0) + u1 * u2 * Fraction((-1) ** p * (p + 1), 4**p)
    return {key: c for key, c in xy.items() if c}, u


def _expand(ctx, element, k, family):
    xy, u = element
    keys = [(a, k - a) for a in ctx.phi_indices(k)]
    weights = [_phi_scale(ctx, a, b) for a, b in keys]
    if family == "Phi":
        rows = [
            (phi_label(k, a), [w if key == (a, b) else 0 for key in keys])
            for (a, b), w in zip(keys, weights)
        ]
    else:
        rows = [
            (s_label(k, i), [e * w for e, w in zip(row, weights)])
            for i, row in enumerate(_s_in_phi(ctx, k))
        ]
    out = {}
    for label, row in rows:
        c = sum(w * xy.get(key, 0) for key, w in zip(keys, row))
        if c:
            out[label] = c
    if u:
        out[PHI_EX] = u * (-1) ** ctx.p * factorial(ctx.p)
    return out


def _dual_product(ctx, left, right, family):
    product = _mul(ctx, _dual(ctx, left), _dual(ctx, right))
    return _expand(ctx, product, left.degree(ctx) + right.degree(ctx), family)


@lru_cache(maxsize=None)
def _tables(ctx, family):
    """{input: [(left, right, Fraction), ...]}, every table with its terms in print order."""
    out = {}
    for k in range(ctx.n):
        acc = {label: {} for label in basis_labels(ctx, k, family)}
        for j in range(k + 1):
            for left in basis_labels(ctx, j, family):
                for right in basis_labels(ctx, k - j, family):
                    for slot, c in _dual_product(ctx, left, right, family).items():
                        acc[slot][(left, right)] = c
        for label, terms in acc.items():
            out[label] = [(l, r, c) for (l, r), c in terms.items()]
    return out


def _hug_weil(ctx, k):
    scale = [_binom(ctx.q, j) for j in range(k + 1)]
    sp = lambda j: MeasureLabel("Sp", j)
    base = _tables(ctx, "Phi")[phi_label(k, 0)]
    return [(sp(l.k), sp(r.k), c * scale[l.k] * scale[r.k] / scale[k]) for l, r, c in base]


def _ratios(terms):
    return tuple((l, r, (c.numerator, c.denominator)) for l, r, c in terms)


@pytest.mark.parametrize("n", range(2, 11))
def test_tables_match_the_fraction_reference(n):
    for p in range(n):
        ctx = FlagContext(n, p)
        for family in ("Phi", "S"):
            reference = _tables(ctx, family)
            tables = coproduct_tables(ctx, family)
            assert list(tables) == list(reference), (n, p, family)
            for label, table in tables.items():
                assert table.terms == _ratios(reference[label]), (n, p, family, label)
        for k in range(n - p):
            assert hug_weil_coproduct(ctx, k).terms == _ratios(_hug_weil(ctx, k)), (n, p, k)
    _tables.cache_clear()


@pytest.mark.parametrize("n", range(2, 7))
def test_dual_products_match_the_fraction_reference(n):
    for p in range(n):
        ctx = FlagContext(n, p)
        for family in ("Phi", "S"):
            labels = [l for k in range(n) for l in basis_labels(ctx, k, family)]
            for left in labels:
                for right in labels:
                    if left.degree(ctx) + right.degree(ctx) > n - 1:
                        continue
                    got = list(dual_product(ctx, left, right, family).items())
                    want = _dual_product(ctx, left, right, family)
                    assert got == [(l, (c.numerator, c.denominator)) for l, c in want.items()]
