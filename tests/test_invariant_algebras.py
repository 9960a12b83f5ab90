from fractions import Fraction

import pytest

from flagkin.errors import ExceptionalUnavailable
from flagkin.grassmann_oracle import generator, realize, u_element
from flagkin.invariant_algebras import (
    FlagContext,
    PresentedElement,
    embed_monomial,
    invariant_dimension,
    monomial_exponents,
)
from flagkin.linalg import SparseEchelon

from oracle_reference import elementary_symmetric


def _t(n):
    """E_1(x_22, ..., x_nn); the area algebra map sends t^i to i! E_i."""
    return elementary_symmetric(n, range(2, n + 1), 1)


def _generators(ctx):
    return embed_monomial(ctx, 1, 0), embed_monomial(ctx, 0, 1), u_element(ctx)


def _realized_basis_rows(ctx, k):
    """Rows of the realized basis of degree k: x^a y^(k-a), then u in the exceptional middle."""
    rows = [embed_monomial(ctx, a, b).body.row for a, b in monomial_exponents(ctx, k)]
    if ctx.exceptional and k == ctx.middle:
        rows.append(u_element(ctx).body.row)
    return rows


def test_context_invariants():
    ctx = FlagContext(5, 2)
    assert ctx.q == 2 and ctx.exceptional and ctx.middle == 2
    assert FlagContext(5, 1).exceptional is False
    assert FlagContext(4, 1).exceptional is False
    with pytest.raises(ValueError):
        FlagContext(4, 4)


def test_m_and_m_prime():
    ctx = FlagContext(5, 2)
    assert [ctx.m(k) for k in range(5)] == [0, 1, 2, 1, 0]
    assert [ctx.m_prime(k) for k in range(5)] == [0, 1, 2, 2, 2]


def test_t_square():
    t = _t(3)
    assert t * t == elementary_symmetric(3, range(2, 4), 2).smul(Fraction(2))


@pytest.mark.parametrize("n", range(2, 8))
def test_t_nilpotency(n):
    t = _t(n)
    assert (t**n).is_zero()
    assert not (t ** (n - 1)).is_zero()


def test_flag_relations_n5():
    x, y, u = _generators(FlagContext(5, 2))
    assert (x**3).is_zero() and (y**3).is_zero()
    assert (u * x).is_zero() and (u * y).is_zero()


def test_u_square_n3():
    x, y, u = _generators(FlagContext(3, 1))
    assert u == generator(3, 2, 3)
    assert u * u == (x * y).smul(Fraction(-1, 2))


@pytest.mark.parametrize("n,p", [(3, 1), (5, 2), (7, 3)])
def test_u_square_general(n, p):
    x, y, u = _generators(FlagContext(n, p))
    want = (x**p * y**p).smul(Fraction((-1) ** p * (p + 1), 2 ** (2 * p)))
    assert u * u == want


def test_u_unavailable():
    for n, p in ((5, 1), (4, 1)):
        with pytest.raises(ExceptionalUnavailable):
            u_element(FlagContext(n, p))


def test_coordinates_basis_monomial():
    ctx = FlagContext(5, 2)
    x, y, _ = _generators(ctx)
    assert realize(ctx, PresentedElement(ctx, {(1, 1): 1})) == x * y


@pytest.mark.parametrize("n,p", [(5, 2), (4, 1), (6, 3), (3, 1)])
def test_t_maps_to_x_plus_y(n, p):
    ctx = FlagContext(n, p)
    assert _t(n) == embed_monomial(ctx, 1, 0) + embed_monomial(ctx, 0, 1)


def test_u_square_coordinates():
    ctx = FlagContext(3, 1)
    u = PresentedElement(ctx, {}, 1)
    assert u * u == PresentedElement(ctx, {(1, 1): -1}, den=2)
    assert realize(ctx, u * u) == u_element(ctx) * u_element(ctx)


def test_not_in_subalgebra():
    ctx = FlagContext(4, 1)
    stray = generator(4, 2, 3)  # not H-invariant: no combination of x, y
    ech = SparseEchelon()
    for row in _realized_basis_rows(ctx, 1):
        ech.add(row)
    assert ech.reduce(stray.body.row)


@pytest.mark.parametrize("n", range(2, 8))
def test_invariant_dimension_and_independence(n):
    for p in range(n):
        ctx = FlagContext(n, p)
        for k in range(n):
            rows = _realized_basis_rows(ctx, k)
            ech = SparseEchelon()
            added = sum(ech.add(row) for row in rows)
            assert added == len(rows) == invariant_dimension(ctx, k), (n, p, k)


def test_exceptional_middle_independence_even_p():
    # p = 2: u and x^1 y^1 both live in the middle degree and are independent
    ctx = FlagContext(5, 2)
    rows = _realized_basis_rows(ctx, 2)
    assert len(rows) == 4
    ech = SparseEchelon()
    assert all(ech.add(row) for row in rows)


@pytest.mark.parametrize("n,p", [(5, 2), (6, 2), (7, 3)])
def test_embedding_is_algebra_morphism(n, p):
    ctx = FlagContext(n, p)
    for i in range(ctx.p + 1):
        for j in range(ctx.q + 1):
            for i2 in range(ctx.p + 1 - i):
                for j2 in range(ctx.q + 1 - j):
                    lhs = embed_monomial(ctx, i, j) * embed_monomial(ctx, i2, j2)
                    assert lhs == embed_monomial(ctx, i + i2, j + j2)
