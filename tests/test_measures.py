import math
from fractions import Fraction

import pytest

from flagkin.errors import ExceptionalUnavailable, IndexOutOfRange
from flagkin.grassmann_oracle import realize
from flagkin.invariant_algebras import FlagContext, PresentedElement, embed_monomial
from flagkin.measures import (
    PHI_EX,
    MeasureLabel,
    base_change,
    basis_labels,
    binom,
    c_constant,
    expand_presented,
    global_factor,
    phi_label,
    presented_dual,
    s_label,
    validate_label,
)


def test_c_constant_examples():
    # c_constant is a reduced (num, den)
    for n, p in ((4, 1), (5, 2), (6, 0)):
        assert c_constant(n, 1, p, 0) == (1, n - 1)
        for k in range(n):
            assert c_constant(n, k, p, 0) == (1, binom(n - 1, k))
        assert c_constant(n, n - 1, p, 0) == (1, 1)
    assert c_constant(5, 1, 2, 1) == (1, 2)  # C(4,1) / (C(4,1) C(1,1) C(2,1)), reduced
    with pytest.raises(IndexOutOfRange):
        c_constant(5, 1, 2, 2)


def test_s_in_phi_examples():
    # S[k,i] = c_i sum_a B[i][a] Phi[k,a]
    ctx = FlagContext(5, 2)
    B, _, c = base_change(ctx, 1)
    assert (B[0], c[0]) == ((1, 1), (1, 4))  # S[1,0] = (Phi[1,0] + Phi[1,1]) / 4
    assert base_change(ctx, 4)[::2] == (((1,),), ((1, 1),))  # S[4,0] = Phi[4,2]
    assert base_change(ctx, 0)[::2] == (((1,),), ((1, 1),))


def test_phi_in_s_examples():
    # Phi[k,a] = sum_i B_inv[a][i] / c_i S[k,i]
    ctx = FlagContext(5, 2)
    assert base_change(ctx, 0)[1] == ((1,),)
    _, B_inv, c = base_change(ctx, 1)
    assert B_inv[1] == (1, -1)  # Phi[1,1] = 4 S[1,0] - 2 S[1,1]
    assert c == ((1, 4), (1, 2))


@pytest.mark.parametrize("n,p", [(n, p) for n in range(2, 31) for p in range(n)])
def test_base_change_mutual_inverse(n, p):
    # every (n, p) that table serves, up to its size guard n = 30; the c_i
    # cancel from both products, and each is a positive reduced (num, den)
    ctx = FlagContext(n, p)
    for k in range(n):
        B, B_inv, c = base_change(ctx, k)
        m = ctx.m(k) + 1
        assert len(B) == len(B_inv) == len(c) == m == len(ctx.phi_indices(k)), (n, p, k)
        for i in range(m):
            for j in range(m):
                pq = sum(B[i][t] * B_inv[t][j] for t in range(m))
                qp = sum(B_inv[i][t] * B[t][j] for t in range(m))
                assert pq == qp == int(i == j), (n, p, k, i, j)
        assert all(num > 0 and den > 0 and math.gcd(num, den) == 1 for num, den in c)


@pytest.mark.parametrize("n,p", [(4, 1), (5, 2), (6, 3), (7, 2)])
def test_dual_base_change_is_inverse_transpose(n, p):
    # Expanding each S-dual over the Phi-duals must reproduce the transpose
    # of the Phi-in-S matrix, i.e. the inverse transpose of the primal change.
    ctx = FlagContext(n, p)
    for k in range(n):
        _, B_inv, c = base_change(ctx, k)  # Phi-in-S: rows a, cols i, over c_i
        a_vals = [l.idx for l in basis_labels(ctx, k, "Phi") if l.kind == "Phi"]
        for i in range(ctx.m(k) + 1):
            expansion = expand_presented(ctx, presented_dual(ctx, s_label(k, i)), k, "Phi")
            for row, a in enumerate(a_vals):
                got = Fraction(*expansion.get(phi_label(k, a), (0, 1)))
                assert got == B_inv[row][i] / Fraction(*c[i]), (n, p, k, i, a)


def test_phi_dual_examples():
    # presented duals are omega_n times the duals
    ctx = FlagContext(5, 2)
    y_over_q = PresentedElement(ctx, {(0, 1): 1}, den=ctx.q)
    assert presented_dual(ctx, phi_label(1, 0)) == y_over_q
    assert presented_dual(ctx, phi_label(0, 0)) == PresentedElement(ctx, {(0, 0): 1})
    assert presented_dual(ctx, phi_label(4, 2)) == PresentedElement(ctx, {(2, 2): 1}, den=4)


def test_phi_ex_dual_examples():
    ctx3 = FlagContext(3, 1)
    assert presented_dual(ctx3, PHI_EX) == PresentedElement(ctx3, {}, -1)
    ctx5 = FlagContext(5, 2)
    assert presented_dual(ctx5, PHI_EX) == PresentedElement(ctx5, {}, 1, 2)
    with pytest.raises(ExceptionalUnavailable):
        presented_dual(FlagContext(4, 1), PHI_EX)


@pytest.mark.parametrize("n,p", [(3, 1), (4, 1), (4, 2), (5, 2), (5, 0)])
def test_expand_in_duals_inverts_duals(n, p):
    ctx = FlagContext(n, p)
    for k in range(n):
        for family in ("Phi", "S"):
            for label in basis_labels(ctx, k, family):
                got = expand_presented(ctx, presented_dual(ctx, label), k, family)
                assert got == {label: (1, 1)}, (n, p, k, family, label)


@pytest.mark.parametrize("n,p", [(4, 1), (5, 2), (6, 2), (5, 1)])
def test_global_dual_sum_identity(n, p):
    # glob^* sends the area dual t^k to the sum of all S-duals in degree k:
    # omega_n k! sum_i S*(k,i) = (x+y)^k.  (For m_k = 0 this reduces to the
    # single-term form; the sum is required as soon as m_k > 0.)
    ctx = FlagContext(n, p)
    x_plus_y = embed_monomial(ctx, 1, 0) + embed_monomial(ctx, 0, 1)
    for k in range(n):
        total = None
        for i in range(ctx.m(k) + 1):
            d = realize(ctx, presented_dual(ctx, s_label(k, i)))  # omega_n S*(k,i)
            total = d if total is None else total + d
        assert total.smul(math.factorial(k)) == x_plus_y**k, (n, p, k)


def test_globalize_examples():
    ctx = FlagContext(5, 2)
    assert global_factor(ctx, s_label(2, 1)) == 1
    assert global_factor(ctx, phi_label(2, 1)) == binom(2, 1) * binom(2, 1)
    assert global_factor(ctx, PHI_EX) == 0
    with pytest.raises(ValueError):
        global_factor(ctx, MeasureLabel("Sp", 1))


@pytest.mark.parametrize("n,p", [(4, 1), (5, 2), (6, 3), (6, 0)])
def test_globalize_consistency(n, p):
    # S[k,i] globalizes like its expansion over the Phi[k,a]
    ctx = FlagContext(n, p)
    for k in range(n):
        phi_factors = [global_factor(ctx, phi_label(k, a)) for a in ctx.phi_indices(k)]
        B, _, c = base_change(ctx, k)
        for i, row in enumerate(B):
            lhs = Fraction(*c[i]) * sum(e * f for e, f in zip(row, phi_factors))
            assert lhs == global_factor(ctx, s_label(k, i)), (n, p, k, i)


def test_label_text_round_trip():
    # labels are printed, never parsed: the CLI builds them from --k, --a, --i, --ex
    labels = (phi_label(2, 1), s_label(3, 0), PHI_EX, MeasureLabel("Sp", 1))
    for label, text in zip(labels, ("Phi[2,1]", "S[3,0]", "PhiEx", "Sp[1]"), strict=True):
        assert label.to_text() == str(label) == text


def test_basis_labels():
    ctx = FlagContext(5, 2)
    assert [l.to_text() for l in basis_labels(ctx, 2, "Phi")] == [
        "Phi[2,0]",
        "Phi[2,1]",
        "Phi[2,2]",
        "PhiEx",
    ]
    assert [l.to_text() for l in basis_labels(ctx, 3, "S")] == ["S[3,0]", "S[3,1]"]


@pytest.mark.parametrize("n,p", [(n, p) for n in range(2, 7) for p in range(n)])
def test_one_label_rule(n, p):
    """validate_label accepts exactly the listed labels; the (k, idx) functions agree."""
    ctx = FlagContext(n, p)
    families = {
        "Phi": (phi_label, (lambda k, a: presented_dual(ctx, phi_label(k, a)),)),
        "S": (
            s_label,
            (
                lambda k, i: presented_dual(ctx, s_label(k, i)),
                lambda k, i: c_constant(n, k, p, i),
            ),
        ),
    }
    degrees = range(-1, n + 1)
    for family, (make, functions) in families.items():
        listed = {l for k in degrees for l in basis_labels(ctx, k, family) if l.kind == family}
        for k in degrees:
            for idx in degrees:
                label = make(k, idx)
                try:
                    validate_label(ctx, label)
                    valid = True
                except IndexOutOfRange:
                    valid = False
                assert valid == (label in listed), label
                for fn in functions:
                    if valid:
                        fn(k, idx)
                    else:
                        with pytest.raises(IndexOutOfRange):
                            fn(k, idx)
