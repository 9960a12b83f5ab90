"""The x, y, u presentation route against the exterior-kernel oracle."""

import pytest

import flagkin.kinematics as kinematics
import flagkin.verify as verify
from flagkin.errors import NotHomogeneous, OracleMismatch
from flagkin.invariant_algebras import FlagContext, PresentedElement
from flagkin.kinematics import coproduct_tables, exceptional_coproduct, oracle_coproduct_tables
from flagkin.measures import (
    PHI_EX,
    basis_labels,
    dual_element,
    dual_product,
    expand_in_duals,
    expand_presented,
    phi_label,
    presented_dual,
)

CONTEXTS = [(n, p) for n in range(2, 9) for p in range(n)]


def _labels(ctx, family):
    return list(dict.fromkeys(l for k in range(ctx.n) for l in basis_labels(ctx, k, family)))


@pytest.mark.parametrize("n,p", CONTEXTS)
def test_tables_equal_oracle(n, p):
    ctx = FlagContext(n, p)
    for family in ("Phi", "S"):
        assert coproduct_tables(ctx, family) == oracle_coproduct_tables(ctx, family), family


@pytest.mark.parametrize("n,p", [(n, p) for n, p in CONTEXTS if n <= 6])
def test_products_equal_exterior_expansion(n, p):
    ctx = FlagContext(n, p)
    for family in ("Phi", "S"):
        labels = _labels(ctx, family)
        for left in labels:
            for right in labels:
                deg = left.degree(ctx) + right.degree(ctx)
                if deg > n - 1:
                    continue
                want = expand_in_duals(
                    ctx, dual_element(ctx, left) * dual_element(ctx, right), deg, family
                )
                assert dual_product(ctx, left, right, family) == want, (left, right)


@pytest.mark.parametrize("n,p", [(3, 1), (5, 2), (6, 2)])
def test_expand_inverts_presented_duals(n, p):
    ctx = FlagContext(n, p)
    for family in ("Phi", "S"):
        for label in _labels(ctx, family):
            got = expand_presented(ctx, presented_dual(ctx, label), label.degree(ctx), family)
            assert got == {label: 1}


def test_expand_rejects_wrong_degree():
    ctx = FlagContext(5, 2)
    with pytest.raises(NotHomogeneous):
        expand_presented(ctx, presented_dual(ctx, phi_label(1, 0)), 2, "Phi")
    with pytest.raises(NotHomogeneous):
        expand_presented(ctx, PresentedElement(ctx, {}, presented_dual(ctx, PHI_EX).u), 1, "Phi")


def test_exceptional_mismatch_raises(monkeypatch):
    ctx = FlagContext(5, 2)
    real = kinematics.expand_in_duals

    def tampered(*args):
        return {label: c + c for label, c in real(*args).items()}

    monkeypatch.setattr(kinematics, "expand_in_duals", tampered)
    with pytest.raises(OracleMismatch):
        exceptional_coproduct(ctx)


def test_verify_reports_oracle_disagreement(monkeypatch):
    monkeypatch.setattr(kinematics, "oracle_coproduct_tables", lambda ctx, family: {})
    assert verify._suite_closed_forms(FlagContext(3, 1)) == (
        "Phi tables differ from the exterior-kernel oracle"
    )
