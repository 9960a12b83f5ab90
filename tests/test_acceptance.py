"""Acceptance suite: every criterion at exact arithmetic, zero tolerance.

Each test prints one CRITERION line (run with -s or -rA to see them all).
Criterion 5 asserts the stated oracle constants verbatim; its rotation
anchors hold, but the three flag-side constants provably cannot coexist
with them in any exterior-algebra realization (see the docstring of
tests/test_grassmann_oracle.py), so that criterion reports the honest
values and fails.
"""

import itertools
from fractions import Fraction
from math import comb, factorial

import pytest

from flagkin.grassmann_oracle import (
    eta_ex,
    eta_hat,
    generating_identity_check,
    generator,
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
from flagkin.kinematics import coproduct, coproduct_tables, hug_weil_coproduct
from flagkin.linalg import SparseEchelon
from flagkin.measures import (
    PHI_EX,
    MeasureLabel,
    base_change,
    basis_labels,
    binom,
    expand_presented,
    phi_label,
    presented_dual,
    s_label,
)
from flagkin.scalars import Scalar
from flagkin.verify import (
    _suite_base_change,
    _suite_dimensions,
    _suite_flag_algebra,
    _suite_ideal,
    _suite_rotation_relations,
    check_phi_closed_form,
    check_s_closed_form,
    verify_structure,
)

from convolution_reference import convolution_cross_check
from oracle_reference import determinant, elementary_symmetric, monomial


def _report(num: int, ok: bool, detail: str = "") -> None:
    tail = f" - {detail}" if detail else ""
    line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'}{tail}"
    print(line)
    if not ok:
        pytest.fail(line, pytrace=False)


def test_criterion_1_dimension_theorem():
    for n in range(2, 11):
        assert _suite_dimensions(FlagContext(n, 0)) is None, n
    _report(1, True, "chord-image rank = Narayana = combinatorial count, n <= 10")


def test_criterion_2_ideal_identities():
    for n in range(2, 7):
        assert _suite_ideal(FlagContext(n, 0)) is None, n
        idx = range(2, n + 1)
        for a, b in itertools.product(idx, repeat=2):
            assert generator(n, a, b) == generator(n, b, a)
        for a, b1, b2, b3 in itertools.product(idx, repeat=4):
            assert monomial(n, [(a, b1), (a, b2), (a, b3)]).is_zero()
    for n in range(7, 11):
        assert _suite_ideal(FlagContext(n, 0)) is None, n
    for n in range(2, 7):
        entries = [[generator(n, i, j) for j in range(2, n + 1)] for i in range(2, n + 1)]
        diag = monomial(n, [(d, d) for d in range(2, n + 1)])
        assert determinant(entries) == diag.smul(Fraction(factorial(n), 2 ** (n - 1)))
    for n in range(2, 9):
        E = lambda i: elementary_symmetric(n, range(2, n + 1), i)
        for i in range(n):
            for j in range(n - i):
                assert E(i) * E(j) == E(i + j).smul(Fraction(comb(i + j, i)))
    _report(2, True, "ideal generators, Lemma-type identities, det and E_i E_j")


def test_criterion_3_flag_algebra_presentation():
    for n in range(2, 8):
        for p in range(n):
            assert _suite_flag_algebra(FlagContext(n, p)) is None, (n, p)
    for n, p in ((3, 1), (5, 2), (7, 3)):
        # the suite checks the u relations exactly when u exists
        assert not u_element(FlagContext(n, p)).is_zero(), (n, p)
    # p even: u independent of x^(p/2) y^(p/2) in the middle degree
    ctx = FlagContext(5, 2)
    ech = SparseEchelon()
    assert ech.add(embed_monomial(ctx, 1, 1).body.row)
    assert ech.add(u_element(ctx).body.row)
    _report(3, True, "x, y, u presentation for n <= 7, exceptional n in {3,5,7}")


def test_criterion_4_base_changes():
    for n in range(2, 8):
        for p in range(n):
            ctx = FlagContext(n, p)
            assert _suite_base_change(ctx) is None, (n, p)
            for k in range(n):
                # S = c B Phi and Phi = B_inv c^-1 S, so the c_i cancel from Q P
                B, B_inv, c = base_change(ctx, k)
                m = len(B)
                for i in range(m):
                    for j in range(m):
                        qp = sum(B_inv[i][t] * B[t][j] for t in range(m))
                        assert qp == int(i == j), (n, p, k)
                # dual change = inverse transpose of the primal one
                a_vals = [
                    l.idx for l in basis_labels(ctx, k, "Phi") if l.kind == "Phi"
                ]
                for i in range(m):
                    dual = presented_dual(ctx, s_label(k, i))
                    expansion = expand_presented(ctx, dual, k, "Phi")
                    for row, a in enumerate(a_vals):
                        got = Fraction(*expansion.get(phi_label(k, a), (0, 1)))
                        assert got == B_inv[row][i] / Fraction(*c[i]), (n, p, k, i, a)
    _report(4, True, "S/Phi matrices mutually inverse; dual change inverse-transpose")


def test_criterion_5_dual_pairings():
    sub = []

    ok = True
    for n in range(2, 7):
        for i in range(2, n + 1):
            if rotation_pairing(n, i, i, (i,), (i,)) != Scalar.of(-1) * Scalar.vol_so(n):
                ok = False
            for j in range(2, n + 1):
                if i != j and rotation_pairing(n, i, j, (i,), (j,)) != Scalar.of(
                    -1, 2
                ) * Scalar.vol_so(n):
                    ok = False
    sub.append(("rotation pairings -volSO(n), -volSO(n)/2", ok, ""))

    ok = True
    for n in range(2, 7):
        for p in range(n):
            ctx = FlagContext(n, p)
            labels = [
                (k, a)
                for k in range(n)
                for a in range(max(0, k - ctx.q), min(k, p) + 1)
            ]
            for (k, a) in labels:
                for (l, b) in labels:
                    if (k, a) != (l, b):
                        if not pairing(ctx, tau_tilde(ctx, k, a), eta_hat(ctx, l, b)).is_zero():
                            ok = False
    sub.append(("off-diagonal pairings vanish", ok, ""))

    ok, detail = True, ""
    for n in range(2, 7):
        for p in range(n):
            ctx = FlagContext(n, p)
            for k in range(n):
                for a in range(max(0, k - ctx.q), min(k, p) + 1):
                    got = pairing(ctx, tau_tilde(ctx, k, a), eta_hat(ctx, k, a))
                    stated = binom(p, a) * binom(ctx.q, k - a) * Scalar.omega(n)
                    if got != stated:
                        if ok:
                            detail = (
                                f"first at (n,p,k,a)=({n},{p},{k},{a}): got {got}, "
                                f"stated {stated}; honest value carries (-1)^k"
                            )
                        ok = False
                        assert got == honest_diagonal_twist(k) * stated
    sub.append(("diagonal = omega_n C(p,a) C(q,k-a)", ok, detail))

    ok, detail = True, ""
    for n, p in ((3, 1), (5, 2)):
        ctx = FlagContext(n, p)
        got = pairing(ctx, tau_ex(ctx), eta_ex(ctx))
        stated = Scalar((-1) ** p * factorial(p)) * Scalar.omega(n)
        if got != stated:
            if ok:
                detail = f"n={n}: got {got}, stated {stated}; honest value carries 2^-p"
            ok = False
            assert got == honest_exceptional_pairing(ctx)
    sub.append(("exceptional pairing (-1)^p p! omega_n", ok, detail))

    ok, detail = True, ""
    for n in range(2, 7):
        for p in range(n):
            ctx = FlagContext(n, p)
            if not generating_identity_check(ctx):
                if ok:
                    detail = (
                        f"first at (n,p)=({n},{p}); the product expands to "
                        "(-1)^(n-1) (alpha-alpha~)^p (beta-beta~)^q"
                    )
                ok = False
                assert honest_generating_identity(ctx)
    sub.append(("generating identity (alpha+alpha~)^p (beta+beta~)^q", ok, detail))

    for name, okay, detail in sub:
        print(f"  criterion 5 sub-check [{'ok' if okay else 'FAIL'}] {name}"
              + (f": {detail}" if detail and not okay else ""))
    failed = [name for name, okay, _ in sub if not okay]
    _report(
        5,
        not failed,
        "all stated pairing constants reproduced"
        if not failed
        else "stated constants mutually inconsistent; failing sub-checks: "
        + "; ".join(failed),
    )


def test_criterion_6_kinematic_tables():
    for n in range(2, 7):
        for p in range(n):
            ctx = FlagContext(n, p)
            assert check_phi_closed_form(ctx) is None, (n, p)
            assert check_s_closed_form(ctx) is None, (n, p)
    for n, p in ((3, 1), (5, 2)):
        ctx = FlagContext(n, p)
        phi_table = coproduct(ctx, phi_label(n - 1, p), "Phi")
        corr = Fraction(*phi_table.coefficient(PHI_EX, PHI_EX))
        assert phi_table.unit == n
        assert corr == Fraction((-1) ** p * (p + 1), 2 ** (2 * p))
        assert corr == Fraction((-1) ** ((n - 1) // 2) * (n + 1), 2**n)
        # S[n-1,0] and Phi[n-1,p] tables agree term by term after base change
        s_table = coproduct(ctx, s_label(n - 1, 0), "S")
        assert Fraction(*s_table.coefficient(PHI_EX, PHI_EX)) == corr

        def in_phi(label):
            if label.kind != "S":
                return [(label, 1)]
            B, _, c = base_change(ctx, label.k)
            row = [Fraction(*c[label.idx]) * e for e in B[label.idx]]
            return [(phi_label(label.k, a), c) for a, c in zip(ctx.phi_indices(label.k), row)]

        converted: dict = {}
        for left, right, c in s_table.terms:
            for ll, fl in in_phi(left):
                for rl, fr in in_phi(right):
                    converted[(ll, rl)] = converted.get((ll, rl), 0) + Fraction(*c) * fl * fr
        converted = {key: v for key, v in converted.items() if v}
        assert converted == {(l, r): Fraction(*c) for l, r, c in phi_table.terms}
        # A(Phi_ex) is the stated two-term table
        assert coproduct(ctx, PHI_EX, "Phi").terms == (
            (phi_label(0, 0), PHI_EX, (1, 1)),
            (PHI_EX, phi_label(0, 0), (1, 1)),
        )
    _report(6, True, "tables = closed forms for n <= 6, exceptional corrections exact")


def test_criterion_7_structural_laws():
    for n in range(2, 6):
        for p in range(n):
            ctx = FlagContext(n, p)
            assert verify_structure(ctx) is None, (n, p)
            tables = coproduct_tables(ctx, "S")
            for k in range(n):
                for i in range(ctx.m(k) + 1):
                    table = tables[s_label(k, i)]
                    assert table.unit == n
                    # globalization: S labels push forward with factor 1 and
                    # PhiEx with 0, so the S (x) S terms of left degree j sum to C(k, j)
                    got: dict = {}
                    for l, r, c in table.terms:
                        if l.kind == r.kind == "S":
                            got[l.k] = got.get(l.k, 0) + Fraction(*c)
                    assert got == {j: binom(k, j) for j in range(k + 1)}, (n, p, k, i)
            for k in range(n - p):
                table = hug_weil_coproduct(ctx, k)
                assert table.unit == n - p
                for j in range(k + 1):
                    got = table.coefficient(MeasureLabel("Sp", j), MeasureLabel("Sp", k - j))
                    assert got == (binom(k, j), 1), (n, p, k, j)
    _report(7, True, "coalgebra laws, globalization, binomial tables with omega_(n-p)")


def test_criterion_8_convolution_cross_check():
    for n in range(2, 6):
        ctx = FlagContext(n, max(0, n - 2))
        gens = [(i, j) for i in range(2, n + 1) for j in range(i, n + 1)]
        monos = {1: [(g,) for g in gens]}
        for d in range(2, n - 1):
            monos[d] = [m + (g,) for m in monos[d - 1] for g in gens]
        for d1 in range(1, n - 1):
            for d2 in range(1, n - d1):
                for m1 in monos[d1]:
                    for m2 in monos[d2]:
                        assert convolution_cross_check(ctx, m1, m2), (n, m1, m2)
    _report(8, True, "algebra products = form-level convolutions, n <= 5 exhaustive")


def test_criterion_9_rotation_relations():
    for n in range(2, 7):
        assert _suite_dimensions(FlagContext(n, 0)) is None, n
    for n in range(3, 9):
        assert _suite_rotation_relations(FlagContext(n, 0)) is None, n
    _report(9, True, "quotient dimensions for n <= 6, alternating relations for n <= 8")
