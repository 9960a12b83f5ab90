"""What "verified for (n, p)" means: the checks behind ``flagkin verify``.

Every check returns its first counterexample as a string, or None when it
holds.  VERIFY_SUITES lists the nine suites the command runs, in order; the
acceptance tests call the same checks over their own (n, p) ranges.

Layer functions are looked up through their modules at call time, never
bound here by name, so that a wrapper installed on a module attribute sees
every call.  The exterior oracle module is imported inside the suites that
use it, which keeps it off the start-up import path.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from . import kinematics, measures, rotation_algebra, scalars
from .errors import IndexOutOfRange
from .invariant_algebras import FlagContext, PresentedElement
from .scalars import Scalar


def _suite_dimensions(ctx: FlagContext):
    ra = rotation_algebra
    for k in range(ctx.n):
        if not ra.graded_dimension(ctx.n, k) == ra.narayana(ctx.n, k) == ra.chord_count(ctx.n, k):
            return f"graded dimension mismatch at k={k}"
        if ra.rotation_space_dimension(ctx.n, k) != ra.narayana(ctx.n, k):
            return f"rotation space dimension mismatch at k={k}"
    return None


def _suite_ideal(ctx: FlagContext):
    n = ctx.n
    x = rotation_algebra.generator
    idx = range(2, n + 1)
    if n <= 6:
        quads = itertools.product(idx, repeat=4)
    else:
        rng = random.Random(20260808)
        quads = [tuple(rng.choice(list(idx)) for _ in range(4)) for _ in range(300)]
    for i, j, k, l in quads:
        total = x(n, i, j) * x(n, k, l) + x(n, i, k) * x(n, j, l) + x(n, i, l) * x(n, j, k)
        if not total.is_zero():
            return f"ideal generator ({i},{j},{k},{l}) nonzero"
    for a in idx:
        for b in idx:
            if not (x(n, a, a) * x(n, a, b)).is_zero():
                return f"x_{a}{a} x_{a}{b} nonzero"
    return None


def _suite_base_change(ctx: FlagContext):
    for k in range(ctx.n):
        P = measures.s_in_phi_matrix(ctx, k)
        Q = measures.phi_in_s_matrix(ctx, k)
        for i, row in enumerate(P):
            for j in range(len(P)):
                if sum(c * Q[t][j] for t, c in enumerate(row)) != int(i == j):
                    return f"base change not inverse at k={k}"
    return None


def _suite_flag_algebra(ctx: FlagContext):
    """realize is an injective ring map on the basis monomials x^a y^b (and u).

    Every basis monomial realizes to a nonzero form, the forms have
    pairwise disjoint blade supports, and every pair of total degree at
    most n - 1 wedges to the realization of its presented product, in both
    orders.
    """
    from .grassmann_oracle import realize

    def monomial(a, b):
        return f"x^{a} y^{b}", a + b, PresentedElement(ctx, {(a, b): Fraction(1)})

    basis = [monomial(a, b) for a in range(ctx.p + 1) for b in range(ctx.q + 1)]
    if ctx.exceptional:
        basis.append(("u", ctx.middle, PresentedElement(ctx, {}, Fraction(1))))
    forms = []
    owner: dict[int, str] = {}  # blade key -> the monomial whose form holds it
    for name, _, element in basis:
        form = realize(ctx, element)
        if form.is_zero():
            return f"{name} realizes to zero"
        for key in form.body.row:
            if key in owner:
                return f"{owner[key]} and {name} share a blade"
            owner[key] = name
        forms.append(form)
    for i, (name1, deg1, m1) in enumerate(basis):
        for j in range(i, len(basis)):
            name2, deg2, m2 = basis[j]
            if deg1 + deg2 > ctx.n - 1:
                continue
            wedge = forms[i] * forms[j]
            try:
                products = realize(ctx, m1 * m2), realize(ctx, m2 * m1)
            except IndexOutOfRange as exc:
                return f"({name1}) * ({name2}): {exc}"
            if products != (wedge, wedge):
                return f"({name1}) * ({name2}) differs from the wedge of their forms"
    return None


def _suite_rotation_relations(ctx: FlagContext):
    n = ctx.n
    idx = range(2, n + 1)
    for k in range(1, n - 1):
        for ip in itertools.combinations(idx, k - 1):
            for jp in itertools.combinations(idx, k + 1):
                if not rotation_algebra.rotation_relation_check(n, ip, jp):
                    return f"relation fails at I'={ip}, J'={jp}"
    return None


def _suite_closed_forms(ctx: FlagContext):
    return check_phi_closed_form(ctx) or check_s_closed_form(ctx)


def _suite_convolution(ctx: FlagContext):
    from .grassmann_oracle import convolution_cross_check

    n = ctx.n
    gens = [(i, j) for i in range(2, n + 1) for j in range(i, n + 1)]
    rng = random.Random(20260808)

    def monomials(degree):
        if n <= 4:
            return list(itertools.product(gens, repeat=degree))
        return [
            tuple(rng.choice(gens) for _ in range(degree)) for _ in range(12)
        ]

    for d1 in range(1, n - 1):
        for d2 in range(1, n - d1):
            for m1 in monomials(d1):
                for m2 in monomials(d2):
                    if not convolution_cross_check(ctx, m1, m2):
                        return f"convolution mismatch at {m1} * {m2}"
    return None


def _suite_oracle(ctx: FlagContext):
    from .grassmann_oracle import (
        eta_ex,
        eta_hat,
        honest_diagonal_twist,
        honest_exceptional_pairing,
        honest_generating_identity,
        pairing,
        rotation_pairing,
        tau_ex,
        tau_tilde,
    )

    n, p, q = ctx.n, ctx.p, ctx.q
    binom = scalars.binom
    for i in range(2, n + 1):
        if rotation_pairing(n, i, i, (i,), (i,)) != Scalar.of(-1) * Scalar.vol_so(n):
            return f"<x_{i}{i}, S_{i}{i}> != -volSO({n})"
        for j in range(2, n + 1):
            if i != j and rotation_pairing(n, i, j, (i,), (j,)) != Scalar.of(-1, 2) * Scalar.vol_so(n):
                return f"<x_{i}{j}, S_{i}{j}> != -volSO({n})/2"
    for k in range(n):
        for a in ctx.phi_indices(k):
            for l in range(n):
                for b in ctx.phi_indices(l):
                    val = pairing(ctx, tau_tilde(ctx, k, a), eta_hat(ctx, l, b))
                    if (k, a) == (l, b):
                        want = (
                            honest_diagonal_twist(k)
                            * binom(p, a)
                            * binom(q, k - a)
                            * Scalar.omega(n)
                        )
                        if val != want:
                            return f"diagonal pairing ({k},{a}) = {val}, expected {want}"
                    elif not val.is_zero():
                        return f"off-diagonal pairing ({k},{a})x({l},{b}) nonzero"
    if not honest_generating_identity(ctx):
        return "generating identity polynomial has unexpected shape"
    if ctx.exceptional:
        if pairing(ctx, tau_ex(ctx), eta_ex(ctx)) != honest_exceptional_pairing(ctx):
            return "exceptional pairing off"
    return None


# -- structural laws -------------------------------------------------------------


def _global_table(ctx: FlagContext, table: kinematics.KinematicTable) -> dict[tuple[int, int], Fraction]:
    """Push both sides of a table forward to the global area measures, keyed by degrees."""
    out: dict[tuple[int, int], Fraction] = {}
    for left, right, c in table.terms:
        factor = measures.global_factor(ctx, left) * measures.global_factor(ctx, right)
        key = (left.k, right.k)
        out[key] = out.get(key, 0) + c * factor
    return {k: v for k, v in out.items() if v}


def verify_structure(ctx: FlagContext) -> str | None:
    """First failure of cocommutativity, coassociativity, counit or globalization.

    Coefficients are the tables' rationals, in the unit omega_n^-1 they share.
    """
    for family in ("Phi", "S"):
        tables = kinematics.coproduct_tables(ctx, family)
        zero_label = measures.basis_labels(ctx, 0, family)[0]

        for label, table in tables.items():
            for l, r, c in table.terms:
                if table.coefficient(r, l) != c:
                    return f"cocommutativity[{family}]: A({label}) at {l} (x) {r}"

        for label, table in tables.items():
            left_assoc: dict[tuple, Fraction] = {}
            right_assoc: dict[tuple, Fraction] = {}
            for l, r, c in table.terms:
                for l2, r2, c2 in tables[l].terms:
                    key = (l2, r2, r)
                    left_assoc[key] = left_assoc.get(key, 0) + c * c2
                for l2, r2, c2 in tables[r].terms:
                    key = (l, l2, r2)
                    right_assoc[key] = right_assoc.get(key, 0) + c * c2
            left_assoc = {k: v for k, v in left_assoc.items() if v}
            right_assoc = {k: v for k, v in right_assoc.items() if v}
            if left_assoc != right_assoc:
                return f"coassociativity[{family}]: A({label})"

        for label, table in tables.items():
            if (
                table.coefficient(zero_label, label) != 1
                or table.coefficient(label, zero_label) != 1
            ):
                return f"counit[{family}]: A({label})"

        for label, table in tables.items():
            got = _global_table(ctx, table)
            k = label.degree(ctx)
            front = measures.global_factor(ctx, label)
            want = {(j, k - j): front * scalars.binom(k, j) for j in range(k + 1) if front}
            if got != want:
                return f"globalization[{family}]: A({label})"
    return None


# -- agreement of tables with the closed forms ------------------------------------


def check_phi_closed_form(ctx: FlagContext) -> str | None:
    """First mismatch between the Phi tables and c^{k,a}_{j,b}, both in the unit omega_n^-1."""
    tables = kinematics.coproduct_tables(ctx, "Phi")
    phi_label = measures.phi_label
    for k in range(ctx.n):
        for a in ctx.phi_indices(k):
            input = phi_label(k, a)
            table = tables[input]
            seen: set[tuple[measures.MeasureLabel, measures.MeasureLabel]] = set()
            for j in range(k + 1):
                for b in ctx.phi_indices(j):
                    # both labels valid implies the theorem's range for b
                    if a - b not in ctx.phi_indices(k - j):
                        continue
                    left, right = phi_label(j, b), phi_label(k - j, a - b)
                    want = kinematics.closed_form_phi(ctx, k, a, j, b)
                    got = table.coefficient(left, right)
                    seen.add((left, right))
                    if got != want:
                        return f"A({input}) at {left}(x){right}: {got} != {want}"
            for l, r, c in table.terms:
                if (l, r) in seen:
                    continue
                if l.kind == "PhiEx" or r.kind == "PhiEx":
                    continue  # exceptional corrections checked separately
                return f"A({input}) unexpected term {l}(x){r}: {c}"
    return None


def check_s_closed_form(ctx: FlagContext) -> str | None:
    """First mismatch between the S tables and C^{k,i}_{j,b,c}, both in the unit omega_n^-1."""
    tables = kinematics.coproduct_tables(ctx, "S")
    s_label = measures.s_label
    for k in range(ctx.n):
        for input in measures.basis_labels(ctx, k, "S"):
            if input.kind != "S":
                continue
            i = input.idx
            table = tables[input]
            for j in range(k + 1):
                for b in range(ctx.m(j) + 1):
                    for c in range(ctx.m(k - j) + 1):
                        want = kinematics.closed_form_S(ctx, k, i, j, b, c)
                        got = table.coefficient(s_label(j, b), s_label(k - j, c))
                        if got != want:
                            return f"A({input}) at S[{j},{b}](x)S[{k - j},{c}]: {got} != {want}"
    return None


VERIFY_SUITES = (
    ("dimensions", _suite_dimensions),
    ("ideal identities", _suite_ideal),
    ("base changes", _suite_base_change),
    ("flag algebra relations", _suite_flag_algebra),
    ("rotation relations", _suite_rotation_relations),
    ("closed-form agreement", _suite_closed_forms),
    ("structural laws", verify_structure),
    ("convolution cross-check", _suite_convolution),
    ("oracle pairings", _suite_oracle),
)
