"""What "verified for (n, p)" means: the checks behind ``flagkin verify``.

Every check returns its first counterexample as a string, or None when it
holds.  VERIFY_SUITES lists the nine suites the command runs, in order; the
acceptance tests call the same checks over their own (n, p) ranges.  Each
suite covers every case at its (n, p) along one path, the flag algebra's
products by induction from its generators; none samples.

Layer functions are looked up through their modules at call time, never
bound here by name, so that a wrapper installed on a module attribute sees
every call.  The engine's table coefficients and the closed forms are
reduced (num, den) int pairs, so a table agrees with its closed-form table
when the two hold equal pairs under equal label pairs; the oracle's forms
are int rows over one denominator.  Every check runs in integers and no
suite loads a rational type.
"""

from __future__ import annotations

import itertools
import math

from . import exterior, grassmann_oracle, kinematics, measures, rotation_algebra
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
    """x_ij x_kl + x_ik x_jl + x_il x_jk = 0 and x_aa x_ab = 0, for every index.

    The first relation is symmetric in its four indices, so each
    4-multiset of 2..n stands for all of its ordered quads.
    """
    n = ctx.n
    x = grassmann_oracle.generator
    idx = range(2, n + 1)
    for i, j, k, l in itertools.combinations_with_replacement(idx, 4):
        total = x(n, i, j) * x(n, k, l) + x(n, i, k) * x(n, j, l) + x(n, i, l) * x(n, j, k)
        if not total.is_zero():
            return f"ideal generator ({i},{j},{k},{l}) nonzero"
    for a in idx:
        for b in idx:
            if not (x(n, a, a) * x(n, a, b)).is_zero():
                return f"x_{a}{a} x_{a}{b} nonzero"
    return None


def _suite_base_change(ctx: FlagContext):
    """B B_inv = I in every degree, for the integer base change the engine reads.

    The constants c_i cancel from S = c B Phi and its inverse; the closed
    forms and the structural laws pin them.
    """
    for k in range(ctx.n):
        B, B_inv, _ = measures.base_change(ctx, k)
        for i, row in enumerate(B):
            for j in range(len(B)):
                if sum(e * B_inv[t][j] for t, e in enumerate(row)) != int(i == j):
                    return f"base change not inverse at k={k}"
    return None


def _suite_flag_algebra(ctx: FlagContext):
    """realize is an injective ring map on the basis monomials x^a y^b (and u).

    x and y realize to their blocks' sums of x_dd, which x -> -x would not
    keep.  The basis forms are nonzero, with pairwise disjoint blade supports.
    Products within degree n - 1 are checked from the generators; a case is:
    - a row 1, y or x against a monomial: both products realize to the wedge;
    - u ^ u, on its one blade sigma_D ^ omega_D, D = 2..n, read by top_pairing
      against sigma_1: realize(u u) holds that blade only;
    - each other x^a y^b, m, against each m' from m on: m = g low, g = x if
      a > 0 else y, and m m' and m' m are g (low m').
    By induction on deg m + deg m', realize(m m') = g ^ realize(low m') (the
    rows, linearly) = g ^ low ^ m' = realize(m) ^ m' (the rows, associativity);
    and m' ^ m = m ^ m', since forms of equal sigma and omega degree commute.
    """
    realize, x, zero = grassmann_oracle.realize, grassmann_oracle.generator, grassmann_oracle.zero
    for name, key, block in (("x", (1, 0), ctx.block1()), ("y", (0, 1), ctx.block2())):
        diagonal = sum((x(ctx.n, d, d) for d in block), zero(ctx.n))
        if block and realize(ctx, PresentedElement(ctx, {key: 1})) != diagonal:
            return f"{name} does not realize to the sum of x_dd over its block"
    exponents = list(itertools.product(range(ctx.p + 1), range(ctx.q + 1)))
    basis = [(f"x^{a} y^{b}", a + b, PresentedElement(ctx, {(a, b): 1})) for a, b in exponents]
    if ctx.exceptional:
        basis.append(("u", ctx.middle, PresentedElement(ctx, {}, 1)))
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
    index = {key: i for i, key in enumerate(exponents)}
    rows = [index[key] for key in ((0, 0), (0, 1), (1, 0)) if key in index]  # ascending
    for i in rows:
        for j in range(len(basis)):
            if (j in rows and j < i) or basis[i][1] + basis[j][1] > ctx.n - 1:
                continue
            (name1, _, m1), (name2, _, m2) = basis[min(i, j)], basis[max(i, j)]
            try:
                products = realize(ctx, m1 * m2), realize(ctx, m2 * m1)
            except IndexOutOfRange as exc:
                return f"({name1}) * ({name2}): {exc}"
            if not products[0] == products[1] == forms[i] * forms[j]:
                return f"({name1}) * ({name2}) differs from the wedge of their forms"
    if ctx.exceptional:
        u, d = forms[-1].body, exterior.full_omega_mask(ctx.n)
        want = exterior.top_pairing(ctx.n, exterior.sigma(1).wedge(u), u)
        square = realize(ctx, basis[-1][2] * basis[-1][2]).body
        if set(square.row) - {d << 32 | d} or (square.row.get(d << 32 | d, 0), square.den) != want:
            return "(u) * (u) differs from the wedge of their forms"
    for i, ((a, b), (name, deg, m)) in enumerate(zip(exponents, basis)):
        if a + b < 2:
            continue
        gname, _, g = basis[index[(1, 0) if a else (0, 1)]]
        lname, _, low = basis[index[(a - 1, b) if a else (0, b - 1)]]
        if g * low != m:
            return f"{name} != ({gname}) * ({lname})"
        for name2, deg2, m2 in basis[i:]:
            if deg + deg2 <= ctx.n - 1 and not m * m2 == g * (low * m2) == m2 * m:
                return f"({name}) * ({name2}) is not ({gname}) * (({lname}) * ({name2}))"
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
    return check_phi_closed_form(ctx) or check_s_closed_form(ctx) or check_sp_tables(ctx)


def _suite_convolution(ctx: FlagContext):
    """star1_inv of every chord monomial lies in J, and star1 maps it back.

    The J-space conditions (a sigma_1 factor, d alpha ^ tau = 0) and the
    round trip star1(star1_inv(x)) = x are linear, and the chord monomials
    span each degree, so all three hold on every element.  The convolution
    of two images is then the image of their product by construction.  A
    case is one chord monomial's +-1 row, built and checked on its own.
    """
    for k in range(1, ctx.n):
        for diagonals, matching in rotation_algebra._chord_index_sets(ctx.n, k):
            form, star_tau = grassmann_oracle._chord_image(ctx.n, diagonals, matching)
            if star_tau != form:
                m = tuple((d, d) for d in diagonals) + matching
                return f"convolution mismatch at {m}"
    return None


def _suite_oracle(ctx: FlagContext):
    """Rotation pairings, the generating identity and the exceptional pairing.

    The identity's coefficient at (a, k-a, p-i, q-j) is the pairing of
    tau~(i+j, i) with eta_hat(k, a) over omega_n, so it states every flag
    pairing at once: the diagonal ones and the vanishing of the rest.
    """
    go = grassmann_oracle
    n = ctx.n
    vol = Scalar.vol_so(n)
    for i in range(2, n + 1):
        if go.rotation_pairing(n, i, i, (i,), (i,)) != Scalar.of(-1) * vol:
            return f"<x_{i}{i}, S_{i}{i}> != -volSO({n})"
        for j in range(2, n + 1):
            if i != j and go.rotation_pairing(n, i, j, (i,), (j,)) != Scalar.of(-1, 2) * vol:
                return f"<x_{i}{j}, S_{i}{j}> != -volSO({n})/2"
    if not go.honest_generating_identity(ctx):
        return "generating identity polynomial has unexpected shape"
    if ctx.exceptional:
        if go.pairing(ctx, go.tau_ex(ctx), go.eta_ex(ctx)) != go.honest_exceptional_pairing(ctx):
            return "exceptional pairing off"
    return None


# -- structural laws -------------------------------------------------------------


def _ratio_text(c) -> str:
    """A (num, den) as Fraction.__str__ prints it: num, or num/den."""
    num, den = c
    return f"{num}" if den == 1 else f"{num}/{den}"


def verify_structure(ctx: FlagContext) -> str | None:
    """First failure of cocommutativity, coassociativity, counit or globalization.

    Coefficients are the tables' rationals, in the unit omega_n^-1 they
    share, compared as integer numerators over one denominator per family.
    """
    for family in ("Phi", "S"):
        # den is the lcm of the family's denominators, and rows[x] maps (left
        # index, right index) to the numerator over den of each term of
        # A(labels[x]), in print order
        tables = kinematics.coproduct_tables(ctx, family)
        labels = list(tables)
        index = {label: x for x, label in enumerate(labels)}
        den = math.lcm(*(d for table in tables.values() for _, _, (_, d) in table.terms))
        rows = [
            {(index[l], index[r]): num * (den // d) for l, r, (num, d) in table.terms}
            for table in tables.values()
        ]

        for x, row in enumerate(rows):
            for (l, r), c in row.items():
                if row.get((r, l), 0) != c:
                    at = f"{labels[l]} (x) {labels[r]}"
                    return f"cocommutativity[{family}]: A({labels[x]}) at {at}"

        # With every table cocommutative, (1 (x) A) A(X) at (x, y, z) is
        # sum_r c_X(x, r) c_r(y, z) = (A (x) 1) A(X) at (y, z, x), so
        # coassociativity says that T = (A (x) 1) A(X) is invariant under
        # the cyclic shift (a, b, r) -> (b, r, a).  Every term of T is an
        # integer over den^2.
        for x, row in enumerate(rows):
            tensor: dict[tuple[int, int, int], int] = {}
            for (l, r), c in row.items():
                for (a, b), c2 in rows[l].items():
                    key = (a, b, r)
                    tensor[key] = tensor.get(key, 0) + c * c2
            if any(tensor.get((b, r, a), 0) != v for (a, b, r), v in tensor.items()):
                return f"coassociativity[{family}]: A({labels[x]})"

        zero = labels.index(measures.basis_labels(ctx, 0, family)[0])
        for x, row in enumerate(rows):
            if row.get((zero, x), 0) != den or row.get((x, zero), 0) != den:
                return f"counit[{family}]: A({labels[x]})"

        # Globalization: pushed forward on both sides, A(X) of degree k is
        # g(X) sum_j C(k, j) S_j (x) S_{k-j}, g the global factor; a term
        # c L (x) R adds c g(L) g(R) to the sum of its left degree j.
        weight = [measures.global_factor(ctx, label) for label in labels]
        for x, row in enumerate(rows):
            got: dict[int, int] = {}
            for (l, r), c in row.items():
                j = labels[l].k
                got[j] = got.get(j, 0) + c * weight[l] * weight[r]
            k = labels[x].degree(ctx)
            want = {j: weight[x] * measures.binom(k, j) * den for j in range(k + 1) if weight[x]}
            if {j: v for j, v in got.items() if v} != want:
                return f"globalization[{family}]: A({labels[x]})"
    return None


# -- agreement of tables with the closed forms ------------------------------------


def _exceptional_terms(ctx: FlagContext, family: str) -> dict:
    """The PhiEx terms of a family's tables, {input: {(left, right): (num, den)}}.

    u x = u y = 0 leaves two kinds: A(PhiEx) is the degree-0 label (x) PhiEx
    plus its mirror, each with coefficient 1, and the top-degree table has
    PhiEx (x) PhiEx with the u^2 constant (-1)^p (p+1)/4^p.  No other
    table has a PhiEx term.
    """
    if not ctx.exceptional:
        return {}
    ex, p = measures.PHI_EX, ctx.p
    # one label each: Phi[0,0] and Phi[n-1,p], or S[0,0] and S[n-1,0]
    zero = measures.basis_labels(ctx, 0, family)[0]
    top = measures.basis_labels(ctx, ctx.n - 1, family)[0]
    return {
        top: {(ex, ex): measures.ratio((-1) ** p * (p + 1), 4**p)},
        ex: {(zero, ex): (1, 1), (ex, zero): (1, 1)},
    }


def _check_tables(ctx: FlagContext, family: str, closed_form) -> str | None:
    """First term of a family's tables that differs from its closed form or is unexpected.

    closed_form(ctx, k, idx) returns the closed-form terms of the table of
    the family label (k, idx), {(left, right): (num, den)}.  Both sides are
    reduced pairs and a term a table lacks is (0, 1), so a term agrees with
    its closed form exactly when the two pairs are equal.
    """
    exceptional = _exceptional_terms(ctx, family)
    for input, table in kinematics.coproduct_tables(ctx, family).items():
        want = dict(exceptional.get(input, {}))
        if input.kind == family:
            want.update(closed_form(ctx, input.k, input.idx))
        got = {(l, r): c for l, r, c in table.terms}
        for (l, r), c in want.items():
            have = got.get((l, r), (0, 1))
            if have != c:
                return f"A({input}) at {l}(x){r}: {_ratio_text(have)} != {_ratio_text(c)}"
        for (l, r), c in got.items():
            if (l, r) not in want:
                return f"A({input}) unexpected term {l}(x){r}: {_ratio_text(c)}"
    return None


def check_phi_closed_form(ctx: FlagContext) -> str | None:
    """First mismatch between the Phi tables and c^{k,a}_{j,b}, both in the unit omega_n^-1."""
    return _check_tables(ctx, "Phi", kinematics.closed_form_phi)


def check_s_closed_form(ctx: FlagContext) -> str | None:
    """First mismatch between the S tables and C^{k,i}_{j,b,c}, both in the unit omega_n^-1."""
    return _check_tables(ctx, "S", kinematics.closed_form_S)


def check_sp_tables(ctx: FlagContext) -> str | None:
    """First Sp table that is not the binomial law A(Sp[k]) = sum_j C(k, j) Sp[j] (x) Sp[k-j].

    Each table that ``table --hug-weil`` prints, k < n - p, must hold
    exactly those terms, in the unit omega_{n-p}^-1 and in order of j.
    """
    sp = measures.MeasureLabel
    for k in range(ctx.n - ctx.p):
        want = tuple((sp("Sp", j), sp("Sp", k - j), (measures.binom(k, j), 1)) for j in range(k + 1))
        if kinematics.hug_weil_coproduct(ctx, k).terms != want:
            return f"A(Sp[{k}]) != sum_j C({k},j) Sp[j](x)Sp[{k}-j]"
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
