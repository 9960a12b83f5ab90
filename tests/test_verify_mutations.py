"""Mutations of the engine's constants that ``verify`` must catch.

Each case rewrites one constant of the production path in-process, the
way a mistaken edit of the source would, and runs the verify suites over
every (n, p) with n <= 7 until one returns a counterexample or raises a
FlagkinError, which ``verify`` reports as a failed suite.  A mutation
that no suite catches is a constant ``verify`` does not pin.  Every
cached function in flagkin is cleared before and after each mutation, so
no cached value of either side leaks into the other.
"""

import math
import sys
from fractions import Fraction

import pytest

from flagkin import exterior, grassmann_oracle, kinematics, measures, rotation_algebra, verify
from flagkin.errors import FlagkinError
from flagkin.exterior import Multivector
from flagkin.invariant_algebras import FlagContext, PresentedElement
from flagkin.rotation_algebra import AlgebraElement

from flagkin_caches import clear_caches
from oracle_reference import flag_algebra_pairs


def _patch(monkeypatch, name, wrap, home=measures):
    """Replace home.<name> by wrap(original) in every module that binds it."""
    original = getattr(home, name)
    mutant = wrap(original)
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("flagkin") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, mutant)


def _u_square_doubled(monkeypatch):
    original = PresentedElement.__mul__

    def mul(self, other):
        out = original(self, other)
        if not (self.u and other.u):
            return out
        # the x^p y^q term of u^2, (-1)^p (p+1)/4^p over the factors' denominators,
        # added once more, over a common denominator
        p, q = self.ctx.p, self.ctx.q
        scale = self.den * other.den * 4**p
        xy = {key: c * scale for key, c in out.xy.items()}
        xy[(p, q)] = xy.get((p, q), 0) + self.u * other.u * (-1) ** p * (p + 1) * out.den
        xy = {key: c for key, c in xy.items() if c}
        return PresentedElement(self.ctx, xy, out.u * scale, out.den * scale)

    monkeypatch.setattr(PresentedElement, "__mul__", mul)


def _phi_scale_times_a_plus_1(monkeypatch):
    _patch(monkeypatch, "_phi_scale", lambda f: lambda ctx, a, b: f(ctx, a, b) * (a + 1))


def _c_constant_times_i_plus_1(monkeypatch):
    def wrap(f):
        def c_constant(n, k, p, i):
            num, den = f(n, k, p, i)
            return num * (i + 1), den

        return c_constant

    _patch(monkeypatch, "c_constant", wrap)


def _inverse_base_change_sign_flipped(monkeypatch):
    # the last entry of the signed inverse, B_inv[m'_k][m_k] = (-1)^(m'_k+m_k+m_k) C(m_k, 0)
    def wrap(f):
        def base_change(ctx, k):
            B, B_inv, c = f(ctx, k)
            *rows, last = B_inv
            return B, (*rows, (*last[:-1], -last[-1])), c

        return base_change

    _patch(monkeypatch, "base_change", wrap)


def _global_factor_doubled(monkeypatch):
    _patch(monkeypatch, "global_factor", lambda f: lambda ctx, label: f(ctx, label) * 2)


def _phi_ex_dual_doubled(monkeypatch):
    def dual(f):
        def presented_dual(ctx, label):
            element = f(ctx, label)
            if label.kind != "PhiEx":
                return element
            return PresentedElement(ctx, element.xy, element.u * 2, element.den)

        return presented_dual

    def expand(f):
        def expand_presented(ctx, element, k, family):
            out = f(ctx, element, k, family)
            if measures.PHI_EX in out:
                num, den = out[measures.PHI_EX]
                g = math.gcd(num, 2 * den)
                out[measures.PHI_EX] = (num // g, 2 * den // g)
            return out

        return expand_presented

    _patch(monkeypatch, "presented_dual", dual)
    _patch(monkeypatch, "expand_presented", expand)


def _rep_term_sign_dropped(monkeypatch):
    def wrap(f):
        def rep_term(n, I, J):
            sign, smask, omask = f(n, I, J)
            return abs(sign), smask, omask

        return rep_term

    _patch(monkeypatch, "_rep_term", wrap, rotation_algebra)


def _chord_lead_without_diagonals(monkeypatch):
    _patch(monkeypatch, "_chord_lead", lambda f: lambda diag, matching: f((), matching), rotation_algebra)


def _wedge_keeps_the_left_denominator(monkeypatch):
    # the product's numerators over self.den alone, as if other.den were dropped
    original = Multivector.wedge
    def wedge(self, other):
        return original(self, other).smul(other.den)

    monkeypatch.setattr(Multivector, "wedge", wedge)


def _closed_form_s_term_undivided(monkeypatch):
    # the last s of closed_form_S's inner sum keeps the whole common denominator,
    # so that term is not divided by its C(q, j-s) C(p, s)
    def wrap(f):
        def _s_scales(ctx, j):
            common, scale = f(ctx, j)
            return common, {**scale, max(scale): common}

        return _s_scales

    _patch(monkeypatch, "_s_scales", wrap, kinematics)


def _closed_form_phi_term_keyed_mirrored(monkeypatch):
    # the first term of each Phi closed-form table whose labels differ, keyed
    # (right, left); the mirror term holds the same coefficient, so the table
    # loses the (left, right) key
    def wrap(f):
        def closed_form_phi(ctx, k, a):
            terms = f(ctx, k, a)
            for l, r in terms:
                if l != r:
                    return {(r, l) if key == (l, r) else key: c for key, c in terms.items()}
            return terms

        return closed_form_phi

    _patch(monkeypatch, "closed_form_phi", wrap, kinematics)


def _chord_row_one_orientation_flipped(monkeypatch):
    # the first key of every one-diagonal, one-chord monomial's row, negated
    def wrap(f):
        def chord_row(diagonals, matching):
            row = f(diagonals, matching)
            if len(diagonals) == len(matching) == 1:
                first = next(iter(row))
                row = {**row, first: -row[first]}
            return row

        return chord_row

    _patch(monkeypatch, "_chord_row", wrap, rotation_algebra)


def _hug_weil_right_scale_dropped(monkeypatch):
    # each Sp term without the factor C(q, l) of its right label's degree l
    def wrap(f):
        def hug_weil_coproduct(ctx, k):
            table = f(ctx, k)
            terms = tuple(
                (l, r, measures.ratio(num, den * measures.binom(ctx.q, r.k)))
                for l, r, (num, den) in table.terms
            )
            return kinematics.KinematicTable(ctx, table.input, table.family, terms)

        return hug_weil_coproduct

    _patch(monkeypatch, "hug_weil_coproduct", wrap, kinematics)


def _top_pairing_sign_flipped_on_sigma_2(monkeypatch):
    # every pair whose left blade holds sigma_2 counted with the opposite sign:
    # the true value less twice the pairing of those blades alone
    def wrap(f):
        def top_pairing(n, a, b):
            held = Multivector({k: Fraction(c, a.den) for k, c in a.row.items() if k >> 34 & 1})
            value = Fraction(*f(n, a, b)) - 2 * Fraction(*f(n, held, b))
            return value.numerator, value.denominator

        return top_pairing

    _patch(monkeypatch, "top_pairing", wrap, exterior)


def _u_blades_with_one_first_sigma_negated(monkeypatch):
    # u's blades whose sigma mask meets the first block in exactly one index, negated
    def wrap(f):
        def u_element(ctx):
            u = f(ctx)
            first = sum(1 << i for i in ctx.block1())
            row = {k: -c if (k >> 32 & first).bit_count() == 1 else c for k, c in u.body.row.items()}
            return AlgebraElement(ctx.n, Multivector._of(row, u.body.den))

        return u_element

    _patch(monkeypatch, "u_element", wrap, grassmann_oracle)


def _elementary_forms_negated_at_odd_a(monkeypatch):
    # every form E_a E_b with odd a negated: x -> -x, a ring automorphism of the realization
    def wrap(f):
        def elementary_form(ctx, a, b):
            form = f(ctx, a, b)
            return form.smul(-1) if a % 2 else form

        return elementary_form

    _patch(monkeypatch, "elementary_form", wrap, grassmann_oracle)


def _presented_product_doubled_on_one_pair(monkeypatch):
    # (x^1 y^1) (x^0 y^2), in either order, doubled: neither factor is a
    # generator, so only the flag algebra suite's presentation checks see it
    original = PresentedElement.__mul__
    pair = ({(1, 1): 1}, {(0, 2): 1})

    def mul(self, other):
        out = original(self, other)
        plain = self.den == other.den == 1 and not (self.u or other.u)
        if plain and (self.xy, other.xy) in (pair, pair[::-1]):
            return PresentedElement(self.ctx, {key: 2 * c for key, c in out.xy.items()}, 0, out.den)
        return out

    monkeypatch.setattr(PresentedElement, "__mul__", mul)


MUTATIONS = {
    "u^2 constant x2": _u_square_doubled,
    "_phi_scale x(a+1)": _phi_scale_times_a_plus_1,
    "c_constant x(i+1)": _c_constant_times_i_plus_1,
    "inverse base change: last sign flipped": _inverse_base_change_sign_flipped,
    "global_factor x2": _global_factor_doubled,
    "PhiEx dual x2, its inverse x1/2": _phi_ex_dual_doubled,
    "_rep_term sign dropped": _rep_term_sign_dropped,
    "chord lead drops the diagonals": _chord_lead_without_diagonals,
    "wedge keeps the left denominator": _wedge_keeps_the_left_denominator,
    "closed_form_S: one term undivided": _closed_form_s_term_undivided,
    "closed_form_phi: one term keyed (right, left)": _closed_form_phi_term_keyed_mirrored,
    "chord row: one orientation's sign flipped": _chord_row_one_orientation_flipped,
    "hug_weil_coproduct: right C(q, l) dropped": _hug_weil_right_scale_dropped,
    "top_pairing: one pair's sign flipped": _top_pairing_sign_flipped_on_sigma_2,
    "u: blades with one first-block sigma negated": _u_blades_with_one_first_sigma_negated,
    "presented product doubled on one non-generator pair": _presented_product_doubled_on_one_pair,
}


def _first_counterexample():
    for n in range(2, 8):
        for p in range(n):
            ctx = FlagContext(n, p)
            for name, suite in verify.VERIFY_SUITES:
                try:
                    detail = suite(ctx)
                except FlagkinError as exc:
                    detail = str(exc)
                if detail is not None:
                    return f"n={n} p={p} {name}: {detail}"
    return None


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_verify_catches_mutation(monkeypatch, mutation):
    clear_caches()
    try:
        with monkeypatch.context() as m:
            MUTATIONS[mutation](m)
            detail = _first_counterexample()
    finally:
        clear_caches()
    assert detail is not None, f"no suite catches {mutation} at n <= 7"


def test_chord_lead_mutation_fails_dimensions_first_at_3_0(monkeypatch):
    clear_caches()
    try:
        with monkeypatch.context() as m:
            _chord_lead_without_diagonals(m)
            detail = _first_counterexample()
    finally:
        clear_caches()
    assert detail == "n=3 p=0 dimensions: chord leads collide at n=3, k=1", detail


@pytest.mark.parametrize(
    "mutation,first",
    [
        ("chord row: one orientation's sign flipped", "n=4 p=0 convolution cross-check: "),
        ("hug_weil_coproduct: right C(q, l) dropped", "n=3 p=0 closed-form agreement: A(Sp[1])"),
    ],
)
def test_row_and_sp_mutations_fail_their_own_checks_first(monkeypatch, mutation, first):
    clear_caches()
    try:
        with monkeypatch.context() as m:
            MUTATIONS[mutation](m)
            detail = _first_counterexample()
    finally:
        clear_caches()
    assert detail is not None and detail.startswith(first), detail


def test_top_pairing_mutation_fails_oracle_pairings_first(monkeypatch):
    clear_caches()
    try:
        with monkeypatch.context() as m:
            _top_pairing_sign_flipped_on_sigma_2(m)
            detail = _first_counterexample()
    finally:
        clear_caches()
    assert detail == "n=2 p=0 oracle pairings: generating identity polynomial has unexpected shape"


@pytest.mark.parametrize(
    "mutate,first",
    [
        (
            _u_blades_with_one_first_sigma_negated,
            "n=3 p=1 flag algebra relations: (u) * (u) differs from the wedge of their forms",
        ),
        (
            _elementary_forms_negated_at_odd_a,
            "n=2 p=1 flag algebra relations: x does not realize to the sum of x_dd over its block",
        ),
    ],
)
def test_realization_mutations_fail_flag_algebra_relations_first(monkeypatch, mutate, first):
    clear_caches()
    try:
        with monkeypatch.context() as m:
            mutate(m)
            detail = _first_counterexample()
    finally:
        clear_caches()
    assert detail == first, detail


def test_presented_product_mutation_fails_the_presentation_checks_first(monkeypatch):
    clear_caches()
    try:
        with monkeypatch.context() as m:
            _presented_product_doubled_on_one_pair(m)
            detail = _first_counterexample()
    finally:
        clear_caches()
    assert detail == (
        "n=5 p=1 flag algebra relations: "
        "(x^0 y^2) * (x^1 y^1) is not (x^0 y^1) * ((x^0 y^1) * (x^1 y^1))"
    ), detail


# The first counterexample of the table suites at n = 9, p = 0..8: the
# messages by which the closed forms and the coalgebra laws report each
# mutation.  The oracle mutations change no table, so no table suite
# sees them.
TABLE_SUITES = ("closed-form agreement", "structural laws")

FIRST_AT_NINE = {
    "PhiEx dual x2, its inverse x1/2": (
        "p=4 closed-form agreement: A(Phi[8,4]) at PhiEx(x)PhiEx: 5/64 != 5/256"
    ),
    "_phi_scale x(a+1)": (
        "p=2 closed-form agreement: A(Phi[2,2]) at Phi[1,1](x)Phi[1,1]: 3/8 != 1/2"
    ),
    "c_constant x(i+1)": "p=1 structural laws: globalization[S]: A(S[2,0])",
    "closed_form_S: one term undivided": (
        "p=0 closed-form agreement: A(S[1,0]) at S[1,0](x)S[0,0]: 1 != 8"
    ),
    "closed_form_phi: one term keyed (right, left)": (
        "p=0 closed-form agreement: A(Phi[1,0]) unexpected term Phi[0,0](x)Phi[1,0]: 1"
    ),
    "global_factor x2": "p=0 structural laws: globalization[Phi]: A(Phi[0,0])",
    "hug_weil_coproduct: right C(q, l) dropped": (
        "p=0 closed-form agreement: A(Sp[1]) != sum_j C(1,j) Sp[j](x)Sp[1-j]"
    ),
    "inverse base change: last sign flipped": (
        "p=1 closed-form agreement: A(S[1,0]) at S[0,0](x)S[1,0]: -1 != 1"
    ),
    "u^2 constant x2": "p=4 closed-form agreement: A(Phi[8,4]) at PhiEx(x)PhiEx: 5/128 != 5/256",
    "_rep_term sign dropped": None,
    "chord lead drops the diagonals": None,
    "chord row: one orientation's sign flipped": None,
    "wedge keeps the left denominator": None,
    "top_pairing: one pair's sign flipped": None,
    "u: blades with one first-block sigma negated": None,
    "presented product doubled on one non-generator pair": None,
}


# Per mutation, the suites that catch it at n <= 7, each with the first
# (n, p) at which it fails; every other suite passes the whole grid.  A
# change to a suite's method or range that moves a cell shows here.
CAUGHT_BY = {
    "PhiEx dual x2, its inverse x1/2": {"closed-form agreement": (3, 1)},
    "_phi_scale x(a+1)": {"closed-form agreement": (3, 1), "structural laws": (3, 2)},
    "_rep_term sign dropped": {"rotation relations": (3, 0), "oracle pairings": (3, 0)},
    "c_constant x(i+1)": {"structural laws": (3, 1)},
    "chord lead drops the diagonals": {"dimensions": (3, 0)},
    "chord row: one orientation's sign flipped": {"convolution cross-check": (4, 0)},
    "closed_form_S: one term undivided": {"closed-form agreement": (3, 0)},
    "closed_form_phi: one term keyed (right, left)": {"closed-form agreement": (2, 0)},
    "global_factor x2": {"structural laws": (2, 0)},
    "hug_weil_coproduct: right C(q, l) dropped": {"closed-form agreement": (3, 0)},
    "inverse base change: last sign flipped": {
        "base changes": (2, 0),
        "closed-form agreement": (3, 1),
        "structural laws": (3, 1),
    },
    "top_pairing: one pair's sign flipped": {
        "flag algebra relations": (3, 1),
        "oracle pairings": (2, 0),
    },
    "u: blades with one first-block sigma negated": {"flag algebra relations": (3, 1)},
    "u^2 constant x2": {"flag algebra relations": (3, 1), "closed-form agreement": (3, 1)},
    "wedge keeps the left denominator": {
        "ideal identities": (3, 0),
        "flag algebra relations": (3, 1),
    },
    "presented product doubled on one non-generator pair": {"flag algebra relations": (5, 1)},
}


def _first_failures():
    """Per suite that fails somewhere with n <= 7, the first (n, p) at which it does."""
    first = {}
    for n in range(2, 8):
        for p in range(n):
            ctx = FlagContext(n, p)
            for name, suite in verify.VERIFY_SUITES:
                if name in first:
                    continue
                try:
                    detail = suite(ctx)
                except FlagkinError as exc:
                    detail = str(exc)
                if detail is not None:
                    first[name] = (n, p)
    return first


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_suites_that_catch_each_mutation(monkeypatch, mutation):
    clear_caches()
    try:
        with monkeypatch.context() as m:
            MUTATIONS[mutation](m)
            first = _first_failures()
    finally:
        clear_caches()
    assert first == CAUGHT_BY[mutation], first


def _first_table_counterexample(n):
    suites = dict(verify.VERIFY_SUITES)
    for p in range(n):
        ctx = FlagContext(n, p)
        for name in TABLE_SUITES:
            try:
                detail = suites[name](ctx)
            except FlagkinError as exc:
                detail = str(exc)
            if detail is not None:
                return f"p={p} {name}: {detail}"
    return None


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_table_suites_first_counterexample_at_nine(monkeypatch, mutation):
    clear_caches()
    try:
        with monkeypatch.context() as m:
            MUTATIONS[mutation](m)
            detail = _first_table_counterexample(9)
    finally:
        clear_caches()
    assert detail == FIRST_AT_NINE[mutation], detail


def _detail(check, ctx):
    try:
        return check(ctx)
    except FlagkinError as exc:
        return str(exc)


@pytest.mark.parametrize(
    "mutation", sorted(m for m, row in CAUGHT_BY.items() if "flag algebra relations" in row)
)
def test_flag_algebra_reference_fails_with_the_suite(monkeypatch, mutation):
    # the pairwise reference and the suite, at the suite's first failing (n, p)
    ctx = FlagContext(*CAUGHT_BY[mutation]["flag algebra relations"])
    clear_caches()
    try:
        with monkeypatch.context() as m:
            MUTATIONS[mutation](m)
            suite = _detail(verify._suite_flag_algebra, ctx)
            reference = _detail(flag_algebra_pairs, ctx)
    finally:
        clear_caches()
    assert suite is not None
    # the reference reads no top blade, so top_pairing's mutation passes it
    assert (reference is None) == mutation.startswith("top_pairing"), reference
