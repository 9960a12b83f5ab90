"""Independent verification layer built directly from the invariant forms.

This is the one module that builds forms and imports the exterior kernel.
It realizes R[X]/I: the generator x_{ij} is the invariant form
(sigma_i ^ omega_{j,1} + sigma_j ^ omega_{i,1}) / 2, and products are
wedge products, so the ideal relations hold identically instead of by
rewriting.  rotation_measure_rep is the representative blade of S_{I,J}.

realize sends x^a y^b to embed_monomial(ctx, a, b), a! b! E_a E_b of the
diagonal generators, and u to u_element(ctx), the off-diagonal block's
determinant, both read off index sets as signed rows, as eta is.  The flag
algebra suite checks that this is an injective ring map on the basis
monomials, anchored at x and y, and independent of the presentation it
tests: forms are multiplied by wedges, and PresentedElement.__mul__ enters
only as the product under test.  The normalizations of the duals, which
the ring map cannot see, are pinned separately by the closed forms, by the
acceptance criteria 4 and 6 and by the eta pairing of the Phi duals.

The primal basis forms eta_hat_{k,a} are the components of the eta
generating product, built as signed subset rows, and eta_ex is one
blade; dual forms are the star1-inverse images of algebra elements
(carrying the explicit sigma_1 factor).  The pairing integral collapses
to omega_n times the top-blade coefficient of the product, which
exterior.top_pairing reads without forming it: the fiber volume stays a
formal factor in the last position of every pairing, so it changes no
coefficient, and it cancels with the flag volume symbolically.

All values are computed in the single orientation fixed by the exterior
module (sigma_1 ^ ... ^ omega_{n,1} positive) with star1 as defined
there.  In that convention the rotation pairings come out to the stated
-vol SO(n) and -vol SO(n)/2, while the diagonal flag pairings acquire a
(-1)^k twist and the exceptional one a 2^-p factor relative to the stated
constants, and the four-variable generating identity reads
(-1)^(n-1) (alpha - alpha~)^p (beta - beta~)^q; see honest_* below.
No convention satisfies all the stated constants at once, because the two
cross terms of (alpha sigma_i + omega_i1) ^ (alpha~ sigma_i + omega_i1)
carry opposite signs in any exterior algebra.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb, factorial

from .errors import (
    BadIndexSet,
    DegreeMismatch,
    DimensionMismatch,
    ExceptionalUnavailable,
    IndexOutOfRange,
)
from .exterior import Multivector, _below_parity, _key, full_omega_mask, omega1, sigma
from .exterior import star1, star1_inv, top_pairing, wedge
from .invariant_algebras import FlagContext, PresentedElement, embed_monomial
from .measures import binom, phi_label, validate_label
from .rotation_algebra import AlgebraElement, _chord_row, _perm_sign, _rep_term
from .scalars import Scalar


# -- R[X]/I as forms -----------------------------------------------------------


def zero(n: int) -> AlgebraElement:
    return AlgebraElement(n, Multivector.zero())


@lru_cache(maxsize=None)
def generator(n: int, i: int, j: int) -> AlgebraElement:
    """The generator x_{ij} = (sigma_i ^ omega_{j,1} + sigma_j ^ omega_{i,1})/2."""
    if not (2 <= i <= n and 2 <= j <= n):
        raise IndexOutOfRange(f"x_({i},{j}) needs indices in 2..{n}")
    body = (wedge(sigma(i), omega1(j)) + wedge(sigma(j), omega1(i))).smul(1, 2)
    return AlgebraElement(n, body)


def _subsets(block: range, s: int):
    """(mask, e) of each s-subset S of block; e counts the x in block - S, y in S with x < y."""
    whole = sum(1 << i for i in block)
    for subset in itertools.combinations(block, s):
        mask = sum(1 << i for i in subset)
        yield mask, (mask & _below_parity(whole ^ mask)).bit_count()


def elementary_form(ctx: FlagContext, a: int, b: int) -> AlgebraElement:
    """E_a(first block) E_b(second block) of the x_dd, one blade per term.

    The term of an a-subset d1 and a b-subset d2 is the diagonal chord
    monomial of D = d1 + d2, the one blade sigma_D ^ omega_D signed (-1)^C(a+b, 2).
    """
    sign, seconds = -1 if comb(a + b, 2) & 1 else 1, list(_subsets(ctx.block2(), b))
    keys = (m1 | m2 for m1, _ in _subsets(ctx.block1(), a) for m2, _ in seconds)
    return AlgebraElement(ctx.n, Multivector._of({d << 32 | d: sign for d in keys}))


@lru_cache(maxsize=None)
def u_element(ctx: FlagContext) -> AlgebraElement:
    """The exceptional generator det(x_rc), r in the first block and c in the second.

    A term of the determinant picks sigma_r ^ omega_{pi(r),1} or sigma_pi(r) ^ omega_{r,1}
    in each row r.  With S the rows that pick sigma_r and U = pi(S), its blade is
    sigma_{S + block2 - U} ^ omega_{block1 - S + U}: each blade fixes S and U, and is reached
    by the s! (p-s)! terms whose pi maps S onto U, s = |S|.  sgn pi and the signs of sorting
    the sigmas and the omegas cancel up to the shuffle signs e(S) and e(U) of _subsets, so
    those terms share the sign (-1)^(C(p,2) + s(p-s) + e(S) + e(U)).
    """
    if not ctx.exceptional:
        raise ExceptionalUnavailable(f"n={ctx.n}, p={ctx.p} is not exceptional")
    p, row = ctx.p, {}
    first, second = sum(1 << i for i in ctx.block1()), sum(1 << j for j in ctx.block2())
    for s in range(p + 1):
        weight, parity = factorial(s) * factorial(p - s), p * (p - 1) // 2 + s * (p - s)
        pairs = itertools.product(_subsets(ctx.block1(), s), _subsets(ctx.block2(), s))
        for (smask, e_s), (umask, e_u) in pairs:
            key = _key(smask | second ^ umask, first ^ smask | umask)
            row[key] = -weight if (parity + e_s + e_u) & 1 else weight
    return AlgebraElement(ctx.n, Multivector._of(row).smul(1, 2**p))


@lru_cache(maxsize=None)
def dalpha(n: int) -> Multivector:
    """The symplectic form sum_i sigma_i ^ omega_{i,1}, i = 2..n (up to sign)."""
    return Multivector._of({_key(1 << i, 1 << i): 1 for i in range(2, n + 1)})


def rotation_measure_rep(n: int, I, J) -> Multivector:
    """Representative blade of S_{I,J}: sigma_I wedge omega_{J^c,1}.

    J^c is taken ascending; the sign makes the concatenation (J, J^c)
    carry the parity of (2, ..., n).  Antisymmetry in I comes from the
    parity of I (a repeated index gives zero), antisymmetry in J from the
    completion sign.  The fiber volume of the measure is left out: it is
    a common factor that only ever sits in the last position.
    """
    I, J = tuple(I), tuple(J)
    if len(I) != len(J):
        raise BadIndexSet("|I| != |J|")
    for v in I + J:
        if not 2 <= v <= n:
            raise BadIndexSet(f"index {v} outside 2..{n}")
    sign = _perm_sign(I) * _perm_sign(J)  # 0 on a repeated index
    rep, smask, omask = _rep_term(n, sum(1 << i for i in I), sum(1 << j for j in J))
    return Multivector._of({_key(smask, omask): sign * rep}) if sign else Multivector.zero()


# -- presented elements as forms -----------------------------------------------


def realize(ctx: FlagContext, element: PresentedElement) -> AlgebraElement:
    """The form of a presented element: x^a y^b -> embed_monomial(ctx, a, b), u -> u_element(ctx).

    The integer combination of those forms is divided by the element's
    denominator once.  A key outside 0 <= a <= p, 0 <= b <= q is no basis
    monomial and raises IndexOutOfRange, so a product that keeps x^(p+1)
    cannot realize to zero.
    """
    out = zero(ctx.n)
    for (a, b), c in element.xy.items():
        if not (0 <= a <= ctx.p and 0 <= b <= ctx.q):
            raise IndexOutOfRange(f"x^{a} y^{b} is no basis monomial for p={ctx.p}, q={ctx.q}")
        out = out + embed_monomial(ctx, a, b).smul(c)
    if element.u:
        out = out + u_element(ctx).smul(element.u)
    return out.smul(1, element.den)


def eta_poly(ctx: FlagContext) -> tuple[tuple[tuple[int, int], Multivector], ...]:
    """Expansion of the product of (alpha sigma_i + omega_i1) factors, beta on the second block.

    Taking sigma_i for i in D and omega_{i,1} otherwise gives the blade
    sigma_D ^ omega_{D^c,1}, once, under alpha^|D & block1| beta^|D & block2|
    and signed by the pairs i < j with i not in D and j in D.
    """
    full, first = full_omega_mask(ctx.n), sum(1 << i for i in ctx.block1())
    rows: dict[tuple[int, int], dict[int, int]] = {}
    for chosen in range(0, full + 4, 4):  # every D within 2..n, as a mask
        rest, a = full ^ chosen, (chosen & first).bit_count()
        row = rows.setdefault((a, chosen.bit_count() - a), {})
        row[_key(chosen, rest)] = -1 if (chosen & _below_parity(rest)).bit_count() & 1 else 1
    return tuple(sorted((key, Multivector._of(row)) for key, row in rows.items()))


def eta_hat(ctx: FlagContext, k: int, a: int) -> Multivector:
    """Coefficient of alpha^a beta^(k-a) in the eta generating product."""
    validate_label(ctx, phi_label(k, a))  # a valid label has a nonempty component
    return dict(eta_poly(ctx))[(a, k - a)]


def eta_ex(ctx: FlagContext) -> Multivector:
    """sigma_{p+2} ^ ... ^ sigma_n ^ omega_{p+2,1} ^ ... ^ omega_{n,1}."""
    if not ctx.exceptional:
        raise ExceptionalUnavailable(f"n={ctx.n}, p={ctx.p} is not exceptional")
    mask = sum(1 << j for j in ctx.block2())
    return Multivector._of({_key(mask, mask): 1})


def tau_tilde(ctx: FlagContext, k: int, a: int) -> AlgebraElement:
    """The algebra element E_a(first block) E_{k-a}(second block), x^a y^(k-a) / (a! (k-a)!)."""
    return elementary_form(ctx, a, k - a)


def pairing(ctx: FlagContext, dual: AlgebraElement, primal: Multivector) -> Scalar:
    """omega_n times the top-blade coefficient of star1_inv(dual) ^ primal.

    Forms hold rationals only, so the unit omega_n goes on the Scalar here.
    """
    if dual.n != ctx.n:
        raise DimensionMismatch(f"dual over n={dual.n}, ctx n={ctx.n}")
    if len(dual.body.sigma_degrees()) > 1:
        raise DegreeMismatch("dual element is not homogeneous")
    completed = star1_inv(ctx.n, dual.body)
    return Scalar.omega(ctx.n) * Scalar.of(*top_pairing(ctx.n, completed, primal))


# -- the four-variable generating identity -----------------------------------


def generating_identity_polynomial(
    ctx: FlagContext,
) -> tuple[tuple[tuple[int, int, int, int], tuple[int, int]], ...]:
    """Coefficients of eta_{alpha,beta} ^ tau~_{alpha~,beta~} on the top blade.

    Keys are exponents (alpha, beta, alpha~, beta~) and each coefficient
    is a reduced (num, den).  Each eta and tau~ component of degree k is
    checked to have bidegree (k, n-1-k) and (n-k, k) in (sigma, omega), so
    every product is a multiple of the top blade and only components of
    one degree can pair to a nonzero coefficient.
    """
    n, p, q = ctx.n, ctx.p, ctx.q
    tau_components: dict[int, list] = {}  # degree k -> [((alpha~, beta~), form)]
    for i, j in itertools.product(range(p + 1), range(q + 1)):
        form = star1_inv(n, tau_tilde(ctx, i + j, i).body)
        _check_bidegree(form, n - i - j, i + j)
        tau_components.setdefault(i + j, []).append(((p - i, q - j), form))
    out = []
    for (ea, eb), eta_mv in eta_poly(ctx):
        _check_bidegree(eta_mv, ea + eb, n - 1 - ea - eb)
        for tau_key, tau_mv in tau_components.get(ea + eb, ()):
            out.append(((ea, eb, *tau_key), top_pairing(n, eta_mv, tau_mv)))
    return tuple(sorted((key, c) for key, c in out if c[0]))


def _check_bidegree(form: Multivector, sigma_degree: int, omega_degree: int) -> None:
    """DegreeMismatch unless every blade of form has this (sigma, omega) bidegree."""
    total = sigma_degree + omega_degree
    if any((k >> 32).bit_count() != sigma_degree or k.bit_count() != total for k in form.row):
        raise DegreeMismatch(f"generating factor off bidegree ({sigma_degree}, {omega_degree})")


def _binomial_target(ctx: FlagContext, sign_inside: int, global_sign: int):
    """Coefficients of global_sign (alpha + s alpha~)^p (beta + s beta~)^q, as (num, 1)."""
    p, q = ctx.p, ctx.q
    out = {}
    for i in range(p + 1):
        for j in range(q + 1):
            sign = global_sign * sign_inside ** ((p - i) + (q - j))
            out[(i, j, p - i, q - j)] = (sign * binom(p, i) * binom(q, j), 1)
    return tuple(sorted(out.items()))


def generating_identity_check(ctx: FlagContext) -> bool:
    """Does eta ^ tau~ equal (alpha+alpha~)^p (beta+beta~)^q times the top blade?

    This is the stated form of the identity; in the engine's (forced)
    conventions it is false whenever p + q > 0, see honest_generating_identity.
    """
    return generating_identity_polynomial(ctx) == _binomial_target(ctx, +1, +1)


def honest_generating_identity(ctx: FlagContext) -> bool:
    """The identity that actually holds: (-1)^(n-1) (alpha-alpha~)^p (beta-beta~)^q."""
    sign = (-1) ** (ctx.n - 1)
    return generating_identity_polynomial(ctx) == _binomial_target(ctx, -1, sign)


# -- convolution ----------------------------------------------------------------


def _chord_image(n: int, diagonals, matching) -> tuple[Multivector, Multivector | None]:
    """A chord monomial's form and star1 of its star1-inverse image.

    The form is _chord_row(diagonals, matching) over 2^m, m = len(matching),
    so no generator is multiplied.  The image is None when it fails a
    J-space condition (sigma_1 divisibility or annihilation by d alpha).
    Otherwise it equals the form whenever star1(star1_inv(x)) = x, which
    the convolution suite checks on every chord monomial.
    """
    form = Multivector._of(_chord_row(diagonals, matching), 1 << len(matching))
    tau = star1_inv(n, form)
    if not tau.has_sigma_factor(1) or not dalpha(n).wedge(tau).is_zero():
        return form, None
    return form, star1(n, tau)


# -- rotation pairings ----------------------------------------------------------


def rotation_pairing(n: int, i: int, j: int, I, J) -> Scalar:
    """vol SO(n) times the top coefficient of star1_inv(x_ij) ^ omega_{I,J}.

    Only |I| = |J| = 1 is implemented.
    """
    I, J = tuple(I), tuple(J)
    if len(I) != 1 or len(J) != 1:
        raise BadIndexSet("only the degree-1 rotation pairing is implemented")
    tau = star1_inv(n, generator(n, i, j).body)
    return Scalar.vol_so(n) * Scalar.of(*top_pairing(n, tau, rotation_measure_rep(n, I, J)))


# -- the honest pairing table ----------------------------------------------------


def honest_diagonal_twist(k: int) -> Scalar:
    """Sign of <tau~_{k,a}, eta_{k,a}> relative to omega_n C(p,a) C(q,k-a)."""
    return Scalar.of((-1) ** k)


def honest_exceptional_pairing(ctx: FlagContext) -> Scalar:
    """The model value of <tau~_ex, eta_ex>: (-1)^p p! / 2^p times omega_n."""
    if not ctx.exceptional:
        raise ExceptionalUnavailable(f"n={ctx.n}, p={ctx.p} is not exceptional")
    p = ctx.p
    return Scalar.of((-1) ** p * factorial(p), 2**p) * Scalar.omega(ctx.n)


def tau_ex(ctx: FlagContext) -> AlgebraElement:
    """The algebra element whose star1-inverse image is tau~_ex."""
    return u_element(ctx)
