"""The product path of the exterior oracle: a reference for its index-set reads.

grassmann_oracle builds eta's components, the forms of x^a y^b and the
form of u as signed subset rows, and reads every pairing off the top
blade with exterior.top_pairing, so it never forms a product.  This
reference forms them: products of generators, elementary symmetric forms
and determinants by wedges, eta by multiplying out its
(alpha sigma_i + omega_i1) factors one by one, and the generating identity
by wedging each eta component with each tau~ component and reading the
top coefficient of the product, which must be a multiple of the top
blade.  flag_algebra_pairs wedges every pair of the flag algebra's basis
forms, where the flag algebra suite checks the products from the
generators.  The tests compare both routes.
"""

import itertools
import operator
from functools import reduce
from math import gcd

from flagkin.errors import DegreeMismatch, IndexOutOfRange
from flagkin.exterior import Multivector, full_omega_mask, full_sigma_mask, omega1, sigma, star1_inv
from flagkin.grassmann_oracle import generator, realize, tau_tilde, zero
from flagkin.invariant_algebras import PresentedElement
from flagkin.rotation_algebra import AlgebraElement, _perm_sign


def one(n: int) -> AlgebraElement:
    return AlgebraElement(n, Multivector.unit())


def monomial(n: int, pairs) -> AlgebraElement:
    """Product of generators x_{ij} over a sequence of index pairs."""
    return reduce(operator.mul, (generator(n, i, j) for i, j in pairs), one(n))


def determinant(entries: list[list[AlgebraElement]]) -> AlgebraElement:
    """Determinant of a square matrix of commuting algebra elements."""
    m = len(entries)
    n = entries[0][0].n
    out = zero(n)
    for perm in itertools.permutations(range(m)):
        term = reduce(operator.mul, (entries[r][perm[r]] for r in range(m)), one(n))
        out = out + term.smul(_perm_sign(perm))
    return out


def elementary_symmetric(n: int, indices, i: int) -> AlgebraElement:
    """E_i of the diagonal generators x_dd, d running over indices."""
    indices = tuple(indices)
    out = zero(n)
    for subset in itertools.combinations(indices, i):
        out = out + monomial(n, [(d, d) for d in subset])
    return out


def top_coefficient(n, form):
    """The coefficient of sigma_1 ^ ... ^ omega_{n,1} in form, a reduced (num, den), read by key."""
    num = form.row.get(full_sigma_mask(n) << 32 | full_omega_mask(n), 0)
    g = gcd(num, form.den)
    return num // g, form.den // g


def _poly_mul(a, b):
    """The product of two polynomials in (alpha, beta) with form coefficients."""
    out = {}
    for (e1, f1), m1 in a.items():
        for (e2, f2), m2 in b.items():
            prod = m1.wedge(m2)
            if prod.is_zero():
                continue
            key = (e1 + e2, f1 + f2)
            out[key] = out.get(key, Multivector.zero()) + prod
    return {k: v for k, v in out.items() if not v.is_zero()}


def eta_poly(ctx):
    """Expansion of the product of (alpha sigma_i + omega_i1) factors, by wedges."""
    poly = {(0, 0): Multivector.unit()}
    for i in ctx.block1():
        poly = _poly_mul(poly, {(1, 0): sigma(i), (0, 0): omega1(i)})
    for j in ctx.block2():
        poly = _poly_mul(poly, {(0, 1): sigma(j), (0, 0): omega1(j)})
    return tuple(sorted(poly.items()))


def generating_identity_polynomial(ctx):
    """Top coefficients of eta ^ tau~, each product formed and proved a top-blade multiple."""
    n, p, q = ctx.n, ctx.p, ctx.q
    out = {}
    tau_components = {
        (p - i, q - j): star1_inv(n, tau_tilde(ctx, i + j, i).body)
        for i in range(p + 1)
        for j in range(q + 1)
    }
    for (ea, eb), eta_mv in eta_poly(ctx):
        for (ta, tb), tau_mv in tau_components.items():
            prod = eta_mv.wedge(tau_mv)
            if prod.is_zero():
                continue
            if len(prod.row) != 1:
                raise DegreeMismatch("generating product is not a top-blade multiple")
            if not top_coefficient(n, prod)[0]:
                raise DegreeMismatch("generating product missed the top blade")
            key = (ea, eb, ta, tb)
            out[key] = out[key] + prod if key in out else prod
    coefficients = ((key, top_coefficient(n, form)) for key, form in out.items())
    return tuple(sorted((key, c) for key, c in coefficients if c[0]))


def flag_algebra_pairs(ctx):
    """The first pair of basis monomials whose product does not realize to the wedge of their forms.

    Every pair (x^a y^b and u) of total degree at most n - 1 is wedged, and
    its presented product is realized in both orders; None when all agree.
    """
    exponents = itertools.product(range(ctx.p + 1), range(ctx.q + 1))
    basis = [(f"x^{a} y^{b}", a + b, PresentedElement(ctx, {(a, b): 1})) for a, b in exponents]
    if ctx.exceptional:
        basis.append(("u", ctx.middle, PresentedElement(ctx, {}, 1)))
    forms = [realize(ctx, element) for _, _, element in basis]
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
