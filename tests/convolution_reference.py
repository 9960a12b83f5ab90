"""The pairwise convolution cross-check: a reference for the convolution suite.

verify's convolution suite checks one chord monomial at a time, on its
+-1 row.  This reference checks pairs of arbitrary monomials through the
algebra product itself, and criterion 8 and the oracle tests run it.
It keeps no cache: every call builds its two monomials anew.
"""

from flagkin.errors import DimensionMismatch
from flagkin.exterior import star1, star1_inv
from flagkin.grassmann_oracle import dalpha
from flagkin.invariant_algebras import FlagContext

from oracle_reference import monomial


def _monomial_image(n: int, m: tuple):
    """A monomial's algebra element and star1 of its star1-inverse image, or None.

    The image is None when it fails a J-space condition (sigma_1
    divisibility or annihilation by d alpha).
    """
    element = monomial(n, m)
    tau = star1_inv(n, element.body)
    if not tau.has_sigma_factor(1) or not dalpha(n).wedge(tau).is_zero():
        return element, None
    return element, star1(n, tau)


def convolution_cross_check(ctx: FlagContext, m1, m2) -> bool:
    """Compare the algebra product with the form-level convolution.

    m1, m2 are monomials given as sequences of (i, j) generator indices.
    Route one: wedge the bodies inside the algebra.  Route two: take the
    star1-inverse images (which carry sigma_1), convolve them through
    tau * tau' = star1_inv(star1 tau ^ star1 tau'), and compare against
    the star1-inverse image of the algebra product.  Both J-space
    conditions (sigma_1 divisibility and annihilation by d alpha) are
    asserted along the way.
    """
    m1, m2 = tuple(m1), tuple(m2)
    n = ctx.n
    if len(m1) + len(m2) > n - 1:
        raise DimensionMismatch(f"degrees {len(m1)}+{len(m2)} exceed n-1={n - 1}")
    e1, star_tau1 = _monomial_image(n, m1)
    e2, star_tau2 = _monomial_image(n, m2)
    if star_tau1 is None or star_tau2 is None:
        return False
    algebra_product = e1 * e2
    convolution = star1_inv(n, star_tau1.wedge(star_tau2))
    if convolution != star1_inv(n, algebra_product.body):
        return False
    if not dalpha(n).wedge(convolution).is_zero():
        return False
    return convolution.has_sigma_factor(1)
