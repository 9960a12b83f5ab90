"""Named measure bases, their dual algebra elements, and the base change.

Labels: Phi[k,a] and S[k,i] index the two bases of flag area measures,
PhiEx the exceptional one (only for odd n with p == q) and Sp[k] the
rescaled family of Corollary-style binomial tables.  The S basis is one
change of the Phi basis in each degree, stated once, in integers, by
base_change: a binomial matrix, its signed inverse and the constants
c_{n,k,p,i} as reduced (num, den) pairs.  Dual elements are elements of
the flag algebra in its presentation by x, y and u (presented_dual): the
Phi duals are x^a y^(k-a) over explicit integer scales, the S duals
follow through the inverse change, and expand_presented inverts both, so
that every kinematic coefficient is computed purely inside the algebra,
as the rational multiple of omega_n^-1 that dual_product returns.  Every
coefficient is an integer sum over a known denominator, reduced once to
a (num, den) pair with den > 0: the numerator and denominator of the
rational.  global_factor gives the pushforward of a label to the global
area measure of its degree.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import mul

from .errors import ExceptionalUnavailable, IndexOutOfRange, NotHomogeneous
from .invariant_algebras import FlagContext, PresentedElement, monomial_exponents
from .records import Record, _set

Ratio = tuple[int, int]


def ratio(num: int, den: int) -> Ratio:
    """num / den as a reduced (num, den), for den > 0."""
    g = math.gcd(num, den)
    return num // g, den // g


def binom(m: int, r: int) -> int:
    """Binomial coefficient with C(m, r) = 0 outside 0 <= r <= m."""
    if r < 0 or r > m or m < 0:
        return 0
    return math.comb(m, r)


class MeasureLabel(Record, order=True):
    __slots__ = ("kind", "k", "idx")

    def __init__(self, kind: str, k: int = 0, idx: int = 0) -> None:
        _set(self, "kind", kind)  # "Phi" | "S" | "PhiEx" | "Sp"
        _set(self, "k", k)
        _set(self, "idx", idx)

    def degree(self, ctx: FlagContext) -> int:
        return ctx.middle if self.kind == "PhiEx" else self.k

    def to_text(self) -> str:
        if self.kind == "PhiEx":
            return "PhiEx"
        if self.kind == "Sp":
            return f"{self.kind}[{self.k}]"
        return f"{self.kind}[{self.k},{self.idx}]"

    def __str__(self) -> str:
        return self.to_text()


def phi_label(k: int, a: int) -> MeasureLabel:
    return MeasureLabel("Phi", k, a)


def s_label(k: int, i: int) -> MeasureLabel:
    return MeasureLabel("S", k, i)


PHI_EX = MeasureLabel("PhiEx")


def validate_label(ctx: FlagContext, label: MeasureLabel) -> None:
    k = label.k
    if label.kind == "Phi":
        if label.idx not in ctx.phi_indices(k):
            raise IndexOutOfRange(f"{label} invalid for n={ctx.n}, p={ctx.p}")
    elif label.kind == "S":
        if not (0 <= k <= ctx.n - 1 and 0 <= label.idx <= ctx.m(k)):
            raise IndexOutOfRange(f"{label} invalid for n={ctx.n}, p={ctx.p}")
    elif label.kind == "PhiEx":
        if not ctx.exceptional:
            raise ExceptionalUnavailable(f"PhiEx needs odd n with p == q, got n={ctx.n}, p={ctx.p}")
    elif label.kind == "Sp":
        if not 0 <= k <= ctx.n - 1:
            raise IndexOutOfRange(f"{label} invalid for n={ctx.n}")
    else:
        raise ValueError(f"unknown label kind {label.kind!r}")


def basis_labels(ctx: FlagContext, k: int, family: str) -> list[MeasureLabel]:
    """All family labels in degree k; PhiEx joins both families in the middle."""
    if family == "Phi":
        out = [phi_label(k, a) for a in ctx.phi_indices(k)]
    elif family == "S":
        out = [s_label(k, i) for i in range(ctx.m(k) + 1)]
    else:
        raise ValueError(f"unknown family {family!r}")
    if ctx.exceptional and k == ctx.middle:
        out.append(PHI_EX)
    return out


# -- normalization constants and the base change ------------------------------


@lru_cache(maxsize=None)
def c_constant(n: int, k: int, p: int, i: int) -> Ratio:
    """c_{n,k,p,i}, the binomial normalization of the S-basis, as a reduced (num, den)."""
    ctx = FlagContext(n, p)
    validate_label(ctx, s_label(k, i))
    m_k = ctx.m(k)
    den = binom(n - 1, k) * binom(m_k, i) * binom(abs(k - ctx.q) + m_k, i)
    return ratio(binom(n - 1, i), den)


@lru_cache(maxsize=None)
def base_change(ctx: FlagContext, k: int):
    """The change between the S and Phi bases in degree k, in integers: (B, B_inv, c).

    S_k^(p),i = c_i sum_a B[i][a] Phi_{k,a} with B[i][a] = C(m'_k - a, i),
    and Phi_{k,a} = sum_i B_inv[a][i] / c_i S_k^(p),i with the signed
    inverse B_inv[a][i] = (-1)^(a+m'_k+i) C(i, m'_k - a).  Rows of B are
    indexed by i in 0..m_k and columns by a in ctx.phi_indices(k), B_inv
    the other way round, and c[i] = c_constant(n, k, p, i).
    """
    mp = ctx.m_prime(k)
    rows, cols = range(ctx.m(k) + 1), ctx.phi_indices(k)
    B = tuple(tuple(binom(mp - a, i) for a in cols) for i in rows)
    B_inv = tuple(tuple((-1) ** (a + mp + i) * binom(i, mp - a) for i in rows) for a in cols)
    return B, B_inv, tuple(c_constant(ctx.n, k, ctx.p, i) for i in rows)


# -- duals in the x, y, u presentation -----------------------------------------
#
# Every dual carries the same unit omega_n^-1, so it is factored out:
# presented_dual(L) is omega_n times the dual of L, and dual_product
# returns the rationals that multiply omega_n^-1.


def family_unit(ctx: FlagContext, family: str) -> int:
    """The m of a family's unit omega_m^-1: n for Phi and S, n - p for Sp."""
    return ctx.n - ctx.p if family == "Sp" else ctx.n


def _phi_scale(ctx: FlagContext, a: int, b: int) -> int:
    """C(q,b) C(p,a) a! b!, the multiple of omega_n Phi_{a+b,a}^* that is x^a y^b."""
    return binom(ctx.q, b) * binom(ctx.p, a) * math.factorial(a) * math.factorial(b)


def presented_dual(ctx: FlagContext, label: MeasureLabel) -> PresentedElement:
    """omega_n times the dual element of label, in the x, y, u presentation.

    Phi_{k,a}^* = x^a y^(k-a) / (omega_n C(q,k-a) C(p,a) a! (k-a)!),
    S_k^(p),i,* = sum_a B_inv[a][i] / c_i Phi_{k,a}^* (the inverse
    transpose of the change S = c B Phi), and Phi_ex^* = (-1)^p u / (omega_n p!).
    """
    validate_label(ctx, label)
    k = label.k
    if label.kind == "Phi":
        a = label.idx
        return PresentedElement(ctx, {(a, k - a): 1}, den=_phi_scale(ctx, a, k - a))
    if label.kind == "S":
        i = label.idx
        _, B_inv, c = base_change(ctx, k)
        num, den = c[i]
        terms = [
            ((a, k - a), row[i], _phi_scale(ctx, a, k - a))
            for a, row in zip(ctx.phi_indices(k), B_inv)
            if row[i]
        ]
        common = math.lcm(*(scale for _, _, scale in terms))
        xy = {key: e * den * (common // scale) for key, e, scale in terms}
        return PresentedElement(ctx, xy, den=num * common)
    if label.kind == "PhiEx":
        return PresentedElement(ctx, {}, (-1) ** ctx.p, math.factorial(ctx.p))
    raise ValueError(f"no dual element for {label}")


@lru_cache(maxsize=None)
def _expansion_rows(ctx: FlagContext, k: int, family: str):
    """The x^a y^b keys of degree k and, per family label, its weights on them and a denominator.

    A degree-k element with coordinates e over those keys has the
    coefficient sum(weights * e) / den on the label's dual; a weight tuple
    may stop early, where the rest of its weights are zero.
    """
    keys = monomial_exponents(ctx, k)
    phi_weight = [_phi_scale(ctx, a, b) for a, b in keys]
    if family == "Phi":
        rows = tuple(
            (phi_label(k, a), (0,) * t + (w,), 1)
            for t, ((a, _), w) in enumerate(zip(keys, phi_weight))
        )
    elif family == "S":
        B, _, c = base_change(ctx, k)
        rows = tuple(
            (s_label(k, i), tuple(num * e * w for e, w in zip(row, phi_weight)), den)
            for i, (row, (num, den)) in enumerate(zip(B, c))
        )
    else:
        raise ValueError(f"unknown family {family!r}")
    return keys, rows


def expand_presented(
    ctx: FlagContext, element: PresentedElement, k: int, family: str
) -> dict[MeasureLabel, Ratio]:
    """Coefficients of a degree-k element over the presented duals of family.

    The inverse of presented_dual: the x^a y^(k-a) coefficient rescales
    into the Phi coefficient, then base-changes for the S family; the u
    coefficient becomes the PhiEx coefficient.  Each coefficient is a
    reduced (num, den) with num != 0 and den > 0; a zero one is left out.
    """
    if any(a + b != k for a, b in element.xy) or (element.u and k != ctx.middle):
        raise NotHomogeneous(f"element is not homogeneous of degree {k}")
    keys, rows = _expansion_rows(ctx, k, family)
    coords = [element.xy.get(key, 0) for key in keys]
    out: dict[MeasureLabel, Ratio] = {}
    for label, weights, den in rows:
        num = sum(map(mul, weights, coords))
        if num:
            out[label] = ratio(num, den * element.den)
    if element.u:
        out[PHI_EX] = ratio(element.u * (-1) ** ctx.p * math.factorial(ctx.p), element.den)
    return out


def dual_product(
    ctx: FlagContext, left: MeasureLabel, right: MeasureLabel, family: str
) -> dict[MeasureLabel, Ratio]:
    """The product of the duals of left and right over the dual basis of family.

    The coefficients are reduced (num, den) multiples of omega_n^-1, as
    every dual carries it.
    """
    product = presented_dual(ctx, left) * presented_dual(ctx, right)
    deg = left.degree(ctx) + right.degree(ctx)
    return expand_presented(ctx, product, deg, family)


# -- globalization ----------------------------------------------------------------


def global_factor(ctx: FlagContext, label: MeasureLabel) -> int:
    """The multiple of the global area measure S_k that label pushes forward to.

    S[k,i] maps to S_k and Phi[k,a] to C(q,k-a) C(p,a) S_k; PhiEx has no
    stated global image in the basis and is sent to zero.
    """
    if label.kind == "S":
        return 1
    if label.kind == "Phi":
        return binom(ctx.q, label.k - label.idx) * binom(ctx.p, label.idx)
    if label.kind == "PhiEx":
        return 0
    raise ValueError(f"cannot globalize {label}")
