"""Named measure bases, their dual algebra elements, and the base change.

Labels: Phi[k,a] and S[k,i] index the two bases of flag area measures,
PhiEx the exceptional one (only for odd n with p == q) and Sp[k] the
rescaled family of Corollary-style binomial tables.  The S basis is one
change of the Phi basis in each degree, stated once as the rational matrix
s_in_phi_matrix and once as its inverse phi_in_s_matrix.  Dual elements
are elements of the flag algebra in its presentation by x, y and u
(presented_dual): the Phi duals are x^a y^(k-a) times explicit binomial
constants, the S duals follow through the inverse change, and
expand_presented inverts both, so that every kinematic coefficient is
computed purely inside the algebra, as the rational multiple of
omega_n^-1 that dual_product returns.  global_factor gives the pushforward
of a label to the global area measure of its degree.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import ExceptionalUnavailable, IndexOutOfRange, NotHomogeneous
from .invariant_algebras import FlagContext, PresentedElement, monomial_exponents
from .records import Record, _set


def binom(m: int, r: int) -> Fraction:
    """Binomial coefficient with C(m, r) = 0 outside 0 <= r <= m."""
    if r < 0 or r > m or m < 0:
        return Fraction(0)
    return Fraction(math.comb(m, r))


def factorial(k: int) -> Fraction:
    return Fraction(math.factorial(k))


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
def c_constant(n: int, k: int, p: int, i: int) -> Fraction:
    """c_{n,k,p,i}, the binomial normalization of the S-basis."""
    ctx = FlagContext(n, p)
    validate_label(ctx, s_label(k, i))
    m_k = ctx.m(k)
    return binom(n - 1, i) / binom(n - 1, k) / binom(m_k, i) / binom(abs(k - ctx.q) + m_k, i)


@lru_cache(maxsize=None)
def s_in_phi_matrix(ctx: FlagContext, k: int) -> tuple[tuple[Fraction, ...], ...]:
    """S_k^(p),i = sum_a c_{n,k,p,i} C(m'_k - a, i) Phi_{k,a}.

    Rows are indexed by i in 0..m_k, columns by a in ctx.phi_indices(k).
    """
    mp = ctx.m_prime(k)
    return tuple(
        tuple(c_constant(ctx.n, k, ctx.p, i) * binom(mp - a, i) for a in ctx.phi_indices(k))
        for i in range(ctx.m(k) + 1)
    )


@lru_cache(maxsize=None)
def phi_in_s_matrix(ctx: FlagContext, k: int) -> tuple[tuple[Fraction, ...], ...]:
    """Phi_{k,a} = sum_i (-1)^(a+m'_k+i) C(i, m'_k - a) / c_{n,k,p,i} S_k^(p),i.

    The inverse of s_in_phi_matrix: rows are indexed by a in
    ctx.phi_indices(k), columns by i in 0..m_k.
    """
    mp = ctx.m_prime(k)
    return tuple(
        tuple(
            (-1) ** (a + mp + i) * binom(i, mp - a) / c_constant(ctx.n, k, ctx.p, i)
            for i in range(ctx.m(k) + 1)
        )
        for a in ctx.phi_indices(k)
    )


# -- duals in the x, y, u presentation -----------------------------------------
#
# Every dual carries the same unit omega_n^-1, so it is factored out:
# presented_dual(L) is omega_n times the dual of L, over rationals, and
# dual_product returns rationals, the multiples of omega_n^-1.


def _phi_scale(ctx: FlagContext, a: int, b: int) -> Fraction:
    """C(q,b) C(p,a) a! b!, the multiple of omega_n Phi_{a+b,a}^* that is x^a y^b."""
    return binom(ctx.q, b) * binom(ctx.p, a) * factorial(a) * factorial(b)


@lru_cache(maxsize=None)
def presented_dual(ctx: FlagContext, label: MeasureLabel) -> PresentedElement:
    """omega_n times the dual element of label, in the x, y, u presentation.

    Phi_{k,a}^* = x^a y^(k-a) / (omega_n C(q,k-a) C(p,a) a! (k-a)!),
    S_k^(p),i,* = sum_a Q[a][i] Phi_{k,a}^* with Q = phi_in_s_matrix (the
    inverse transpose of the change S = P Phi), and Phi_ex^* = (-1)^p u / (omega_n p!).
    """
    validate_label(ctx, label)
    k = label.k
    if label.kind == "Phi":
        a = label.idx
        return PresentedElement(ctx, {(a, k - a): 1 / _phi_scale(ctx, a, k - a)})
    if label.kind == "S":
        i = label.idx
        xy = {
            (a, k - a): row[i] / _phi_scale(ctx, a, k - a)
            for a, row in zip(ctx.phi_indices(k), phi_in_s_matrix(ctx, k))
            if row[i]
        }
        return PresentedElement(ctx, xy)
    if label.kind == "PhiEx":
        return PresentedElement(ctx, {}, (-1) ** ctx.p / factorial(ctx.p))
    raise ValueError(f"no dual element for {label}")


@lru_cache(maxsize=None)
def _expansion_rows(ctx: FlagContext, k: int, family: str):
    """Per family label of degree k, the weight of each x^a y^b coordinate."""
    keys = monomial_exponents(ctx, k)
    phi_weight = [_phi_scale(ctx, a, b) for a, b in keys]
    if family == "Phi":
        return tuple((phi_label(k, a), {(a, b): w}) for (a, b), w in zip(keys, phi_weight))
    if family == "S":
        return tuple(
            (s_label(k, i), {key: c * w for key, c, w in zip(keys, row, phi_weight) if c})
            for i, row in enumerate(s_in_phi_matrix(ctx, k))
        )
    raise ValueError(f"unknown family {family!r}")


def expand_presented(
    ctx: FlagContext, element: PresentedElement, k: int, family: str
) -> dict[MeasureLabel, Fraction]:
    """Coefficients of a degree-k element over the presented duals of family.

    The inverse of presented_dual: the x^a y^(k-a) coefficient rescales
    into the Phi coefficient, then base-changes for the S family; the u
    coefficient becomes the PhiEx coefficient.
    """
    if any(a + b != k for a, b in element.xy) or (element.u and k != ctx.middle):
        raise NotHomogeneous(f"element is not homogeneous of degree {k}")
    out: dict[MeasureLabel, Fraction] = {}
    for label, weights in _expansion_rows(ctx, k, family):
        c = sum(w * element.xy.get(key, 0) for key, w in weights.items())
        if c:
            out[label] = c
    if element.u:
        out[PHI_EX] = element.u * (-1) ** ctx.p * factorial(ctx.p)
    return out


def dual_product(
    ctx: FlagContext, left: MeasureLabel, right: MeasureLabel, family: str
) -> dict[MeasureLabel, Fraction]:
    """The product of the duals of left and right over the dual basis of family.

    The coefficients are multiples of omega_n^-1, as every dual carries it.
    """
    product = presented_dual(ctx, left) * presented_dual(ctx, right)
    deg = left.degree(ctx) + right.degree(ctx)
    return expand_presented(ctx, product, deg, family)


# -- globalization ----------------------------------------------------------------


def global_factor(ctx: FlagContext, label: MeasureLabel) -> Fraction:
    """The multiple of the global area measure S_k that label pushes forward to.

    S[k,i] maps to S_k and Phi[k,a] to C(q,k-a) C(p,a) S_k; PhiEx has no
    stated global image in the basis and is sent to zero.
    """
    if label.kind == "S":
        return Fraction(1)
    if label.kind == "Phi":
        return binom(ctx.q, label.k - label.idx) * binom(ctx.p, label.idx)
    if label.kind == "PhiEx":
        return Fraction(0)
    raise ValueError(f"cannot globalize {label}")
