"""Named measure bases, their dual algebra elements, and base changes.

Labels: Phi[k,a] and S[k,i] index the two bases of flag area measures,
PhiEx the exceptional one (only for odd n with p == q), GlobS[k] the
globalized area measures and Sp[k] the rescaled family of Corollary-style
binomial tables.  Dual elements are elements of the flag algebra in its
presentation by x, y and u (presented_dual); their normalizations are the
closed formulas of the source basis (x^a y^(k-a) times explicit binomial
constants), written once there and inverted once in expand_presented, so
that every kinematic coefficient is computed purely inside the algebra.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache

from .errors import ExceptionalUnavailable, IndexOutOfRange, NotHomogeneous
from .invariant_algebras import FlagContext, PresentedElement, monomial_exponents
from .scalars import ONE, Record, Scalar, _set, binom, factorial, omega_sym, sbinom


class MeasureLabel(Record, order=True):
    __slots__ = ("kind", "k", "idx")

    def __init__(self, kind: str, k: int = 0, idx: int = 0) -> None:
        _set(self, "kind", kind)  # "Phi" | "S" | "PhiEx" | "GlobS" | "Sp"
        _set(self, "k", k)
        _set(self, "idx", idx)

    def degree(self, ctx: FlagContext) -> int:
        return ctx.middle if self.kind == "PhiEx" else self.k

    def to_text(self) -> str:
        if self.kind == "PhiEx":
            return "PhiEx"
        if self.kind in ("GlobS", "Sp"):
            return f"{self.kind}[{self.k}]"
        return f"{self.kind}[{self.k},{self.idx}]"

    @staticmethod
    def from_text(text: str) -> "MeasureLabel":
        if text == "PhiEx":
            return MeasureLabel("PhiEx")
        m = re.match(r"^(Phi|S)\[(\d+),(\d+)\]$", text)
        if m:
            return MeasureLabel(m.group(1), int(m.group(2)), int(m.group(3)))
        m = re.match(r"^(GlobS|Sp)\[(\d+)\]$", text)
        if m:
            return MeasureLabel(m.group(1), int(m.group(2)))
        raise ValueError(f"bad measure label {text!r}")

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
    elif label.kind in ("GlobS", "Sp"):
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


class MeasureExpr(Record):
    """Homogeneous Scalar-linear combination of basis measures."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: FlagContext, terms: tuple[tuple[MeasureLabel, Scalar], ...]) -> None:
        for label, _ in terms:
            validate_label(ctx, label)
        degs = {label.degree(ctx) for label, c in terms if not c.is_zero()}
        if len(degs) > 1:
            raise ValueError(f"mixed degrees {sorted(degs)}")
        _set(self, "ctx", ctx)
        _set(self, "terms", tuple(sorted(terms)))

    @staticmethod
    def of(ctx: FlagContext, mapping: dict[MeasureLabel, Scalar]) -> "MeasureExpr":
        return MeasureExpr(ctx, tuple((l, c) for l, c in mapping.items() if not c.is_zero()))

    def coefficient(self, label: MeasureLabel) -> Scalar:
        for l, c in self.terms:
            if l == label:
                return c
        return Scalar()

    def degree(self) -> int | None:
        return self.terms[0][0].degree(self.ctx) if self.terms else None

    def __add__(self, other: "MeasureExpr") -> "MeasureExpr":
        acc = {l: c for l, c in self.terms}
        for l, c in other.terms:
            acc[l] = acc.get(l, Scalar()) + c
        return MeasureExpr.of(self.ctx, acc)

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"[{c.to_text()}] {l.to_text()}" for l, c in self.terms)

    def __str__(self) -> str:
        return self.to_text()


# -- normalization constants and base changes ---------------------------------


@lru_cache(maxsize=None)
def c_constant(n: int, k: int, p: int, i: int) -> Scalar:
    """c_{n,k,p,i}, the binomial normalization of the S-basis."""
    ctx = FlagContext(n, p)
    validate_label(ctx, s_label(k, i))
    m_k = ctx.m(k)
    value = (
        ONE
        / sbinom(n - 1, k)
        / sbinom(m_k, i)
        / sbinom(abs(k - ctx.q) + m_k, i)
        * sbinom(n - 1, i)
    )
    return value


def s_in_phi(ctx: FlagContext, k: int, i: int) -> MeasureExpr:
    """S_k^(p),i as a combination of the Phi_{k,a}."""
    validate_label(ctx, s_label(k, i))
    c = c_constant(ctx.n, k, ctx.p, i)
    mp, m = ctx.m_prime(k), ctx.m(k)
    terms = {}
    for a in range(mp - m, mp - i + 1):
        terms[phi_label(k, a)] = c * sbinom(mp - a, i)
    return MeasureExpr.of(ctx, terms)


def phi_in_s(ctx: FlagContext, j: int, a: int) -> MeasureExpr:
    """Phi_{j,a} as the alternating combination of the S_j^(p),s."""
    validate_label(ctx, phi_label(j, a))
    mp, m = ctx.m_prime(j), ctx.m(j)
    terms = {}
    for s in range(mp - a, m + 1):
        sign = Scalar.of((-1) ** (a + mp + s))
        terms[s_label(j, s)] = (
            sign / c_constant(ctx.n, j, ctx.p, s) * sbinom(s, mp - a)
        )
    return MeasureExpr.of(ctx, terms)


def s_in_phi_matrix(ctx: FlagContext, k: int) -> list[list[Scalar]]:
    """Rows indexed by i, columns by the a-range of valid Phi labels."""
    return [
        [s_in_phi(ctx, k, i).coefficient(phi_label(k, a)) for a in ctx.phi_indices(k)]
        for i in range(ctx.m(k) + 1)
    ]


def phi_in_s_matrix(ctx: FlagContext, k: int) -> list[list[Scalar]]:
    """Rows indexed by a, columns by i."""
    return [
        [phi_in_s(ctx, k, a).coefficient(s_label(k, i)) for i in range(ctx.m(k) + 1)]
        for a in ctx.phi_indices(k)
    ]


# -- duals in the x, y, u presentation -----------------------------------------
#
# Every dual carries the same unit omega_n^-1, so it is factored out:
# presented_dual(L) is omega_n times the dual of L, over rationals, and
# dual_product puts the unit back once per output coefficient.


def _phi_scale(ctx: FlagContext, a: int, b: int) -> Fraction:
    """C(q,b) C(p,a) a! b!, the multiple of omega_n Phi_{a+b,a}^* that is x^a y^b."""
    return binom(ctx.q, b) * binom(ctx.p, a) * factorial(a) * factorial(b)


@lru_cache(maxsize=None)
def presented_dual(ctx: FlagContext, label: MeasureLabel) -> PresentedElement:
    """omega_n times the dual element of label, in the x, y, u presentation.

    Phi_{k,a}^* = x^a y^(k-a) / (omega_n C(q,k-a) C(p,a) a! (k-a)!),
    S_k^(p),i,* = (-1)^(i+m'_k) / c_{n,k,p,i} sum_a (-1)^a C(i, m'_k - a) Phi_{k,a}^*
    and Phi_ex^* = (-1)^p u / (omega_n p!).
    """
    validate_label(ctx, label)
    k = label.k
    if label.kind == "Phi":
        a = label.idx
        return PresentedElement(ctx, {(a, k - a): 1 / _phi_scale(ctx, a, k - a)})
    if label.kind == "S":
        i, mp = label.idx, ctx.m_prime(k)
        front = (-1) ** (i + mp) / c_constant(ctx.n, k, ctx.p, i).value
        xy = {}
        for a in range(mp - i, mp + 1):
            xy[(a, k - a)] = front * (-1) ** a * binom(i, mp - a) / _phi_scale(ctx, a, k - a)
        return PresentedElement(ctx, xy)
    if label.kind == "PhiEx":
        return PresentedElement(ctx, {}, (-1) ** ctx.p / factorial(ctx.p))
    raise ValueError(f"no dual element for {label}")


@lru_cache(maxsize=None)
def _expansion_rows(ctx: FlagContext, k: int, family: str):
    """Per family label of degree k, the weight of each x^a y^b coordinate."""
    phi_weight = {(a, b): _phi_scale(ctx, a, b) for a, b in monomial_exponents(ctx, k)}
    if family == "Phi":
        return tuple((phi_label(k, a), {(a, b): w}) for (a, b), w in phi_weight.items())
    if family == "S":
        mp = ctx.m_prime(k)
        rows = []
        for i in range(ctx.m(k) + 1):
            c = c_constant(ctx.n, k, ctx.p, i).value
            weights = {(a, b): w * c * binom(mp - a, i) for (a, b), w in phi_weight.items()}
            rows.append((s_label(k, i), weights))
        return tuple(rows)
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
) -> dict[MeasureLabel, Scalar]:
    """The product of the duals of left and right over the dual basis of family."""
    product = presented_dual(ctx, left) * presented_dual(ctx, right)
    deg = left.degree(ctx) + right.degree(ctx)
    unit = ((omega_sym(ctx.n), -1),)
    return {
        label: Scalar(c, unit)
        for label, c in expand_presented(ctx, product, deg, family).items()
    }


# -- globalization and the rescaled family -------------------------------------


def globalize(expr: MeasureExpr) -> MeasureExpr:
    """Push forward to the global S_k basis.

    S[k,i] maps to GlobS[k]; Phi[k,a] to C(q,k-a) C(p,a) GlobS[k]; PhiEx
    has no stated global image in the basis and is sent to zero.
    """
    ctx = expr.ctx
    acc: dict[MeasureLabel, Scalar] = {}
    for label, c in expr.terms:
        if label.kind == "S":
            target, factor = MeasureLabel("GlobS", label.k), ONE
        elif label.kind == "Phi":
            target = MeasureLabel("GlobS", label.k)
            factor = sbinom(ctx.q, label.k - label.idx) * sbinom(ctx.p, label.idx)
        elif label.kind == "PhiEx":
            continue
        else:
            raise ValueError(f"cannot globalize {label}")
        acc[target] = acc.get(target, Scalar()) + c * factor
    return MeasureExpr.of(ctx, acc)


def hug_weil_measure(ctx: FlagContext, k: int) -> MeasureExpr:
    """S_k^(p) = (omega_{n-p} / omega_n) C(q,k)^{-1} Phi_{k,0}."""
    if not (0 <= ctx.p <= ctx.n - k - 1):
        raise IndexOutOfRange(f"S^(p)_k needs p <= n-k-1, got p={ctx.p}, k={k}")
    coeff = Scalar.omega(ctx.n - ctx.p) * Scalar.omega(ctx.n, -1) / sbinom(ctx.q, k)
    return MeasureExpr.of(ctx, {phi_label(k, 0): coeff})
