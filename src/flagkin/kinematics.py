"""Local additive kinematic coproducts and their closed-form coefficients.

A table row (left, right, c) of the coproduct of a basis measure is the
coefficient of left (x) right in the kinematic expansion.  It is computed
purely inside the flag algebra, in its presentation by x, y and u:
multiply the dual elements of left and right, expand the product over the
dual basis, and read off the input's slot.  flagkin.verify checks the
presentation against the exterior realization of the algebra, and each
table against the closed-form table of the coefficient theorems, which
closed_form_phi and closed_form_S build whole from the table's input.
Table coefficients are rationals held as reduced (num, den) int pairs,
the numerator and denominator of the rational, and so are the closed
forms, so building, printing and certifying a table loads no rational
arithmetic.  Every table states its unit
omega_m^-1 once (measures.family_unit gives m: n, or n - p for the
rescaled Sp tables), which flagkin.cli attaches to each coefficient it
prints; no table term is zero.

The double-sum closed form for the S basis is implemented with summation
limits m'_j, m'_{k-j} (the support of its binomial factors, as dictated by
the dual-basis expansion); the printed limits in the source statement use
m_j, m_{k-j} there, which cuts nonzero terms and already fails the counit
coefficient, so the support limits are the ones asserted.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import IndexOutOfRange
from .invariant_algebras import FlagContext
from .measures import (
    MeasureLabel,
    Ratio,
    basis_labels,
    binom,
    c_constant,
    expand_presented,
    family_unit,
    phi_label,
    presented_dual,
    ratio,
    s_label,
    validate_label,
)
from .records import Record, _set

Term = tuple[MeasureLabel, MeasureLabel, Ratio]
Pair = tuple[MeasureLabel, MeasureLabel]


class KinematicTable(Record):
    """The coproduct of input: terms (left, right, (num, den)) for num/den times the family unit."""

    __slots__ = ("ctx", "input", "family", "terms")

    def __init__(
        self, ctx: FlagContext, input: MeasureLabel, family: str, terms: tuple[Term, ...]
    ) -> None:
        _set(self, "ctx", ctx)
        _set(self, "input", input)
        _set(self, "family", family)
        _set(self, "terms", terms)

    @property
    def unit(self) -> int:
        return family_unit(self.ctx, self.family)

    def coefficient(self, left: MeasureLabel, right: MeasureLabel) -> Ratio:
        """The (num, den) of left (x) right, and (0, 1) when the table has no such term."""
        for l, r, c in self.terms:
            if (l, r) == (left, right):
                return c
        return (0, 1)


def _tables(ctx: FlagContext, family: str, degrees) -> dict[MeasureLabel, KinematicTable]:
    """Coproducts of the family labels of the given degrees, with their terms in print order.

    Each label's dual is built once, up to the largest degree.  Only pairs
    of degrees j + l = k contribute to degree k, and each product of duals
    feeds one coefficient into every input of degree k.  The loop runs
    over j, then left, then right, each in basis_labels order, so every
    table receives its terms in print order: left by degree, PhiEx after
    the other labels of its degree, then by index; then right the same
    way.  expand_presented returns no zero, so no term is zero either.
    """
    duals = [
        [(label, presented_dual(ctx, label)) for label in basis_labels(ctx, j, family)]
        for j in range(max(degrees) + 1)
    ]
    acc: dict[MeasureLabel, list[Term]] = {label: [] for k in degrees for label, _ in duals[k]}
    for k in degrees:
        for j in range(k + 1):
            for left, left_dual in duals[j]:
                for right, right_dual in duals[k - j]:
                    product = expand_presented(ctx, left_dual * right_dual, k, family)
                    for slot, coeff in product.items():
                        acc[slot].append((left, right, coeff))
    return {label: KinematicTable(ctx, label, family, tuple(terms)) for label, terms in acc.items()}


@lru_cache(maxsize=None)
def coproduct_tables(ctx: FlagContext, family: str) -> dict[MeasureLabel, KinematicTable]:
    """Coproducts of every basis label in the family, in the x, y, u presentation."""
    return _tables(ctx, family, range(ctx.n))


def coproduct(ctx: FlagContext, input: MeasureLabel, family: str | None = None) -> KinematicTable:
    """The local additive kinematic table of one basis measure of family (by default its own)."""
    validate_label(ctx, input)
    if family is None:
        family = input.kind if input.kind in ("Phi", "S") else "Phi"
    k = input.degree(ctx)
    if input not in basis_labels(ctx, k, family):
        raise ValueError(f"{input} is not a label of family {family!r}")
    return _tables(ctx, family, (k,))[input]


# -- closed forms ---------------------------------------------------------------


def closed_form_phi(ctx: FlagContext, k: int, a: int) -> dict[Pair, Ratio]:
    """The terms c^{k,a}_{j,b} Phi_{j,b} (x) Phi_{k-j,a-b} of A(Phi[k,a]), in print order.

    Each is keyed by its (left, right) labels and is a reduced (num, den);
    b runs over the labels of degree j whose partner a - b is a label of
    degree k - j, which is the theorem's range.
    """
    validate_label(ctx, phi_label(k, a))
    p, q = ctx.p, ctx.q
    return {
        (phi_label(j, b), phi_label(k - j, a - b)): ratio(
            binom(q - k + j + a - b, j - b) * binom(p - a + b, b),
            binom(q, j - b) * binom(p, b),
        )
        for j in range(k + 1)
        for b in ctx.phi_indices(j)
        if a - b in ctx.phi_indices(k - j)
    }


def _s_scales(ctx: FlagContext, j: int) -> tuple[int, dict[int, int]]:
    """The common denominator L of the terms of closed_form_S at j, and L / C(q, j-s) C(p, s) per s.

    The inner sum of C^{k,i}_{j,b,c} divides by C(q, j-s) C(p, s), which
    depends on s and j only; L is the lcm of its nonzero values, so every
    term is an integer over L.  An s whose divisor is zero has no entry.
    """
    divisors = {s: binom(ctx.q, j - s) * binom(ctx.p, s) for s in range(ctx.m_prime(j) + 1)}
    divisors = {s: d for s, d in divisors.items() if d}
    common = math.lcm(*divisors.values())
    return common, {s: common // d for s, d in divisors.items()}


def closed_form_S(ctx: FlagContext, k: int, i: int) -> dict[Pair, Ratio]:
    """The terms C^{k,i}_{j,b,c} S_j^(p),b (x) S_{k-j}^(p),c of A(S[k,i]), in print order.

    Each is keyed by its (left, right) labels and is a reduced (num, den),
    zero ones included: every b <= m_j and c <= m_{k-j} has a term.
    """
    validate_label(ctx, s_label(k, i))
    n, p, q = ctx.n, ctx.p, ctx.q
    mk, mpk = ctx.m(k), ctx.m_prime(k)
    num_i, den_i = c_constant(n, k, p, i)
    labels = [
        [(s_label(d, b), c_constant(n, d, p, b)) for b in range(ctx.m(d) + 1)]
        for d in range(k + 1)
    ]
    terms = {}
    for j in range(k + 1):
        mpj, mpl = ctx.m_prime(j), ctx.m_prime(k - j)
        common, scale = _s_scales(ctx, j)
        for b, (left, (num_b, den_b)) in enumerate(labels[j]):
            for c, (right, (num_c, den_c)) in enumerate(labels[k - j]):
                total = 0  # the double sum times common
                for t in range(mpk - mk, mpk - i + 1):
                    inner = 0
                    for s in range(max(mpj - b, t - mpl), min(mpj, t - mpl + c) + 1):
                        inner += (
                            binom(b, mpj - s)
                            * binom(c, mpl - t + s)
                            * binom(q - k + t - s + j, j - s)
                            * binom(p - t + s, s)
                            * scale[s]
                        )
                    total += (-1) ** t * binom(mpk - t, i) * inner
                sign = (-1) ** (b + c + mpj + mpl)
                terms[left, right] = ratio(
                    sign * num_i * den_b * den_c * total, den_i * num_b * num_c * common
                )
    return terms


def hug_weil_coproduct(ctx: FlagContext, k: int) -> KinematicTable:
    """Binomial table of the rescaled measures S_j^(p), unit omega_{n-p}^{-1}.

    Derived from the a = 0 Phi table by the substitution
    Phi_{j,0} = (omega_n / omega_{n-p}) C(q,j) S_j^(p), which leaves the
    factor C(q,j) C(q,l) / C(q,k) on each coefficient.  The Phi table is
    mapped term by term, in its print order, and no factor is zero, as
    j, l <= k <= q.
    """
    if not (0 <= k <= ctx.n - 1 and ctx.p <= ctx.n - k - 1):
        raise IndexOutOfRange(f"S^(p)_k needs p <= n-k-1, got p={ctx.p}, k={k}")
    base = coproduct(ctx, phi_label(k, 0), "Phi")
    scale = [binom(ctx.q, j) for j in range(k + 1)]
    terms = []
    for l, r, (num, den) in base.terms:
        coeff = ratio(num * scale[l.k] * scale[r.k], den * scale[k])
        terms.append((MeasureLabel("Sp", l.k), MeasureLabel("Sp", r.k), coeff))
    return KinematicTable(ctx, MeasureLabel("Sp", k), "Sp", tuple(terms))
