"""H-invariant subalgebras of the rotation algebra.

Two cases are materialized: the area-measure algebra R[t]/<t^n> for
H = SO(n-1), and the flag algebra on x, y (plus u when p == q) for
H = S(O(p) x O(q)).  The first block of diagonal indices is {2..p+1},
the second {p+2..n}.  The flag algebra also has its presentation by x, y
and u (PresentedElement), in which production tables are computed; its
realization by forms is the oracle that checks it.  The realization's
modules (rotation_algebra, linalg) are imported by the functions that use
them, so the presented path never loads the exterior kernel.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import ExceptionalUnavailable, NotHomogeneous, NotInSubalgebra, SolveFailure
from .scalars import Record, Scalar, _set, factorial

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from .rotation_algebra import AlgebraElement


class FlagContext(Record):
    """Ambient dimension n and block split p + q = n - 1."""

    __slots__ = ("n", "p")

    def __init__(self, n: int, p: int) -> None:
        if not 0 <= p <= n - 1:
            raise ValueError(f"p={p} outside 0..{n - 1}")
        _set(self, "n", n)
        _set(self, "p", p)

    @property
    def q(self) -> int:
        return self.n - self.p - 1

    @property
    def exceptional(self) -> bool:
        return self.n % 2 == 1 and self.p == self.q

    @property
    def middle(self) -> int:
        return (self.n - 1) // 2

    def m(self, k: int) -> int:
        return min(self.p, self.q, k, self.n - k - 1)

    def m_prime(self, k: int) -> int:
        return min(self.p, k)

    def block1(self) -> range:
        return range(2, self.p + 2)

    def block2(self) -> range:
        return range(self.p + 2, self.n + 1)

    def phi_indices(self, k: int) -> range:
        """The a with Phi_{k,a} a basis label: max(0, k - q) <= a <= min(k, p).

        The range is empty unless 0 <= k <= n - 1.
        """
        return range(max(0, k - self.q), min(k, self.p) + 1)


def t_element(n: int) -> AlgebraElement:
    """E_1(x_22, ..., x_nn); the area algebra map sends t^i to i! E_i."""
    from .rotation_algebra import elementary_symmetric

    return elementary_symmetric(n, range(2, n + 1), 1)


@lru_cache(maxsize=None)
def u_element(ctx: FlagContext) -> AlgebraElement:
    """The exceptional generator: det of the off-diagonal block of X."""
    if not ctx.exceptional:
        raise ExceptionalUnavailable(f"n={ctx.n}, p={ctx.p} is not exceptional")
    from .rotation_algebra import determinant, generator

    rows = list(ctx.block1())
    cols = list(ctx.block2())
    entries = [[generator(ctx.n, i, j) for j in cols] for i in rows]
    return determinant(entries)


def flag_generators(ctx: FlagContext):
    """(x, y, u) with u = None outside the exceptional case."""
    u = u_element(ctx) if ctx.exceptional else None
    return embed_monomial(ctx, 1, 0), embed_monomial(ctx, 0, 1), u


@lru_cache(maxsize=None)
def embed_monomial(ctx: FlagContext, i: int, j: int) -> AlgebraElement:
    """Image of x^i y^j: i! E_i(first block) * j! E_j(second block)."""
    from .rotation_algebra import elementary_symmetric

    ei = elementary_symmetric(ctx.n, ctx.block1(), i)
    ej = elementary_symmetric(ctx.n, ctx.block2(), j)
    return (ei * ej).smul(Scalar(factorial(i) * factorial(j)))


def monomial_exponents(ctx: FlagContext, k: int) -> list[tuple[int, int]]:
    return [(i, k - i) for i in ctx.phi_indices(k)]


class InvariantCoords(Record):
    """Coefficients over x^i y^j, as ((i, j), c) pairs, and of u (None without u)."""

    __slots__ = ("xy", "u")

    def __init__(self, xy: tuple[tuple[tuple[int, int], Scalar], ...], u: Scalar | None) -> None:
        _set(self, "xy", xy)
        _set(self, "u", u)

    def coefficient(self, i: int, j: int) -> Scalar:
        for (a, b), c in self.xy:
            if (a, b) == (i, j):
                return c
        return Scalar()


@lru_cache(maxsize=None)
def _invariant_columns(ctx: FlagContext, k: int):
    from .rotation_algebra import _body_to_row

    exps = monomial_exponents(ctx, k)
    cols = [_body_to_row(embed_monomial(ctx, i, j).body) for i, j in exps]
    has_u = ctx.exceptional and k == ctx.middle
    if has_u:
        cols.append(_body_to_row(u_element(ctx).body))
    return exps, cols, has_u


def invariant_coordinates(ctx: FlagContext, a: AlgebraElement, k: int) -> InvariantCoords:
    """Coordinates of a over the monomial basis x^i y^j (plus u in the middle).

    Membership in the invariant subalgebra is certified by solvability of
    the exact linear system; inconsistency raises NotInSubalgebra.
    """
    exps, cols, has_u = _invariant_columns(ctx, k)
    if a.is_zero():
        zero = Scalar()
        return InvariantCoords(tuple(((i, j), zero) for i, j in exps), zero if has_u else None)
    if a.degree() != k:
        raise NotHomogeneous(f"element has degree {a.degree()}, expected {k}")
    from .linalg import solve_unique

    try:
        sol = solve_unique(list(cols), a.body.row)
    except SolveFailure as exc:
        raise NotInSubalgebra(str(exc)) from exc
    unit = Scalar(Fraction(1), a.body.units)
    vals = [Scalar(v) * unit for v in sol]
    xy = tuple((exp, val) for exp, val in zip(exps, vals[: len(exps)]))
    return InvariantCoords(xy, vals[-1] if has_u else None)


class PresentedElement(Record):
    """An element of the flag algebra in its presentation by x, y and u.

    The algebra is Q[x,y]/(x^(p+1), y^(q+1)), plus Q u when n is odd and
    p == q, with u x = u y = 0 and u^2 = (-1)^p (p+1)/4^p x^p y^p
    (the relations checked on the exterior realization by the flag
    algebra suite).  xy maps (a, b) to the rational coefficient of
    x^a y^b; unit factors are left to the caller.
    """

    __slots__ = ("ctx", "xy", "u")

    def __init__(
        self, ctx: FlagContext, xy: dict[tuple[int, int], Fraction], u: Fraction = Fraction(0)
    ) -> None:
        _set(self, "ctx", ctx)
        _set(self, "xy", xy)
        _set(self, "u", u)

    def __mul__(self, other: "PresentedElement") -> "PresentedElement":
        p, q = self.ctx.p, self.ctx.q
        xy: dict[tuple[int, int], Fraction] = {}
        for (a, b), c in self.xy.items():
            for (a2, b2), c2 in other.xy.items():
                if a + a2 <= p and b + b2 <= q:
                    key = (a + a2, b + b2)
                    xy[key] = xy.get(key, 0) + c * c2
        u = self.u * other.xy.get((0, 0), 0) + other.u * self.xy.get((0, 0), 0)
        if self.u and other.u:
            xy[(p, q)] = xy.get((p, q), 0) + self.u * other.u * Fraction(
                (-1) ** p * (p + 1), 4**p
            )
        return PresentedElement(self.ctx, {key: c for key, c in xy.items() if c}, u)


def invariant_dimension(ctx: FlagContext, k: int) -> int:
    """m_k + 1, plus 1 in the exceptional middle degree."""
    extra = 1 if ctx.exceptional and k == ctx.middle else 0
    return ctx.m(k) + 1 + extra
