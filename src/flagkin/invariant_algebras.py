"""The flag algebra, the H-invariant subalgebra for H = S(O(p) x O(q)).

Production tables are computed in its presentation by x, y and u
(PresentedElement), in integers: an element holds integer coordinates
over one positive denominator, so the presented engine loads no rational
arithmetic.  The oracle checks that presentation against the
realization by forms in grassmann_oracle: x^i y^j is
embed_monomial(ctx, i, j), i! j! times grassmann_oracle.elementary_form
on the diagonal index blocks {2..p+1} and {p+2..n}, read off their
subsets, and u is grassmann_oracle.u_element(ctx).  embed_monomial
imports the oracle when it runs, so the presented path never loads the
exterior kernel.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .records import Record, _set


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


@lru_cache(maxsize=None)
def embed_monomial(ctx: FlagContext, i: int, j: int):
    """The AlgebraElement of x^i y^j: i! j! E_i(first block) E_j(second block), as one row."""
    from .grassmann_oracle import elementary_form

    return elementary_form(ctx, i, j).smul(math.factorial(i) * math.factorial(j))


def monomial_exponents(ctx: FlagContext, k: int) -> list[tuple[int, int]]:
    return [(i, k - i) for i in ctx.phi_indices(k)]


class PresentedElement(Record):
    """An element of the flag algebra in its presentation by x, y and u.

    The algebra is Q[x,y]/(x^(p+1), y^(q+1)), plus Q u when n is odd and
    p == q, with u x = u y = 0 and u^2 = (-1)^p (p+1)/4^p x^p y^p
    (relations the flag algebra suite checks on the exterior realization).
    The element is (sum xy[(a, b)] x^a y^b + u u) / den: xy maps (a, b)
    to a nonzero integer, and u and the positive den are integers.  It is
    kept in lowest terms, so equal elements are equal records.  Unit
    factors are left to the caller.
    """

    __slots__ = ("ctx", "xy", "u", "den")

    def __init__(
        self, ctx: FlagContext, xy: dict[tuple[int, int], int], u: int = 0, den: int = 1
    ) -> None:
        if den < 1:
            raise ValueError(f"denominator {den} is not positive")
        g = math.gcd(den, u, *xy.values())
        if g > 1:
            xy = {key: c // g for key, c in xy.items()}
            u //= g
            den //= g
        _set(self, "ctx", ctx)
        _set(self, "xy", xy)
        _set(self, "u", u)
        _set(self, "den", den)

    def __mul__(self, other: "PresentedElement") -> "PresentedElement":
        p, q = self.ctx.p, self.ctx.q
        xy: dict[tuple[int, int], int] = {}
        for (a, b), c in self.xy.items():
            for (a2, b2), c2 in other.xy.items():
                if a + a2 <= p and b + b2 <= q:
                    key = (a + a2, b + b2)
                    xy[key] = xy.get(key, 0) + c * c2
        u = self.u * other.xy.get((0, 0), 0) + other.u * self.xy.get((0, 0), 0)
        den = self.den * other.den
        if self.u and other.u:
            # u^2 = (-1)^p (p+1)/4^p x^p y^q: the coordinates and den take the 4^p
            scale = 4**p
            xy = {key: c * scale for key, c in xy.items()}
            xy[(p, q)] = xy.get((p, q), 0) + self.u * other.u * (-1) ** p * (p + 1)
            u *= scale
            den *= scale
        return PresentedElement(self.ctx, {key: c for key, c in xy.items() if c}, u, den)


def invariant_dimension(ctx: FlagContext, k: int) -> int:
    """m_k + 1, plus 1 in the exceptional middle degree."""
    extra = 1 if ctx.exceptional and k == ctx.middle else 0
    return ctx.m(k) + 1 + extra
