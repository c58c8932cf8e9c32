"""Quadratic extension ring R[alpha] with alpha^2 = x*alpha + s.

Elements are u + v*alpha with u, v Laurent polynomials.  alpha and its
conjugate beta = x - alpha are the two roots of t^2 = x*t + s, so Binet-style
closed forms can be manipulated exactly, without radicals.  beta is never
stored; conj() swaps the roots and symmetric expressions land in the base
ring automatically.
"""

from __future__ import annotations

from .poly import ONE, Poly, S, X, ZERO, monomial

__all__ = [
    "QuadElem",
    "ALPHA",
    "alpha_pow",
]


class QuadElem:
    """u + v*alpha, with multiplication reduced via alpha^2 = x*alpha + s."""

    __slots__ = ("u", "v")

    def __init__(self, u: Poly | int, v: Poly | int = 0):
        self.u = u if isinstance(u, Poly) else Poly(u)
        self.v = v if isinstance(v, Poly) else Poly(v)

    def __eq__(self, other) -> bool:
        if isinstance(other, (Poly, int)):
            other = QuadElem(other)
        if not isinstance(other, QuadElem):
            return NotImplemented
        return self.u == other.u and self.v == other.v

    __hash__ = None

    def is_zero(self) -> bool:
        return self.u.is_zero() and self.v.is_zero()

    def __repr__(self) -> str:
        return f"QuadElem(({self.u}) + ({self.v})*alpha)"

    def __add__(self, other) -> "QuadElem":
        if isinstance(other, (Poly, int)):
            other = QuadElem(other)
        elif not isinstance(other, QuadElem):
            return NotImplemented
        return QuadElem(self.u + other.u, self.v + other.v)

    __radd__ = __add__

    def __neg__(self) -> "QuadElem":
        return QuadElem(-self.u, -self.v)

    def __sub__(self, other) -> "QuadElem":
        if isinstance(other, (Poly, int)):
            other = QuadElem(other)
        elif not isinstance(other, QuadElem):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "QuadElem":
        return (-self) + other

    def __mul__(self, other) -> "QuadElem":
        if isinstance(other, (Poly, int)):
            return QuadElem(self.u * other, self.v * other)
        if not isinstance(other, QuadElem):
            return NotImplemented
        # (u1 + v1 a)(u2 + v2 a), a^2 = x a + s
        vv = self.v * other.v
        return QuadElem(
            self.u * other.u + S * vv,
            self.u * other.v + self.v * other.u + X * vv,
        )

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "QuadElem":
        if not isinstance(e, int) or e < 0:
            raise ValueError("QuadElem powers require a nonnegative int")
        result = QuadElem(ONE, ZERO)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def conj(self) -> "QuadElem":
        """Swap alpha and beta = x - alpha: (u, v) -> (u + v*x, -v)."""
        return QuadElem(self.u + self.v * X, -self.v)

    def trace(self) -> Poly:
        """self + conj(self), projected to the base ring: 2u + v*x."""
        return self.u * 2 + self.v * X


ALPHA = QuadElem(ZERO, ONE)
# alpha^-1 = (alpha - x)/s, from alpha*(alpha - x) = s
_ALPHA_INV = QuadElem(monomial(-1, ex=1, es=-1), monomial(1, es=-1))


def alpha_pow(n: int) -> QuadElem:
    """alpha^n for any integer n; negative powers have Laurent-s coefficients."""
    if n >= 0:
        return ALPHA ** n
    return _ALPHA_INV ** (-n)
