"""Dense matrices over the polynomial ring.

det() runs fraction-free (Bareiss) elimination; every division it performs
is exact by the Sylvester minor identity, in the Laurent ring that
exact_div works in, so Laurent entries (negative sequence indices) need no
special care.  Each step piv * a - lead * b is one poly.dot, and the first
step's division by 1 is skipped.

Bareiss computes charpoly's determinant, which tables hoggatt-charpoly
prints.  The harness computes every catalog determinant from 2 x 2 minors
of sequence values (gen_cassini's is one such minor); the tests keep
cofactor expansion and Bareiss on the explicit power matrices as oracles
(tests/oracles.py).
"""

from __future__ import annotations

from math import comb

from .poly import ONE, Poly, Z, ZERO, dot, monomial
from .qcomb import _SIGNED_FIBONOMIALS

__all__ = [
    "PolyMatrix",
    "EntryUsesZ",
    "hoggatt",
    "hoggatt_closed_form",
]


class EntryUsesZ(ValueError):
    """charpoly needs z-free entries; z is reserved for the indeterminate."""


class PolyMatrix:
    __slots__ = ("rows", "cols", "_e")

    def __init__(self, entries):
        entries = [
            [e if isinstance(e, Poly) else Poly(e) for e in row] for row in entries
        ]
        if not entries or not entries[0]:
            raise ValueError("matrix needs at least one row and column")
        w = len(entries[0])
        if any(len(row) != w for row in entries):
            raise ValueError("matrix rows have unequal lengths")
        self.rows = len(entries)
        self.cols = w
        self._e = entries

    def __getitem__(self, key) -> Poly:
        i, j = key
        return self._e[i][j]

    def _require_square(self):
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")

    def det(self) -> Poly:
        """Exact determinant by fraction-free elimination."""
        self._require_square()
        n = self.rows
        work = [list(row) for row in self._e]
        sign = 1
        prev = ONE
        for col in range(n - 1):
            pivot_row = col
            while not work[pivot_row][col]:
                pivot_row += 1
                if pivot_row == n:
                    return ZERO
            if pivot_row != col:
                work[col], work[pivot_row] = work[pivot_row], work[col]
                sign = -sign
            piv = work[col][col]
            for i in range(col + 1, n):
                row_i = work[i]
                lead = -row_i[col]
                for j in range(col + 1, n):
                    num = dot(((piv, row_i[j]), (lead, work[col][j])))
                    # prev is ONE before the first pivot: nothing to divide
                    row_i[j] = num if prev is ONE else num.exact_div(prev)
                row_i[col] = ZERO
            prev = piv
        return work[n - 1][n - 1] * sign

    def charpoly(self) -> Poly:
        """det(z*I - M); entries must not involve z."""
        self._require_square()
        for row in self._e:
            for e in row:
                if e.exponent_range("z") != (0, 0):
                    raise EntryUsesZ("matrix entry already uses z")
        n = self.rows
        zi_minus = [
            [(Z if i == j else ZERO) - self._e[i][j] for j in range(n)]
            for i in range(n)
        ]
        return PolyMatrix(zi_minus).det()


def hoggatt(n: int) -> PolyMatrix:
    """The binomial-coefficient matrix a(n) with entries
    C(i-1, n-j) x^(i+j-n-1) s^(n-j) (1-based i, j); zero binomials give the
    zero entry, so no negative powers of x ever appear."""
    if n < 1:
        raise ValueError("hoggatt needs n >= 1")
    entries = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            c = comb(i - 1, n - j) if 0 <= n - j <= i - 1 else 0
            row.append(monomial(c, ex=i + j - n - 1, es=n - j) if c else ZERO)
        entries.append(row)
    return PolyMatrix(entries)


def hoggatt_closed_form(n: int) -> Poly:
    """det(zI - hoggatt(n)) in closed form, sum_j (-1)^C(j+1,2) s^C(j,2)
    <n, j> z^(n-j), from the fibonomials <n, j>: no code shared with
    hoggatt() or with the determinant."""
    return sum((w * monomial(1, ez=n - j) for j, w in enumerate(_SIGNED_FIBONOMIALS[n])), ZERO)
