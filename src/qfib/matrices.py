"""Dense matrices over the polynomial ring.

det() runs fraction-free (Bareiss) elimination; every division it performs
is exact by the Sylvester minor identity.  Because exact_div insists on
ordinary (non-Laurent) quotients, det() first factors a signed monomial out
of each row so the working entries are ordinary polynomials, and multiplies
the monomials back at the end — Laurent-entry matrices (negative sequence
indices) then eliminate cleanly.  det_cofactor is the independent oracle
kept for cross-checking small dimensions.
"""

from __future__ import annotations

from math import comb

from .poly import ONE, Poly, Z, ZERO, monomial
from .quadext import QuadElem, alpha_pow
from .qcomb import fibonomial

__all__ = [
    "PolyMatrix",
    "EntryUsesZ",
    "AlphaComponentNonzero",
    "hoggatt",
    "matvec",
    "prodinger_eigvec",
    "verify_prodinger",
    "root_product_residual",
]


class EntryUsesZ(ValueError):
    """charpoly needs z-free entries; z is reserved for the indeterminate."""


class AlphaComponentNonzero(ArithmeticError):
    """A product expected to land in the base ring kept an alpha component."""


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

    @classmethod
    def identity(cls, n: int) -> "PolyMatrix":
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    def __getitem__(self, key) -> Poly:
        i, j = key
        return self._e[i][j]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self._e == other._e

    __hash__ = None

    def __repr__(self) -> str:
        body = "; ".join(
            ", ".join(str(e) for e in row) for row in self._e
        )
        return f"PolyMatrix[{body}]"

    def swap_rows(self, i: int, j: int) -> "PolyMatrix":
        rows = [list(r) for r in self._e]
        rows[i], rows[j] = rows[j], rows[i]
        return PolyMatrix(rows)

    def _require_square(self):
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")

    def det(self) -> Poly:
        """Exact determinant by fraction-free elimination."""
        self._require_square()
        n = self.rows
        if n == 1:
            return self._e[0][0]
        if n == 2:
            (a, b), (c, d) = self._e
            return a * d - b * c
        work = []
        corr = [0, 0, 0, 0]  # accumulated per-variable row monomial exponents
        for row in self._e:
            live = [e for e in row if e]
            if not live:
                return ZERO
            mins = [
                min(e.exponent_range(v)[0] for e in live)
                for v in ("x", "s", "q", "z")
            ]
            if any(mins):
                strip = monomial(1, *(-m for m in mins))
                row = [e * strip for e in row]
                for i, m in enumerate(mins):
                    corr[i] += m
            else:
                row = list(row)
            work.append(row)
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
                lead = row_i[col]
                for j in range(col + 1, n):
                    num = piv * row_i[j] - lead * work[col][j]
                    row_i[j] = num.exact_div(prev)
                row_i[col] = ZERO
            prev = piv
        return work[n - 1][n - 1] * monomial(sign, *corr)

    def det_cofactor(self) -> Poly:
        """Cofactor-expansion determinant; the small-dimension oracle."""
        self._require_square()
        return _cofactor(self._e)

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


def _cofactor(rows) -> Poly:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = ZERO
    for j, head in enumerate(rows[0]):
        if not head:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = head * _cofactor(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


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


def matvec(m: PolyMatrix, v: list[QuadElem]) -> list[QuadElem]:
    """m v for a column vector v of extension-ring elements."""
    if m.cols != len(v):
        raise ValueError("dimension mismatch")
    out = []
    for i in range(m.rows):
        acc = QuadElem(ZERO, ZERO)
        for j in range(m.cols):
            if m[i, j]:
                acc = acc + v[j] * m[i, j]
        out.append(acc)
    return out


def prodinger_eigvec(n: int, j: int) -> list[QuadElem]:
    """Eigenvector u(n, j) of the Hoggatt matrix for the eigenvalue
    alpha^(j-1) beta^(n-j): component i is
    sum_k (-s)^(i-k) C(i-1, k-1) C(n-i, j-k) alpha^(2k-i-1)."""
    if not 1 <= j <= n:
        raise ValueError("prodinger_eigvec needs 1 <= j <= n")
    comps = []
    for i in range(1, n + 1):
        acc = QuadElem(ZERO, ZERO)
        for k in range(1, j + 1):
            c = comb(i - 1, k - 1) * comb(n - i, j - k) if j - k <= n - i else 0
            if not c:
                continue
            coeff = monomial(c if (i - k) % 2 == 0 else -c, es=i - k)
            acc = acc + alpha_pow(2 * k - i - 1) * coeff
        comps.append(acc)
    return comps


def verify_prodinger(n: int, j: int) -> bool:
    """Check a(n) u(n,j) = alpha^(j-1) beta^(n-j) u(n,j) exactly."""
    u = prodinger_eigvec(n, j)
    lam = alpha_pow(j - 1) * alpha_pow(n - j).conj()
    return matvec(hoggatt(n), u) == [lam * e for e in u]


def root_product_residual(k: int) -> Poly:
    """Expand prod_{j=0..k} (z - alpha^(k-j) beta^j) in the extension ring;
    the alpha component must vanish and the base component must equal the
    signed fibonomial expansion sum_j (-1)^C(j+1,2) s^C(j,2) <k+1, j> z^(k+1-j).
    Returns base component minus that expansion (expected zero)."""
    if k < 0:
        raise ValueError("root_product_residual needs k >= 0")
    prod = QuadElem(ONE, ZERO)
    for j in range(k + 1):
        root = alpha_pow(k - j) * alpha_pow(j).conj()
        prod = prod * QuadElem(Z - root.u, -root.v)
    if not prod.v.is_zero():
        raise AlphaComponentNonzero("root product left the base ring")
    rhs = ZERO
    for j in range(k + 2):
        sign = -1 if (j * (j + 1) // 2) % 2 else 1
        rhs = rhs + monomial(sign, es=j * (j - 1) // 2) * fibonomial(k + 1, j) * Z ** (
            k + 1 - j
        )
    return prod.u - rhs
