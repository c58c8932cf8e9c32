"""Reference implementations that the tests compare qfib against.

Each computes, by a second and slower route, a value that qfib computes
its own way: Bareiss on the explicit matrix for the factored power
determinants (harness._power_det), cofactor expansion for Bareiss
(PolyMatrix.det), and the q-binomial sum for the q-Fibonacci recurrence
(sequences.qfib).

A helper module of the tests (pytest collects only test_*.py): qfib
itself runs none of these.
"""

from qfib.matrices import PolyMatrix
from qfib.poly import ZERO, Poly, monomial
from qfib.qcomb import qbinom
from qfib.sequences import fib, qfib


def power_det_bareiss(n: int, k: int, ell: int, classical: bool) -> Poly:
    """The power determinant of harness._power_det by Bareiss on the
    explicit matrix, whose every division is exact (Sylvester's identity), a
    zero pivot swapped for a nonzero one below it: the oracle of _power_det."""

    def entry(i, j):
        m = ell * (n + i - j)
        return (fib(m) if classical else qfib(m, shift=ell * j)) ** k

    return PolyMatrix([[entry(i, j) for j in range(k + 1)] for i in range(k + 1)]).det()


def det_cofactor(matrix: PolyMatrix) -> Poly:
    """Cofactor-expansion determinant; the small-dimension oracle of
    PolyMatrix.det."""
    matrix._require_square()
    return _cofactor(matrix._e)


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


def qfib_explicit(n: int) -> Poly:
    """Closed-form sum over k of [n-1-k, k]_q q^(k^2) x^(n-1-2k) s^k."""
    if n < 0:
        raise ValueError("qfib_explicit is defined for n >= 0")
    total = ZERO
    k = 0
    while 2 * k <= n - 1:
        total = total + qbinom(n - 1 - k, k) * monomial(1, ex=n - 1 - 2 * k, es=k, eq=k * k)
        k += 1
    return total
