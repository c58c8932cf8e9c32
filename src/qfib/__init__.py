"""Exact q-Fibonacci polynomial toolkit.

Laurent polynomial arithmetic over the integers, q-Fibonacci/Lucas
sequence generators, (q-)fibonomial coefficients, fraction-free polynomial
determinants, the Hoggatt matrix and the closed form of its characteristic
polynomial, and a verification harness that checks a catalog of identities
and conjectures as exact zero residuals.  The checks of the Hoggatt
matrix's eigenpairs and roots are in the tests (tests/hoggatt_checks.py),
as are the reference implementations they compare against (tests/oracles.py).
"""

from .poly import (
    Poly,
    NotDivisible,
    ParseError,
    PoleAtZero,
    monomial,
    parse,
    ZERO,
    ONE,
    X,
    S,
    Q,
    Z,
)

__version__ = "0.1.0"
