"""Exact q-Fibonacci polynomial toolkit.

Laurent polynomial arithmetic over the integers, q-Fibonacci/Lucas
sequence generators, (q-)fibonomial coefficients, fraction-free polynomial
determinants with the Hoggatt matrix's eigenpairs checked in the same ring,
and a verification harness that checks a catalog of identities and
conjectures as exact zero residuals.
"""

from .poly import (
    Poly,
    NotDivisible,
    ParseError,
    PoleAtZero,
    exact_div,
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
