"""q-binomials, fibonomials, factorial products."""

from math import comb

import pytest

from qfib.poly import ONE, NotDivisible, Poly, Q, S, X, exact_div, monomial, parse
from qfib.qcomb import (
    Fac,
    binom_product,
    fac,
    fibonomial,
    qbinom,
    qbinom_theorem_residual,
    qfibonomial,
    qfibonomial_parts,
)
from qfib.sequences import fib, qfib, transform_T


def qbinom_product_oracle(n, k):
    """Quotient-formula oracle: prod (1-q^(n-i)) / prod (1-q^i)."""
    num = ONE
    for i in range(k):
        num = num * (ONE - monomial(1, eq=n - i))
    den = ONE
    for i in range(1, k + 1):
        den = den * (ONE - monomial(1, eq=i))
    return exact_div(num, den)


def test_qbinom_examples():
    assert str(qbinom(4, 2)) == "1 + q + 2*q^2 + q^3 + q^4"
    assert qbinom(7, 0) == ONE
    assert qbinom(3, 5).is_zero()
    assert qbinom(3, -1).is_zero()


def test_qbinom_against_product_oracle():
    for n in range(0, 9):
        for k in range(0, n + 1):
            assert qbinom(n, k) == qbinom_product_oracle(n, k), (n, k)


def test_qbinom_at_q_one_is_binomial():
    for n in range(0, 13):
        for k in range(0, n + 1):
            assert qbinom(n, k).subst_q_one() == Poly(comb(n, k))


def test_qbinom_theorem_residual():
    for n in range(0, 9):
        assert qbinom_theorem_residual(n).is_zero(), n


def test_fibonomial_matrix_rows():
    # coefficient matrix rows 4 and 5
    assert fibonomial(4, 1) == X * (2 * S + X**2)
    assert fibonomial(5, 2) == (2 * S + X**2) * (S**2 + 3 * S * X**2 + X**4)
    assert fibonomial(3, 1) == S + X**2
    assert fibonomial(3, 2) == S + X**2


def test_fibonomial_triangle_row5():
    row = [int(fibonomial(5, k).evaluate(x=1, s=1)) for k in range(6)]
    assert row == [1, 5, 15, 15, 5, 1]


def test_fibonomial_symmetry():
    for n in range(0, 9):
        for k in range(0, n + 1):
            assert fibonomial(n, k) == fibonomial(n, n - k)


def test_fibonomial_range_check():
    with pytest.raises(ValueError):
        fibonomial(3, 4)
    with pytest.raises(ValueError):
        fibonomial(3, -1)


def test_qfibonomial_trivial_and_reduced():
    assert qfibonomial(4, 0) == ONE
    assert qfibonomial(2, 1) == X
    assert qfibonomial(3, 1) == Q * S + X**2
    num, den = qfibonomial_parts(3, 2)
    assert exact_div(num, den) == Q * S + X**2


def test_qfibonomial_q_one_specializes():
    for k in range(0, 7):
        for j in range(0, k + 1):
            num, den = qfibonomial_parts(k, j)
            lhs = num.subst_q_one()
            rhs = fibonomial(k, j) * den.subst_q_one()
            assert lhs == rhs, (k, j)


def test_qfibonomial_observed_divisibility():
    # polynomiality is not guaranteed by theory; freeze the observed pattern:
    # every coefficient with top index <= 4 that the k<=3 recurrences use is
    # polynomial, while e.g. (4,1) genuinely is not
    for k in range(0, 4):
        for j in range(0, k + 1):
            assert isinstance(qfibonomial(k, j), Poly), (k, j)
    assert isinstance(qfibonomial(4, 0), Poly)
    assert isinstance(qfibonomial(4, 2), Poly)
    assert isinstance(qfibonomial(4, 3), Poly)
    pair = qfibonomial(4, 1)
    assert isinstance(pair, tuple)
    num, den = pair
    with pytest.raises(NotDivisible):
        exact_div(num, den)


def test_fibonomial_ell_examples():
    assert fibonomial(2, 1, 2) == X**2 + 2 * S
    for k in range(0, 6):
        assert fibonomial(k, k, 2) == ONE


def _product(factors):
    total = ONE
    for f in factors:
        total = total * f
    return total


def fibo_variant_parts(k, j, n):
    """The n-shifted fibonomial variant: prod_{i<=k} f(i, q^(n-i) s) over
    prod_{i<=j} f(i, q^(n-j) s) * prod_{i<=k-j} f(i, q^(n-i-j) s)."""
    num = _product(qfib(i, shift=n - i) for i in range(1, k + 1))
    den = _product(qfib(i, shift=n - j) for i in range(1, j + 1)) * _product(
        qfib(i, shift=n - i - j) for i in range(1, k - j + 1)
    )
    return num, den


def test_fibo_variant_is_transform_of_qfibonomial():
    # the n-shifted variant equals the q -> 1/q, s -> q^(n-1) s transform of
    # the plain one, checked as cleared-denominator (cross-multiplied) equality
    for k in range(1, 5):
        for j in range(0, k + 1):
            for n in range(0, 5):
                num, den = qfibonomial_parts(k, j)
                tnum, tden = transform_T(num, n), transform_T(den, n)
                fnum, fden = fibo_variant_parts(k, j, n)
                assert tnum * fden == fnum * tden, (k, j, n)


def test_fac_examples():
    assert Fac(3, 1) == X * (X**2 + S)
    assert fac(0, shift=5, ell=3) == ONE
    assert fac(2, shift=0, ell=1) == X  # f(1) f(2)
    assert fac(3, shift=0, ell=1) == X * (Q * S + X**2)  # f(1) f(2) f(3)
    assert fac(2, shift=1, ell=1) == qfib(1, shift=1) * qfib(2, shift=1)
    assert fac(2, shift=0, ell=2) == qfib(2) * qfib(4)
    assert Fac(2, 2) == fib(2) * fib(4)
    with pytest.raises(ValueError):
        fac(-1)
    with pytest.raises(ValueError):
        Fac(2, 0)


def test_binom_product():
    assert [binom_product(k) for k in range(6)] == [1, 1, 2, 9, 96, 2500]


def test_ell_argument_dispatch():
    # ell defaults to the classical / plain q-fibonomial
    assert fibonomial(5, 2) == fibonomial(5, 2, ell=1)
    assert fibonomial(5, 2) * fib(1) * fib(2) == fib(5) * fib(4)
    assert qfibonomial(3, 1) == qfibonomial(3, 1, ell=1) == Q * S + X**2
    # and selects the stride-ell variant otherwise
    assert fibonomial(2, 1, ell=2) * fib(2) == fib(4)
    num, den = qfibonomial_parts(2, 1, ell=2)
    assert (num, den) == (qfib(2) * qfib(4), qfib(2) * qfib(2, shift=2))
    v = qfibonomial(2, 1, ell=2)
    if isinstance(v, Poly):
        assert v * den == num
    else:
        assert v == (num, den)
    num, den = fibo_variant_parts(2, 1, 3)
    v = exact_div(num, den)
    assert v * den == num
    for bad in (
        lambda: fibonomial(2, 1, ell=0),
        lambda: qfibonomial(2, 1, ell=0),
        lambda: qfibonomial_parts(2, 1, ell=-1),
    ):
        with pytest.raises(ValueError):
            bad()
