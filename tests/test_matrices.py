"""Determinants, characteristic polynomials, eigenvector checks."""

import random

import pytest

import hoggatt_checks
from hoggatt_checks import (
    _alpha_beta,
    prodinger_eigvec,
    root_product_residual,
    verify_prodinger,
)
from oracles import det_cofactor
from qfib.matrices import EntryUsesZ, PolyMatrix, hoggatt, hoggatt_closed_form
from qfib.poly import ONE, NotDivisible, Poly, Q, S, X, Z, ZERO, monomial
from qfib.qcomb import fibonomial
from qfib.sequences import qfib


def rand_poly(rng, nterms, lo=-2, hi=3):
    d = {}
    for _ in range(nterms):
        d[(rng.randint(lo, hi), rng.randint(lo, hi), rng.randint(lo, hi), 0)] = (
            rng.randint(-6, 6)
        )
    return Poly(d)


def _identity(n):
    return PolyMatrix([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])


def test_det_identity():
    assert _identity(2).det() == ONE
    assert _identity(4).det() == ONE


def test_det_qfib_example():
    m = PolyMatrix([[qfib(2), qfib(1, shift=1)], [qfib(3), qfib(2, shift=1)]])
    assert m.det() == -(Q * S)


def test_det_3x3_shifted_squares():
    m = PolyMatrix(
        [[qfib(2 + i - j, shift=j) ** 2 for j in range(3)] for i in range(3)]
    )
    assert m.det() == monomial(2, ex=2, es=2, eq=3)


def test_det_matches_cofactor_randomized():
    rng = random.Random(71)
    for trial in range(200):
        n = rng.randint(2, 4)
        m = PolyMatrix([[rand_poly(rng, rng.randint(0, 3)) for _ in range(n)] for _ in range(n)])
        assert m.det() == det_cofactor(m), trial


def test_det_alternating_on_row_swap():
    rng = random.Random(73)
    for _ in range(20):
        n = rng.randint(2, 4)
        m = PolyMatrix([[rand_poly(rng, 2) for _ in range(n)] for _ in range(n)])
        i, j = rng.sample(range(n), 2)
        rows = [[m[r, c] for c in range(n)] for r in range(n)]
        rows[i], rows[j] = rows[j], rows[i]
        assert PolyMatrix(rows).det() == -m.det()


def test_det_laurent_entries():
    # negative-index values produce Laurent entries; row normalization keeps
    # the elimination exact
    for base in (-2, -1, 0):
        m = PolyMatrix(
            [[qfib(base + i - j, shift=j) for j in range(3)] for i in range(3)]
        )
        assert m.det() == det_cofactor(m), base


def test_exact_div_of_laurent_operands():
    b = qfib(-3, shift=1)
    a = qfib(-4) * b
    assert a.exact_div(b) == qfib(-4)  # a Laurent quotient
    assert (a * monomial(1, ex=2, es=-5)).exact_div(b * S) == qfib(-4) * monomial(
        1, ex=2, es=-6
    )
    assert ZERO.exact_div(b) == ZERO
    with pytest.raises(NotDivisible):
        (a + ONE).exact_div(b)


def test_det_zero_row_and_pivot_search():
    m = PolyMatrix([[ZERO, ZERO], [X, S]])
    assert m.det() == ZERO
    needs_swap = PolyMatrix([[ZERO, X, S], [Q, ZERO, ONE], [S, X, Q]])
    assert needs_swap.det() == det_cofactor(needs_swap)


def test_det_requires_square():
    with pytest.raises(ValueError):
        PolyMatrix([[ONE, X]]).det()


def test_charpoly_examples():
    assert PolyMatrix([[ZERO, ONE], [S, X]]).charpoly() == Z**2 - X * Z - S
    c = monomial(3, ex=1)
    assert PolyMatrix([[c]]).charpoly() == Z - c
    with pytest.raises(EntryUsesZ):
        PolyMatrix([[Z]]).charpoly()


def test_hoggatt_small():
    for n, rows in ((1, [[ONE]]), (2, [[ZERO, ONE], [S, X]])):
        m = hoggatt(n)
        assert (m.rows, m.cols) == (n, n)
        assert [[m[i, j] for j in range(n)] for i in range(n)] == rows
    with pytest.raises(ValueError):
        hoggatt(0)


def test_hoggatt_entries_never_have_negative_x_powers():
    for n in range(1, 7):
        m = hoggatt(n)
        for i in range(n):
            for j in range(n):
                lo, _ = m[i, j].exponent_range("x")
                assert lo >= 0


def fib_charpoly(n):
    rhs = ZERO
    for j in range(n + 1):
        sign = -1 if (j * (j + 1) // 2) % 2 else 1
        rhs = rhs + monomial(sign, es=j * (j - 1) // 2) * fibonomial(n, j) * Z ** (n - j)
    return rhs


def test_hoggatt_charpoly_is_fibonomial_expansion():
    for n in range(1, 7):
        assert hoggatt_closed_form(n) == fib_charpoly(n), n
        assert hoggatt(n).charpoly() == fib_charpoly(n), n


def test_prodinger_eigvec_2_1_by_hand():
    # alpha is held in the x slot, beta in the q slot
    u = prodinger_eigvec(2, 1)
    assert u == [ONE, Q]
    # hoggatt(2) = [[0, 1], [s, x]] maps to [[0, 1], [-alpha beta, alpha + beta]]
    assert [_alpha_beta(e) for e in (hoggatt(2)[1, 0], hoggatt(2)[1, 1])] == [-(X * Q), X + Q]
    # [[0, 1], [-alpha beta, alpha + beta]] [1, beta] = [beta, beta^2] = beta u
    assert verify_prodinger(2, 1)


def test_prodinger_all_small():
    for n in range(1, 7):
        for j in range(1, n + 1):
            assert verify_prodinger(n, j), (n, j)
    with pytest.raises(ValueError):
        prodinger_eigvec(2, 3)


def test_prodinger_check_rejects_mutants(monkeypatch):
    real = prodinger_eigvec
    # every vector is an eigenvector of hoggatt(1) = [[1]]: start at n = 2
    pairs = [(n, j) for n in range(2, 7) for j in range(1, n + 1)]
    for n, j in pairs:  # one component perturbed
        i = (n + j) % n
        monkeypatch.setattr(
            hoggatt_checks, "prodinger_eigvec",
            lambda n, j: [e + ONE if r == i else e for r, e in enumerate(real(n, j))],
        )
        assert not verify_prodinger(n, j), (n, j)
    # u(n, n + 1 - j) belongs to alpha^(n-j) beta^(j-1): checking it against
    # alpha^(j-1) beta^(n-j) is the eigenvalue with its exponents swapped
    monkeypatch.setattr(hoggatt_checks, "prodinger_eigvec", lambda n, j: real(n, n + 1 - j))
    for n, j in pairs:
        if 2 * j != n + 1:
            assert not verify_prodinger(n, j), (n, j)


def test_root_product_residual():
    for k in range(0, 7):
        assert root_product_residual(k).is_zero(), k
    with pytest.raises(ValueError):
        root_product_residual(-1)


def test_root_product_with_a_swapped_root_fails():
    # alpha^j beta^(k-j) in place of alpha^(k-j) beta^j repeats one root and
    # drops another: the product is no longer symmetric in alpha and beta,
    # the alpha component the comparison in the image must catch
    for k in range(1, 7):
        for swapped in range(k + 1):
            if 2 * swapped == k:
                continue
            prod = ONE
            for j in range(k + 1):
                a, b = (j, k - j) if j == swapped else (k - j, j)
                prod = prod * (Z - monomial(1, ex=a, eq=b))
            assert prod != _alpha_beta(hoggatt_closed_form(k + 1)), (k, swapped)
