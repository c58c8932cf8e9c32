"""Determinants, characteristic polynomials, eigenvector checks."""

import random

import pytest

from qfib.matrices import (
    AlphaComponentNonzero,
    EntryUsesZ,
    PolyMatrix,
    hoggatt,
    matvec,
    prodinger_eigvec,
    root_product_residual,
    verify_prodinger,
)
from qfib.poly import ONE, NotDivisible, Poly, Q, S, X, Z, ZERO, monomial
from qfib.qcomb import fibonomial
from qfib.quadext import QuadElem, alpha_pow
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
        assert m.det() == m.det_cofactor(), trial


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
        assert m.det() == m.det_cofactor(), base


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
    assert needs_swap.det() == needs_swap.det_cofactor()


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
    assert hoggatt(1) == PolyMatrix([[ONE]])
    assert hoggatt(2) == PolyMatrix([[ZERO, ONE], [S, X]])
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
    for n in range(1, 6):
        assert hoggatt(n).charpoly() == fib_charpoly(n), n


def test_prodinger_eigvec_2_1_by_hand():
    u = prodinger_eigvec(2, 1)
    assert u[0] == QuadElem(ONE, ZERO)
    assert u[1] == QuadElem(X, -ONE)  # beta
    lam = alpha_pow(0) * alpha_pow(1).conj()  # beta
    assert matvec(hoggatt(2), u) == [lam * e for e in u]


def test_prodinger_all_small():
    for n in range(1, 5):
        for j in range(1, n + 1):
            assert verify_prodinger(n, j), (n, j)
    with pytest.raises(ValueError):
        prodinger_eigvec(2, 3)


def test_quadvector_basics():
    # a vector of extension-ring elements is a plain list
    v = [QuadElem(ONE, ZERO), QuadElem(ZERO, ONE)]
    assert len(v) == 2
    assert matvec(_identity(2), v) == v
    with pytest.raises(ValueError):
        matvec(PolyMatrix([[ONE]]), v)


def test_root_product_residual():
    for k in range(0, 6):
        assert root_product_residual(k).is_zero(), k
    with pytest.raises(ValueError):
        root_product_residual(-1)
