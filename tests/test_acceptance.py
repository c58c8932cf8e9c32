"""Acceptance criteria.

Every check is exact (symbolic zero, exact string, or exact integer); the
only tolerances are the per-criterion runtime budgets, asserted after each
block.  Run with `pytest -s tests/test_acceptance.py` to see one line per
criterion.
"""

import math
import random
import time

from hoggatt_checks import _alpha_beta, verify_prodinger
from oracles import det_cofactor
from qfib.harness import det_table, residual, sweep
from qfib.matrices import PolyMatrix, hoggatt
from qfib.poly import ONE, Poly, S, X, Z, ZERO, monomial, parse
from qfib.qcomb import binom_product, fibonomial
from qfib.sequences import (
    fib,
    gf_truncated,
    qfib,
    transform_T,
    truncate,
)


def _report(n, label, t0, budget):
    elapsed = time.perf_counter() - t0
    print(f"[PASS] criterion {n}: {label} ({elapsed:.2f}s, budget {budget}s)")
    assert elapsed < budget, f"criterion {n} exceeded its {budget}s budget"


# reference integer triangle, rows 0..5
TRIANGLE = [
    [1],
    [1, 1],
    [1, 1, 1],
    [1, 2, 2, 1],
    [1, 3, 6, 3, 1],
    [1, 5, 15, 15, 5, 1],
]

# reference polynomial coefficient matrix, rows 0..5, each entry a factor list
POLY_ROWS = [
    [["1"]],
    [["1"], ["1"]],
    [["1"], ["x"], ["1"]],
    [["1"], ["s+x^2"], ["s+x^2"], ["1"]],
    [
        ["1"],
        ["x", "2*s+x^2"],
        ["s+x^2", "2*s+x^2"],
        ["x", "2*s+x^2"],
        ["1"],
    ],
    [
        ["1"],
        ["s^2+3*s*x^2+x^4"],
        ["2*s+x^2", "s^2+3*s*x^2+x^4"],
        ["2*s+x^2", "s^2+3*s*x^2+x^4"],
        ["s^2+3*s*x^2+x^4"],
        ["1"],
    ],
]


def _expand(factors) -> Poly:
    total = ONE
    for factor in factors:
        total = total * parse(factor)
    return total


def test_criterion_01_fibonomial_triangle():
    t0 = time.perf_counter()
    for n in range(6):
        for k in range(n + 1):
            entry = fibonomial(n, k)
            assert int(entry.evaluate(x=1, s=1)) == TRIANGLE[n][k], (n, k)
            assert entry == _expand(POLY_ROWS[n][k]), (n, k)
    _report(1, "fibonomial triangle rows 0..5, numeric and symbolic", t0, 1)


def test_criterion_02_classical_power_recurrences():
    t0 = time.perf_counter()
    for n in range(3, 31):
        assert residual("squares_classical", n=n).is_zero(), n
    for k in range(1, 5):
        for n in range(k + 2, 13):
            assert residual("power_rec_classical", n=n, k=k).is_zero(), (n, k)
    _report(2, "squares n<=30 and power recurrence k<=4, n<=12", t0, 5)


def test_criterion_03_euler_cassini_and_basis():
    t0 = time.perf_counter()
    for k in range(1, 7):
        for n in range(-4, 9):
            assert residual("euler_cassini", n=n, k=k).is_zero(), (n, k)
            assert residual("basis_decomp", n=n, k=k).is_zero(), (n, k)
    _report(3, "euler_cassini and basis_decomp, k<=6, n=-4..8", t0, 10)


def test_criterion_04_conjecture1_both_forms():
    t0 = time.perf_counter()
    for k in (2, 3):
        for n in range(-3, 9):
            r = residual("conj1_f", n=n, k=k)
            assert r.is_zero(), (n, k)
            rf = residual("conj1_fibo", n=n, k=k)
            assert rf.is_zero(), (n, k)
            assert rf == transform_T(r, n), (n, k)
    _report(4, "conjecture 1 over Z (k=2,3; n=-3..8) plus transform identity", t0, 60)


def test_criterion_05_subsequence_recurrences():
    t0 = time.perf_counter()
    for ell in range(1, 5):
        for n in range(3, 9):
            assert residual("threeterm_ell", n=n, ell=ell).is_zero(), (n, ell)
    for ell in range(1, 4):
        for m in range(0, 4):
            for N in range(-3, 7):
                assert residual("gen_cassini", N=N, m=m, ell=ell).is_zero(), (N, m, ell)
    for k in (1, 2):
        for ell in range(1, 4):
            for n in range(3, 8):
                assert residual("conj2", n=n, k=k, ell=ell).is_zero(), (n, k, ell)
    for ell in range(1, 4):
        for n in range(4, 8):
            assert residual("conj2_k2", n=n, ell=ell).is_zero(), (n, ell)
    _report(5, "threeterm_ell, gen_cassini, conjecture 2 (and its k=2 form)", t0, 120)


def test_criterion_06_cassini_family():
    t0 = time.perf_counter()
    for n in range(1, 13):
        assert residual("q_cassini", n=n).is_zero(), n
    for n in range(2, 9):
        assert residual("det_sq_q", n=n).is_zero(), n
    for n in range(1, 11):
        assert residual("cassini_classical", n=n).is_zero(), n
        f = [int(fib(n + d).evaluate(x=1, s=1)) for d in (-2, -1, 0, 1, 2)]
        det3 = PolyMatrix(
            [
                [Poly(f[2] ** 2), Poly(f[1] ** 2), Poly(f[0] ** 2)],
                [Poly(f[3] ** 2), Poly(f[2] ** 2), Poly(f[1] ** 2)],
                [Poly(f[4] ** 2), Poly(f[3] ** 2), Poly(f[2] ** 2)],
            ]
        ).det()
        assert det3 == Poly(2 * (-1) ** n), n
    _report(6, "q-Cassini, squared determinant, classical 2(-1)^n", t0, 10)


def test_criterion_07_det_table():
    t0 = time.perf_counter()
    table = det_table(4)
    assert table[1] == ONE
    assert table[2] == parse("2*q^3*s^2*x^2")
    k3 = parse("9*q^20*s^8*x^4") * parse("q*s + x^2") * parse("q^4*s + x^2")
    assert table[3] == k3
    k4 = parse("96*q^70*s^20*x^8")
    for f in (
        "q*s + x^2",
        "q^2*s + x^2",
        "q*s + q^2*s + x^2",
        "q^5*s + x^2",
        "q^6*s + x^2",
        "q^5*s + q^6*s + x^2",
    ):
        k4 = k4 * parse(f)
    assert table[4] == k4
    # the A001142 constants are the integer content of each determinant
    # (the numeric factor in front of each factored closed form)
    for k, p in table.items():
        g = 0
        for _, c in p.terms():
            g = math.gcd(g, abs(c))
        assert g == binom_product(k), k
    _report(7, "det table matches known factorizations; contents are A001142", t0, 300)


def test_criterion_07b_det_table_k5_optional():
    t0 = time.perf_counter()
    d5 = det_table(5)[5]
    g = 0
    for _, c in d5.terms():
        g = math.gcd(g, abs(c))
    assert g == 2500
    k5 = parse("2500*q^180*s^40*x^12")
    for f in (
        "q*s + x^2",
        "q^2*s + x^2",
        "q*s + q^2*s + x^2",
        "q^3*s + x^2",
        "q^2*s + q^3*s + x^2",
        "q^6*s + x^2",
        "q^7*s + x^2",
        "q^6*s + q^7*s + x^2",
        "q^8*s + x^2",
        "q^7*s + q^8*s + x^2",
        "q^4*s^2 + q*s*x^2 + q^2*s*x^2 + q^3*s*x^2 + x^4",
        "q^14*s^2 + q^6*s*x^2 + q^7*s*x^2 + q^8*s*x^2 + x^4",
    ):
        k5 = k5 * parse(f)
    assert d5 == k5
    _report(7, "optional k=5 determinant, constant 2500", t0, 600)


def test_criterion_08_shifted_power_determinants():
    t0 = time.perf_counter()
    rep = sweep(["conj3"], overrides={"k": (1, 2), "n": (1, 6)}, fit=True)
    assert rep.counts["fail"] == 0
    for cell in rep.cells:
        assert cell.status == "pass" or cell.correction == "+1"
    for ell in range(1, 4):
        for n in range(1, 7):
            assert residual("conj4_k1", n=n, ell=ell).is_zero(), (n, ell)
    for ell in range(1, 3):
        for n in range(2, 6):
            assert residual("conj4_k2", n=n, ell=ell).is_zero(), (n, ell)
    rep4 = sweep(
        ["conj4"], overrides={"k": (1, 2), "ell": (1, 2), "n": (1, 5)}, fit=True
    )
    assert rep4.counts["fail"] == 0
    for cell in rep4.cells:
        assert cell.status == "pass" or cell.correction == "+1"
    from qfib.harness import sides

    for k in (1, 2):
        for n in range(k, 7):
            qd, qc = sides("conj3", n=n, k=k)
            cd, cc = sides("det_power_classical", n=n, k=k)
            assert qd.subst_q_one() == cd and qc.subst_q_one() == cc
    for ell in (1, 2):
        for k in (1, 2):
            for n in range(k, 6):
                qd, qc = sides("conj4", n=n, k=k, ell=ell)
                cd, cc = sides("det_classical_ell", n=n, k=k, ell=ell)
                assert qd.subst_q_one() == cd and qc.subst_q_one() == cc
    _report(8, "conjectures 3/4 with fitter, special cases, q=1 specializations", t0, 600)


def test_criterion_09_hoggatt_and_prodinger():
    t0 = time.perf_counter()
    for n in range(1, 6):
        rhs = ZERO
        for j in range(n + 1):
            sign = -1 if (j * (j + 1) // 2) % 2 else 1
            rhs = rhs + monomial(sign, es=j * (j - 1) // 2) * fibonomial(n, j) * Z ** (
                n - j
            )
        assert hoggatt(n).charpoly() == rhs, n
    for n in range(1, 5):
        for j in range(1, n + 1):
            assert verify_prodinger(n, j), (n, j)
    _report(9, "Hoggatt charpoly n<=5, Prodinger eigenvectors n<=4", t0, 30)


def test_criterion_10_generating_function():
    t0 = time.perf_counter()
    for k in range(1, 5):
        assert residual("gf_limit", k=k).is_zero(), k
    g = gf_truncated(8, 12)
    for n in (16, 18, 20):
        assert truncate(qfib(n).subst_x_one(), 8, 12) == g, n
    _report(10, "gf limit identity mod (s^8, q^12) and series agreement", t0, 10)


def test_criterion_11_property_suites():
    t0 = time.perf_counter()
    rng = random.Random(20240810)

    def rand_poly(nterms, lo=-3, hi=4):
        d = {}
        for _ in range(nterms):
            d[(rng.randint(lo, hi), rng.randint(lo, hi), rng.randint(lo, hi), rng.randint(0, 1))] = rng.randint(-9, 9)
        return Poly(d)

    for _ in range(1000):
        a, b, c = rand_poly(4), rand_poly(4), rand_poly(3)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == ZERO
        assert parse(a.to_canonical_string()) == a
    for trial in range(200):
        n = rng.randint(2, 4)
        m = PolyMatrix(
            [[rand_poly(rng.randint(0, 3), -1, 3) for _ in range(n)] for _ in range(n)]
        )
        assert m.det() == det_cofactor(m), trial
    for n in range(-6, 13):  # alpha^n = F(n) alpha + s F(n-1), alpha in the x slot
        assert monomial(1, ex=n) == _alpha_beta(fib(n)) * X + _alpha_beta(S * fib(n - 1)), n
    _report(11, "ring/round-trip x1000, Bareiss=cofactor x200, Binet components", t0, 120)
