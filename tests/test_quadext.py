"""Extension ring: defining relation, conjugation, powers, traces."""

import random

from qfib.poly import ONE, Poly, S, X, ZERO, monomial
from qfib.quadext import ALPHA, QuadElem, alpha_pow
from qfib.sequences import fib, lucas


def rand_elem(rng):
    def rp():
        d = {}
        for _ in range(rng.randint(0, 4)):
            d[(rng.randint(0, 3), rng.randint(-2, 3), rng.randint(-2, 2), 0)] = (
                rng.randint(-5, 5)
            )
        return Poly(d)

    return QuadElem(rp(), rp())


def test_defining_relation():
    assert ALPHA * ALPHA == QuadElem(S, X)


def test_alpha_times_beta_is_minus_s():
    beta = ALPHA.conj()
    assert ALPHA * beta == QuadElem(-S, ZERO)


def test_alpha_plus_beta_is_x():
    assert ALPHA + ALPHA.conj() == QuadElem(X, ZERO)


def test_conj_examples():
    assert ALPHA.conj() == QuadElem(X, -ONE)
    base = QuadElem(-S, ZERO)
    assert base.conj() == base
    assert rand_elem(random.Random(3)).conj().conj() == rand_elem(random.Random(3))


def test_conj_is_ring_homomorphism():
    rng = random.Random(7)
    for _ in range(100):
        a, b = rand_elem(rng), rand_elem(rng)
        assert (a * b).conj() == a.conj() * b.conj()
        assert (a + b).conj() == a.conj() + b.conj()


def test_alpha_pow_small():
    assert alpha_pow(0) == QuadElem(ONE, ZERO)
    assert alpha_pow(2) == QuadElem(S, X)
    assert alpha_pow(3) == QuadElem(S * X, X**2 + S)
    assert alpha_pow(-1) == QuadElem(monomial(-1, ex=1, es=-1), monomial(1, es=-1))


def test_alpha_pow_binet_components():
    for n in range(-6, 13):
        ap = alpha_pow(n)
        assert ap.u == S * fib(n - 1), n
        assert ap.v == fib(n), n


def test_alpha_pow_group_law():
    for m in range(-4, 5):
        for n in range(-4, 5):
            assert alpha_pow(m) * alpha_pow(n) == alpha_pow(m + n)


def test_trace_is_lucas():
    assert alpha_pow(0).trace() == Poly(2)
    assert alpha_pow(1).trace() == X
    assert alpha_pow(2).trace() == X**2 + 2 * S
    for n in range(2, 13):
        assert alpha_pow(n).trace() == X * lucas(n - 1) + S * lucas(n - 2)


def test_z_minus_alpha_times_z_minus_beta():
    from qfib.poly import Z

    beta = ALPHA.conj()
    prod = QuadElem(Z, ZERO) - ALPHA
    prod = prod * (QuadElem(Z, ZERO) - beta)
    assert prod.v.is_zero()
    assert prod.u == Z**2 - X * Z - S
