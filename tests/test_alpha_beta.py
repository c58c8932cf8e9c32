"""The quadratic extension Z[x, s^±, z^±][alpha]/(alpha^2 - x alpha - s),
checked through its image under hoggatt_checks._alpha_beta: x -> alpha + beta,
s -> -alpha beta, with alpha in the x slot and beta in the q slot.  The
element u + v alpha maps to image(u) + image(v) * X."""

import random

import pytest

from hoggatt_checks import _alpha_beta as image
from qfib.poly import ONE, Poly, Q, S, X, Z, ZERO, monomial
from qfib.sequences import fib, lucas


def elem(u, v=ZERO):
    """The image of u + v alpha."""
    return image(u) + image(v) * X


def swap(p):
    """alpha <-> beta: the x and q slots exchanged."""
    return Poly({(eq, es, ex, ez): c for (ex, es, eq, ez), c in p.terms()})


def rand_base(rng):
    """A q-free Poly with no negative power of x: the map's domain."""
    d = {}
    for _ in range(rng.randint(0, 4)):
        d[(rng.randint(0, 3), rng.randint(-2, 3), 0, rng.randint(-1, 1))] = rng.randint(-5, 5)
    return Poly(d)


def test_defining_relation():
    assert X * X == elem(S, X)


def test_alpha_times_beta_is_minus_s():
    assert X * Q == image(-S)


def test_alpha_plus_beta_is_x():
    assert X + Q == image(X)


def test_conj_examples():
    # conjugation swaps alpha and beta; the base ring is what it fixes
    assert swap(X) == Q
    assert swap(image(-S)) == image(-S)
    rng = random.Random(3)
    for _ in range(50):
        u = rand_base(rng)
        assert swap(image(u)) == image(u)


def test_conj_is_ring_homomorphism():
    # conj(u + v alpha) = (u + v x) - v alpha is the slot swap, and the map
    # respects + and *
    rng = random.Random(7)
    for _ in range(100):
        a, b, u, v = (rand_base(rng) for _ in range(4))
        assert image(a * b) == image(a) * image(b)
        assert image(a + b) == image(a) + image(b)
        assert swap(elem(u, v)) == elem(u + v * X, -v)


def test_alpha_pow_small():
    assert monomial(1, ex=0) == elem(ONE)
    assert monomial(1, ex=2) == elem(S, X)
    assert monomial(1, ex=3) == elem(S * X, X**2 + S)
    assert monomial(1, ex=-1) == elem(monomial(-1, ex=1, es=-1), monomial(1, es=-1))


def test_alpha_pow_binet_components():
    for n in range(-6, 13):  # alpha^n = F(n) alpha + s F(n-1)
        assert monomial(1, ex=n) == elem(S * fib(n - 1), fib(n)), n


def test_alpha_pow_group_law():
    # the Binet components multiply as alpha^m alpha^n = alpha^(m+n)
    for m in range(-4, 5):
        for n in range(-4, 5):
            lhs = elem(S * fib(m - 1), fib(m)) * elem(S * fib(n - 1), fib(n))
            assert lhs == elem(S * fib(m + n - 1), fib(m + n)), (m, n)


def test_trace_is_lucas():
    def power_sum(n):
        return monomial(1, ex=n) + monomial(1, eq=n)

    assert power_sum(0) == image(Poly(2))
    assert power_sum(1) == image(X)
    for n in range(2, 13):  # alpha^n + beta^n = x L(n-1) + s L(n-2)
        assert power_sum(n) == image(X * lucas(n - 1) + S * lucas(n - 2)), n


def test_z_minus_alpha_times_z_minus_beta():
    assert (Z - X) * (Z - Q) == image(Z**2 - X * Z - S)


def test_map_domain():
    with pytest.raises(ValueError):
        image(X + Q)
    with pytest.raises(ValueError):
        image(monomial(1, ex=-1, es=2))
    assert image(ZERO) == ZERO
