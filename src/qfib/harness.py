"""Identity catalog and verification harness.

Every identity or conjecture is registered as an IdentityEntry whose
parameters are the keys of its default grid and whose builder maps concrete
parameters to a single exact residual; a zero residual certifies that
instance.  Identities stated with polynomial-ratio coefficients are cleared
first: each summand is multiplied by the product of the *other*
denominators, and the common numerator is multiplied back in only when the
sum is nonzero (when the sum vanishes the product does too, so the
returned residual is the fully cleared form either way).

Every builder whose residual is a sum of products (the power
recurrences, Euler-Cassini's determinant side, basis_decomp, the
three-term recurrences, gf_limit and the 2 x 2 minors of _power_det)
forms it as one poly.dot, which sums the products without building each
as a Poly and picks its kernel by operand size; PolyMatrix.det does the
same for each Bareiss step.

The power recurrences (power_rec_classical, conj2 and its bindings,
conj2_k2) build their n-free parts once per parameter set: the common
numerator and each term's cleared weight (coefficient times the other
denominators) in the Memos _CONJ2_WEIGHTS[k, ell] and
_CONJ2_K2_WEIGHTS[ell], the weights of power_rec_classical in
qcomb._SIGNED_FIBONOMIALS[k + 1].  Their tails f(ell(n-j), q^(ell j) s)^k
are the sequences' memoized powers f(m)^k moved by s -> q^(ell j) s
(qfib_power, fib_power), and the power determinants read their 2 x 2
minors from _MINORS[N1, N2, classical].  Every memo lives for the life of
the process, so each forked child of a sweep fills its own copy; values
are only ever added, each equal to what a fresh build would give.

Two-sided identities (the determinant families and Euler-Cassini) are
registered by their sides alone, e.g. (determinant side, closed-form side),
with no builder; their residual is lhs - rhs, formed in _evaluate for
residual() and sweeps alike.  A sweep builds the two sides once per cell
and, when the residual is nonzero, hands the same pair to the monomial
fitter, which recovers a correction factor when a closed form's prefactor
is in doubt; entries flagged fit_default attempt the fit even when the
sweep does not ask for fitting.

All power determinants det(f(ell(n+i-j), q^(ell j) s)^k), q-analogue and
classical, share _power_det, which builds them from their factorization
through basis_decomp: a product of 2 x 2 minors of sequence values over a
monomial.  _power_det_bareiss, Bareiss (PolyMatrix.det) on the explicit
matrix, is the tests' oracle for it; gen_cassini's 2 x 2 determinant goes
to Bareiss directly.

Each family has one builder.  A classical or ell = 1 identity that the
paper states separately (conj1_f, conj3, det_power_classical) is a binding
of its stride-ell family at ell = 1; the hand-simplified special cases
(q_cassini, det_sq_q, conj4_k1, ...) keep their own closed forms, so each
is an independent check of its family's general closed form.

Every closed form's monomial prefactor is computed in plain ints.  Each q
exponent is an integer-valued polynomial in the parameters, written so that
its every division is exact at every integer argument, negative included
(C(m, 2) = m(m-1)/2 is).  The monomial v(m) = (-1)^m q^C(m,2) s^(m-1) of
basis_decomp is _v, and conj4 and det_classical_ell share _power_det_prefactor.
"""

from __future__ import annotations

import marshal
import os
import time
from collections import namedtuple
from math import comb

from .matrices import PolyMatrix
from .poly import ONE, Poly, ZERO, dot, monomial
from .qcomb import (
    _SIGNED_FIBONOMIALS,
    Fac,
    _prod,
    _qfibonomial_den,
    binom_product,
    fac,
    qfibonomial_parts,
)
from .sequences import (
    Memo,
    fib,
    fib_power,
    gf_truncated,
    lucas,
    qfib,
    qfib_power,
    transform_T,
    truncate,
)

__all__ = [
    "IdentityEntry",
    "CellResult",
    "VerificationReport",
    "MonomialCorrection",
    "NotProportional",
    "BadParams",
    "CATALOG",
    "residual",
    "sides",
    "fit_monomial_correction",
    "sweep",
    "det_table",
    "REPORT_SCHEMA_VERSION",
]

REPORT_SCHEMA_VERSION = "1"


class NotProportional(ValueError):
    """The two polynomials do not differ by a signed monomial."""


class BadParams(ValueError):
    """Parameters outside an identity's signature."""


def _sign(e: int) -> int:
    return -1 if e % 2 else 1


def _c2(m: int) -> int:
    """C(m, 2) = m(m-1)/2, exact at every integer m."""
    return m * (m - 1) // 2


def _v(m: int, classical: bool = False) -> Poly:
    """v(m) = (-1)^m q^C(m,2) s^(m-1), at q = 1 when classical."""
    return monomial(_sign(m), es=m - 1, eq=0 if classical else _c2(m))


def _weighted_tails(weights, n: int, k: int, ell: int) -> Poly:
    """sum_j weights[j] * f(ell(n-j), q^(ell j) s)^k, one poly.dot: each
    tail is the memoized power f(ell(n-j))^k under s -> q^(ell j) s, the
    large weighted tails go into one accumulator of packed q-blocks, and
    the sum is unpacked once."""
    return dot(
        [(w, qfib_power(ell * (n - j), k, shift=ell * j)) for j, w in enumerate(weights)]
    )


# --------------------------------------------------------------------------
# residual builders


def power_rec_classical(n: int, k: int) -> Poly:
    """Recurrence for k-th powers of Fibonacci polynomials:
    sum_j (-1)^C(j+1,2) s^C(j,2) <k+1, j> F(n-j)^k."""
    if k < 1:
        raise BadParams("power_rec_classical needs k >= 1")
    return dot((w, fib_power(n - j, k)) for j, w in enumerate(_SIGNED_FIBONOMIALS[k + 1]))


def squares_classical(n: int) -> Poly:
    """F(n)^2 - 2F(n-1)^2 - 2F(n-2)^2 + F(n-3)^2 at x = s = 1."""
    vals = [int(fib(n - j).evaluate(x=1, s=1)) for j in range(4)]
    return Poly(vals[0] ** 2 - 2 * vals[1] ** 2 - 2 * vals[2] ** 2 + vals[3] ** 2)


def conj1_f(n: int, k: int) -> Poly:
    """Power recurrence for q-Fibonacci polynomials with shifted arguments
    f(n-j, x, q^j s)^k and q-fibonomial coefficients, denominators cleared:
    the ell = 1 case of conj2."""
    if k < 1:
        raise BadParams("conj1_f needs k >= 1")
    return conj2(n, k, 1)


def conj1_fibo(n: int, k: int) -> Poly:
    """The equivalent plain-argument form, obtained by transporting the
    shifted-argument residual through q -> 1/q, s -> q^(n-1) s."""
    return transform_T(conj1_f(n, k), n)


def _euler_cassini_sides(n: int, k: int) -> tuple[Poly, Poly]:
    """q-Euler-Cassini: f(k-1,qs) f(n+k,s) - f(k,s) f(n+k-1,qs)
    = (-1)^k q^C(k,2) s^(k-1) f(n, q^k s)."""
    if k < 1:
        raise BadParams("euler_cassini needs k >= 1")
    lhs = dot([(qfib(k - 1, shift=1), qfib(n + k)), (-qfib(k), qfib(n + k - 1, shift=1))])
    return lhs, _v(k) * qfib(n, shift=k)


def basis_decomp(n: int, k: int) -> Poly:
    """v(k) f(n-k, q^k s) - f(k-1,qs) f(n,s) + f(k,s) f(n-1,qs), with
    v(k) = (-1)^k q^C(k,2) s^(k-1)."""
    if k < 1:
        raise BadParams("basis_decomp needs k >= 1")
    return dot(
        [
            (_v(k), qfib(n - k, shift=k)),
            (-qfib(k - 1, shift=1), qfib(n)),
            (qfib(k), qfib(n - 1, shift=1)),
        ]
    )


def conj2(n: int, k: int, ell: int) -> Poly:
    """Stride-ell power recurrence on the subsequence f(ell*n), with
    stride-ell q-fibonomial coefficients; denominators cleared."""
    if k < 1 or ell < 1:
        raise BadParams("conj2 needs k >= 1 and ell >= 1")
    num, weights = _CONJ2_WEIGHTS[k, ell]
    total = _weighted_tails(weights, n, k, ell)
    if total.is_zero():
        return ZERO
    return num * total


def _conj2_weights(k: int, ell: int) -> tuple[Poly, tuple[Poly, ...]]:
    """(num, w): num is the q-fibonomial numerator common to the k + 2
    terms of conj2, and w[j] = coeff_j * prod_{i != j} den_i clears term j,
    from prefix and suffix products of the denominators."""
    kk = k + 1
    num, den0 = qfibonomial_parts(kk, 0, ell)
    dens = [den0, *(_qfibonomial_den(kk, j, ell) for j in range(1, kk + 1))]
    m = len(dens)
    pre = [ONE] * (m + 1)
    for i in range(m):
        pre[i + 1] = pre[i] * dens[i]
    suf = [ONE] * (m + 1)
    for i in range(m - 1, -1, -1):
        suf[i] = suf[i + 1] * dens[i]
    weights = []
    for j in range(m):
        cj2, cj3 = _c2(j), comb(j, 3)
        # ell C(j,2) ((4j+1) ell - 3) / 6, with ell^2 = 2 C(ell,2) + ell
        qexp = (4 * cj3 + 3 * cj2) * _c2(ell) + (2 * cj3 + cj2) * ell
        coeff = monomial(_sign(j + ell * cj2), es=ell * cj2, eq=qexp)
        weights.append(coeff * (pre[j] * suf[j + 1]))
    return num, tuple(weights)


_CONJ2_WEIGHTS = Memo(_conj2_weights)


def _threeterm_ell_pairs(n: int, ell: int) -> list[tuple[Poly, Poly]]:
    if ell < 1:
        raise BadParams("threeterm_ell needs ell >= 1")
    qexp = _c2(2 * ell) - _c2(ell)  # ell (3 ell - 1) / 2
    return [
        (qfib(ell, shift=ell), qfib(ell * n)),
        (-qfib(2 * ell), qfib(ell * (n - 1), shift=ell)),
        (monomial(_sign(ell), es=ell, eq=qexp) * qfib(ell), qfib(ell * (n - 2), shift=2 * ell)),
    ]


def threeterm_ell(n: int, ell: int) -> Poly:
    """Three-term recurrence for f(ell*n), cleared by f(ell, q^ell s)."""
    return dot(_threeterm_ell_pairs(n, ell))


def _threeterm_classical_pairs(n: int, ell: int) -> list[tuple[Poly, Poly]]:
    if ell < 1:
        raise BadParams("threeterm_classical needs ell >= 1")
    return [
        (ONE, fib(ell * n)),
        (-lucas(ell), fib(ell * (n - 1))),
        (monomial(_sign(ell), es=ell), fib(ell * (n - 2))),
    ]


def threeterm_classical(n: int, ell: int) -> Poly:
    """F(ell n) - L(ell) F(ell(n-1)) + (-s)^ell F(ell(n-2))."""
    return dot(_threeterm_classical_pairs(n, ell))


def _gen_cassini_sides(N: int, m: int, ell: int) -> tuple[Poly, Poly]:
    """Generalized two-row Cassini determinant for strided, shifted
    q-Fibonacci values and its closed form."""
    if ell < 1 or m < 0:
        raise BadParams("gen_cassini needs ell >= 1 and m >= 0")
    det = PolyMatrix(
        [
            [qfib(N + (m + 1) * ell), qfib((m + 1) * ell)],
            [qfib(N + m * ell, shift=ell), qfib(m * ell, shift=ell)],
        ]
    ).det()
    qexp = _c2(m * ell) + m * ell * ell  # m ell ((m + 2) ell - 1) / 2
    closed = monomial(_sign(m * ell - 1), es=m * ell, eq=qexp) * qfib(ell) * qfib(
        N, shift=(m + 1) * ell
    )
    return det, closed


_GF_BOX = (8, 12)  # gf_limit's (s, q) truncation orders


def gf_limit(k: int) -> Poly:
    """Limit form of the q-Euler-Cassini identity for the x = 1 generating
    function F(s), checked modulo (s^8, q^12).

    One truncation at the end is exact: for k >= 1 every factor has
    nonnegative s and q exponents, so a term of a product inside the box
    only comes from terms of the factors inside it, and s -> q^j s with
    j >= 0 only raises q exponents, so it moves no term into the box."""
    if k < 1:
        raise BadParams("gf_limit needs k >= 1")
    F = gf_truncated(*_GF_BOX)
    return truncate(
        dot(
            [
                (F, qfib(k - 1, shift=1).subst_x_one()),
                (F.subst_s_scale(1), -qfib(k).subst_x_one()),
                (F.subst_s_scale(k), -_v(k)),
            ]
        ),
        *_GF_BOX,
    )


def conj2_k2(n: int, ell: int) -> Poly:
    """The k = 2 case of the stride-ell power recurrence, cleared by the
    product of its three distinct denominators."""
    if ell < 1:
        raise BadParams("conj2_k2 needs ell >= 1")
    return _weighted_tails(_CONJ2_K2_WEIGHTS[ell], n, 2, ell)


def _conj2_k2_weights(ell: int) -> tuple[Poly, ...]:
    """The four n-free weights of conj2_k2."""
    d1 = qfib(ell, shift=ell)
    d2 = qfib(2 * ell, shift=ell)
    d3 = qfib(ell, shift=2 * ell)
    q2 = _c2(2 * ell) - _c2(ell)  # ell (3 ell - 1) / 2
    q3 = 5 * ell * ell + 3 * _c2(ell)  # ell (13 ell - 3) / 2
    return (
        d1 * d2 * d3,
        -(qfib(3 * ell) * qfib(2 * ell) * d3),
        monomial(_sign(ell), es=ell, eq=q2) * qfib(3 * ell) * qfib(ell) * d2,
        monomial(_sign(ell - 1), es=3 * ell, eq=q3) * qfib(ell) * qfib(2 * ell) * d1,
    )


_CONJ2_K2_WEIGHTS = Memo(_conj2_k2_weights)


def _minor(N1: int, N2: int, classical: bool) -> Poly:
    """g(N1) g(N2-1, qs) - g(N2) g(N1-1, qs), g = qfib, or fib when classical
    (qs is s at q = 1): by basis_decomp -_v(N1) f(N2-N1, q^N1 s), but
    computed from the sequence values, never from that form."""
    if classical:
        return dot(((fib(N1), fib(N2 - 1)), (fib(N2), -fib(N1 - 1))))
    return dot(((qfib(N1), qfib(N2 - 1, shift=1)), (qfib(N2), -qfib(N1 - 1, shift=1))))


_MINORS = Memo(_minor)


def _power_det(n: int, k: int, ell: int = 1, classical: bool = False) -> Poly:
    """det(f(ell(n+i-j), q^(ell j) s)^k) over 0 <= i, j <= k, or
    det(F(ell(n+i-j))^k) when classical, from its factorization.

    With A_i = g(ell(n+i)), B_i = g(ell(n+i)-1, qs), alpha_j = g(ell j-1, qs)
    and beta_j = -g(ell j), basis_decomp at N = ell(n+i), K = ell j reads
    v(ell j) M_ij^(1/k) = alpha_j A_i + beta_j B_i, where v = _v(., classical)
    and g is qfib, or fib when classical.  Expanding the k-th power gives
    M diag(v(ell j)^k) = P diag(C(k, t)) Q with P_it = A_i^(k-t) B_i^t and
    Q_tj = alpha_j^(k-t) beta_j^t, two homogeneous Vandermonde matrices, so
        det M = prod_t C(k, t) prod_{i<i'} (A_i B_i' - A_i' B_i)
                prod_{j<j'} (alpha_j beta_j' - alpha_j' beta_j)
                / prod_j v(ell j)^k
    at every integer n, Laurent n included.  Both kinds of 2 x 2 minor are
    _minor(N1, N2) = g(N1) g(N2-1, qs) - g(N2) g(N1-1, qs): a row minor at
    (ell(n+i), ell(n+i')), a column minor at (ell j, ell j').  They are
    computed from the sequence values and memoized, never taken from a
    closed form, so the result rests only on basis_decomp and
    det(PQ) = det P det Q; cells and rows that share a minor read one
    value.  The minors are multiplied pairwise, so that both operands of
    each product grow together.  _power_det_bareiss computes the same
    determinant from the explicit matrix; the tests keep it as the oracle.
    """
    cols = [ell * j for j in range(k + 1)]
    factors = [Poly(binom_product(k))]
    for marks in ([ell * (n + i) for i in range(k + 1)], cols):
        for i, a in enumerate(marks):
            factors.extend(_MINORS[a, b, classical] for b in marks[i + 1 :])
    while len(factors) > 1:
        odd = factors[-1:] if len(factors) % 2 else []
        factors = [a * b for a, b in zip(factors[::2], factors[1::2])] + odd
    return factors[0].exact_div(_prod(_v(m, classical) for m in cols) ** k)


def _power_det_bareiss(n: int, k: int, ell: int, classical: bool) -> Poly:
    """The power determinant of _power_det by Bareiss on the explicit matrix,
    whose every division is exact (Sylvester's identity), a zero pivot
    swapped for a nonzero one below it: the tests' oracle of _power_det."""

    def entry(i, j):
        m = ell * (n + i - j)
        return (fib(m) if classical else qfib(m, shift=ell * j)) ** k

    return PolyMatrix([[entry(i, j) for j in range(k + 1)] for i in range(k + 1)]).det()


def _cassini_classical_sides(n: int) -> tuple[Poly, Poly]:
    """Cassini with the s generalization: det = (-1)^(n-1) s^(n-1)."""
    return _power_det(n, 1, classical=True), -_v(n, classical=True)


def _det_power_classical_sides(n: int, k: int) -> tuple[Poly, Poly]:
    """det(F(n+i-j)^k) and its product closed form: det_classical_ell at
    ell = 1."""
    if k < 1:
        raise BadParams("det_power_classical needs k >= 1")
    return _det_classical_ell_sides(n, k, 1)


def _q_cassini_sides(n: int) -> tuple[Poly, Poly]:
    """q-Cassini: d(n, s) = (-1)^(n-1) q^C(n,2) s^(n-1)."""
    return _power_det(n, 1), -_v(n)


def _det_sq_q_sides(n: int) -> tuple[Poly, Poly]:
    """3x3 determinant of squared shifted q-Fibonacci values and
    2 (-1)^n x^2 s^(3n-4) q^((n+1)(3n-4)/2)."""
    det = _power_det(n, 2)
    qexp = n * n + _c2(n) - 2  # (n + 1)(3n - 4) / 2
    return det, monomial(2 * _sign(n), ex=2, es=3 * n - 4, eq=qexp)


def _power_det_prefactor(n: int, k: int, ell: int, classical: bool = False) -> Poly:
    """(-1)^(ell C(k+1,2)(n-k)) prod_j C(k, j) s^(ell e) q^((ell(n+k)-1) ell e / 2)
    with e = C(k+1,2)(n-k) + 2 C(k+1,3): the monomial of conj4's closed form,
    or at q = 1 when classical, that of det_classical_ell."""
    ck2 = _c2(k + 1)
    e = ck2 * (n - k) + 2 * comb(k + 1, 3)
    # exact: for odd ell, ell (n + k) - 1 is even, or n - k is and so is e
    eq = 0 if classical else (ell * (n + k) - 1) * ell * e // 2
    return monomial(_sign(ell * ck2 * (n - k)) * binom_product(k), es=ell * e, eq=eq)


def _conj3_sides(n: int, k: int) -> tuple[Poly, Poly]:
    """det(f(n+i-j, q^j s)^k) and the conjectured product closed form:
    conj4 at ell = 1."""
    if k < 1:
        raise BadParams("conj3 needs k >= 1")
    return _conj4_sides(n, k, 1)


def _conj4_sides(n: int, k: int, ell: int) -> tuple[Poly, Poly]:
    """Stride-ell version of the shifted power determinant identity."""
    if k < 1 or ell < 1:
        raise BadParams("conj4 needs k >= 1 and ell >= 1")
    det = _power_det(n, k, ell)
    closed = (
        _power_det_prefactor(n, k, ell)
        * _prod(fac(k - j, shift=ell * j, ell=ell) for j in range(k))
        * _prod(fac(k - j, shift=ell * (n + j), ell=ell) for j in range(k))
    )
    return det, closed


def _conj4_k1_sides(n: int, ell: int) -> tuple[Poly, Poly]:
    """Simplest stride-ell determinant case (k = 1)."""
    if ell < 1:
        raise BadParams("conj4_k1 needs ell >= 1")
    det = _power_det(n, 1, ell)
    e = (n - 1) * ell
    qexp = _c2(e) + ell * e  # (ell (n + 1) - 1) e / 2
    closed = monomial(_sign(e), es=e, eq=qexp) * qfib(ell) * qfib(ell, shift=n * ell)
    return det, closed


def _conj4_k2_sides(n: int, ell: int) -> tuple[Poly, Poly]:
    """The 3x3 stride-ell squared determinant case (k = 2)."""
    if ell < 1:
        raise BadParams("conj4_k2 needs ell >= 1")
    det = _power_det(n, 2, ell)
    e = ell * (3 * n - 4)
    qexp = _c2(e) + ell * (3 - n) * e  # (ell (n + 2) - 1) e / 2
    closed = (
        monomial(2 * _sign(n * ell), es=e, eq=qexp)
        * qfib(2 * ell)
        * qfib(2 * ell, shift=n * ell)
        * qfib(ell)
        * qfib(ell, shift=ell)
        * qfib(ell, shift=n * ell)
        * qfib(ell, shift=(n + 1) * ell)
    )
    return det, closed


def _det_classical_ell_sides(n: int, k: int, ell: int) -> tuple[Poly, Poly]:
    """q = 1 stride-ell power determinant and its closed form."""
    if k < 1 or ell < 1:
        raise BadParams("det_classical_ell needs k >= 1 and ell >= 1")
    det = _power_det(n, k, ell, classical=True)
    closed = _power_det_prefactor(n, k, ell, classical=True) * _prod(
        Fac(k - j, ell) ** 2 for j in range(k)
    )
    return det, closed


def det_table(max_k: int) -> dict[int, Poly]:
    """The shifted power determinants det(f(k+i-j, q^j s)^k) at n = k,
    keyed by k = 1..max_k."""
    if max_k < 1:
        raise BadParams("det_table needs max_k >= 1")
    return {k: _power_det(k, k) for k in range(1, max_k + 1)}


# --------------------------------------------------------------------------
# fitter


class MonomialCorrection(namedtuple("MonomialCorrection", "sign ex es eq ez", defaults=(0,) * 4)):
    """A signed monomial c * x^ex s^es q^eq z^ez with c in {+1, -1}."""

    __slots__ = ()

    def as_poly(self) -> Poly:
        return monomial(self.sign, self.ex, self.es, self.eq, self.ez)

    def __str__(self) -> str:
        mono = monomial(1, self.ex, self.es, self.eq, self.ez)
        return ("+" if self.sign > 0 else "-") + mono.to_canonical_string()


def fit_monomial_correction(lhs: Poly, rhs: Poly) -> MonomialCorrection:
    """Find the unique signed monomial with lhs = sign * monomial * rhs, or
    raise NotProportional."""
    if lhs.is_zero() or rhs.is_zero():
        raise ValueError("fit_monomial_correction needs nonzero inputs")
    if len(lhs) != len(rhs):
        raise NotProportional("term counts differ")
    lt_l = max(lhs._t)
    lt_r = max(rhs._t)
    cl, cr = lhs._t[lt_l], rhs._t[lt_r]
    if abs(cl) != abs(cr):
        raise NotProportional("leading coefficients differ by more than a sign")
    sign = 1 if (cl > 0) == (cr > 0) else -1
    delta = lt_l - lt_r
    for k, c in rhs._t.items():
        if lhs._t.get(k + delta) != sign * c:
            raise NotProportional("terms do not map onto each other")
    from .poly import _unpack, _ZKEY  # packed-key helpers

    ex, es, eq, ez = _unpack(delta + _ZKEY)
    return MonomialCorrection(sign, ex, es, eq, ez)


# --------------------------------------------------------------------------
# catalog


class _DataclassFields:
    """A namedtuple record's __dataclass_fields__, made on first read, so
    that dataclasses.replace works on it (perfbench's span tracer swaps
    CATALOG builders that way) and only a caller that reads it imports
    dataclasses."""

    def __get__(self, obj, cls):
        from dataclasses import make_dataclass

        return make_dataclass(cls.__name__, cls._fields).__dataclass_fields__


class IdentityEntry(
    namedtuple(
        "IdentityEntry",
        "id grid_spec builder sides valid fit_default summary",
        defaults=(None, None, None, False, ""),
    )
):
    """One identity: its parameters are the keys of grid_spec, in order,
    each mapped to its default inclusive (lo, hi) range.  A one-sided
    identity registers builder, its residual; a two-sided one registers
    sides alone, (lhs, rhs), and its residual is lhs - rhs."""

    __slots__ = ()
    __dataclass_fields__ = _DataclassFields()

    @property
    def params(self) -> tuple[str, ...]:
        return tuple(self.grid_spec)

    def cells(self, overrides: dict | None = None) -> list[dict]:
        """Parameter grid as a deterministic list of param dicts."""
        overrides = overrides or {}
        axes = []
        for p, spec in self.grid_spec.items():
            lo, hi = overrides.get(p, spec)
            axes.append([(p, v) for v in range(lo, hi + 1)])
        cells = [{}]
        for axis in axes:
            cells = [dict(c, **{p: v}) for c in cells for (p, v) in axis]
        if self.valid is not None:
            cells = [c for c in cells if self.valid(**c)]
        return cells


CATALOG: dict[str, IdentityEntry] = {
    e.id: e
    for e in [
        IdentityEntry(
            "power_rec_classical",
            {"k": (1, 4), "n": (3, 12)},
            builder=power_rec_classical,
            valid=lambda k, n: n >= k + 2,
            summary="power recurrence for F(n)^k",
        ),
        IdentityEntry(
            "squares_classical",
            {"n": (3, 30)},
            builder=squares_classical,
            summary="Fibonacci squares recurrence at x=s=1",
        ),
        IdentityEntry(
            "conj1_f",
            {"k": (2, 3), "n": (-3, 8)},
            builder=conj1_f,
            summary="q power recurrence, shifted arguments",
        ),
        IdentityEntry(
            "conj1_fibo",
            {"k": (2, 3), "n": (-3, 8)},
            builder=conj1_fibo,
            summary="q power recurrence, plain arguments (transform image)",
        ),
        IdentityEntry(
            "euler_cassini",
            {"k": (1, 6), "n": (-4, 8)},
            sides=_euler_cassini_sides,
            summary="q-Euler-Cassini two-product identity",
        ),
        IdentityEntry(
            "basis_decomp",
            {"k": (1, 6), "n": (-4, 8)},
            builder=basis_decomp,
            summary="f(n-k, q^k s) in the f(n), f(n-1, qs) basis",
        ),
        IdentityEntry(
            "conj2",
            {"k": (1, 2), "ell": (1, 3), "n": (3, 7)},
            builder=conj2,
            summary="stride-ell q power recurrence",
        ),
        IdentityEntry(
            "threeterm_ell",
            {"ell": (1, 4), "n": (3, 8)},
            builder=threeterm_ell,
            summary="three-term recurrence for f(ell n)",
        ),
        IdentityEntry(
            "threeterm_classical",
            {"ell": (1, 4), "n": (3, 8)},
            builder=threeterm_classical,
            summary="classical three-term recurrence for F(ell n)",
        ),
        IdentityEntry(
            "gen_cassini",
            {"N": (-3, 6), "ell": (1, 3), "m": (0, 3)},
            sides=_gen_cassini_sides,
            summary="generalized strided Cassini determinant",
        ),
        IdentityEntry(
            "gf_limit",
            {"k": (1, 4)},
            builder=gf_limit,
            summary="limit Euler-Cassini identity for F(s) mod (s^8, q^12)",
        ),
        IdentityEntry(
            "conj2_k2",
            {"ell": (1, 3), "n": (4, 7)},
            builder=conj2_k2,
            summary="k=2 case of the stride-ell power recurrence",
        ),
        IdentityEntry(
            "cassini_classical",
            {"n": (1, 10)},
            sides=_cassini_classical_sides,
            summary="Cassini determinant with s generalization",
        ),
        IdentityEntry(
            "det_power_classical",
            {"k": (1, 2), "n": (1, 6)},
            valid=lambda k, n: n >= k,
            sides=_det_power_classical_sides,
            summary="classical power determinant closed form",
        ),
        IdentityEntry(
            "q_cassini",
            {"n": (1, 12)},
            sides=_q_cassini_sides,
            summary="q-Cassini determinant",
        ),
        IdentityEntry(
            "det_sq_q",
            {"n": (2, 8)},
            sides=_det_sq_q_sides,
            summary="3x3 squared q determinant closed form",
        ),
        IdentityEntry(
            "conj3",
            {"k": (1, 2), "n": (1, 6)},
            valid=lambda k, n: n >= k,
            sides=_conj3_sides,
            fit_default=True,
            summary="shifted power determinant closed form",
        ),
        IdentityEntry(
            "conj4",
            {"ell": (1, 2), "k": (1, 2), "n": (1, 5)},
            valid=lambda ell, k, n: n >= k,
            sides=_conj4_sides,
            fit_default=True,
            summary="stride-ell shifted power determinant closed form",
        ),
        IdentityEntry(
            "conj4_k1",
            {"ell": (1, 3), "n": (1, 6)},
            sides=_conj4_k1_sides,
            summary="stride-ell determinant, k=1 case",
        ),
        IdentityEntry(
            "conj4_k2",
            {"ell": (1, 2), "n": (2, 5)},
            sides=_conj4_k2_sides,
            summary="stride-ell determinant, k=2 case",
        ),
        IdentityEntry(
            "det_classical_ell",
            {"ell": (1, 2), "k": (1, 2), "n": (1, 5)},
            valid=lambda ell, k, n: n >= k,
            sides=_det_classical_ell_sides,
            summary="q=1 stride-ell power determinant closed form",
        ),
    ]
}


def _check_params(entry: IdentityEntry, params: dict) -> None:
    missing = [p for p in entry.params if p not in params]
    extra = [p for p in params if p not in entry.params]
    if missing or extra:
        raise BadParams(
            f"{entry.id} takes parameters {entry.params}; missing {missing}, extra {extra}"
        )


def _evaluate(entry: IdentityEntry, params: dict) -> tuple[Poly, tuple | None]:
    """The residual of one cell, with the (lhs, rhs) pair it came from when
    the entry is two-sided."""
    if entry.sides is None:
        return entry.builder(**params), None
    pair = entry.sides(**params)
    return pair[0] - pair[1], pair


def residual(id: str, **params):
    entry = CATALOG.get(id)
    if entry is None:
        raise BadParams(f"unknown identity {id!r}")
    _check_params(entry, params)
    return _evaluate(entry, params)[0]


def sides(id: str, **params):
    entry = CATALOG.get(id)
    if entry is None or entry.sides is None:
        raise BadParams(f"identity {id!r} does not expose sides")
    _check_params(entry, params)
    return entry.sides(**params)


# --------------------------------------------------------------------------
# sweep runner and report


class CellResult:
    def __init__(self, id, params, status, residual=None, correction=None, ms=0.0):
        self.id, self.params, self.status = id, params, status  # pass | fail | fitted
        self.residual, self.correction, self.ms = residual, correction, ms

    def to_dict(self) -> dict:
        d = {"id": self.id, "params": dict(self.params), "status": self.status}
        if self.residual is not None:
            d["residual"] = self.residual
        if self.correction is not None:
            d["correction"] = self.correction
        d["ms"] = self.ms
        return d


class VerificationReport:
    def __init__(self, cells: list | None = None):
        self.cells = [] if cells is None else cells

    @property
    def counts(self) -> dict:
        c = {"pass": 0, "fail": 0, "fitted": 0}
        for cell in self.cells:
            c[cell.status] += 1
        return c

    def all_pass(self, fit_ok: bool = False) -> bool:
        counts = self.counts
        if counts["fail"]:
            return False
        return fit_ok or counts["fitted"] == 0

    def to_json_dict(self, command: str = "verify") -> dict:
        return {
            "version": REPORT_SCHEMA_VERSION,
            "command": command,
            "cells": [c.to_dict() for c in self.cells],
            "summary": self.counts,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "VerificationReport":
        if data.get("version") != REPORT_SCHEMA_VERSION:
            raise ValueError("unsupported report version")
        cells = [
            CellResult(
                id=c["id"],
                params=dict(c["params"]),
                status=c["status"],
                residual=c.get("residual"),
                correction=c.get("correction"),
                ms=c.get("ms", 0.0),
            )
            for c in data["cells"]
        ]
        return cls(cells)


_RESIDUAL_TEXT_LIMIT = 400


def _residual_text(value) -> str:
    text = str(value)
    if len(text) > _RESIDUAL_TEXT_LIMIT:
        suffix = f" ... ({len(value)} terms)" if isinstance(value, Poly) else " ..."
        text = text[:_RESIDUAL_TEXT_LIMIT] + suffix
    return text


def _run_cell(task) -> CellResult:
    id, params, fit = task
    entry = CATALOG[id]
    start = time.perf_counter()
    try:
        value, pair = _evaluate(entry, params)
        ok = value.is_zero()
    except Exception as exc:  # failures are report content, not exceptions
        ms = (time.perf_counter() - start) * 1000.0
        return CellResult(id, params, "fail", residual=f"error: {exc}", ms=round(ms, 3))
    if ok:
        ms = (time.perf_counter() - start) * 1000.0
        return CellResult(id, params, "pass", ms=round(ms, 3))
    if fit and pair is not None:
        try:
            corr = fit_monomial_correction(*pair)
            ms = (time.perf_counter() - start) * 1000.0
            return CellResult(
                id, params, "fitted", correction=str(corr), ms=round(ms, 3)
            )
        except (NotProportional, ValueError):
            pass
    ms = (time.perf_counter() - start) * 1000.0
    return CellResult(id, params, "fail", residual=_residual_text(value), ms=round(ms, 3))


# Chunks per process of a sweep: enough that the last chunks even out the load,
# few enough that a process runs long runs of one identity on warm caches.
_CHUNKS_PER_WORKER = 16


def sweep(
    ids,
    overrides: dict | list | None = None,
    fit: bool = False,
    workers: int = 1,
) -> VerificationReport:
    """Evaluate the residual of every grid cell of the named identities.

    `overrides` maps a parameter name to an inclusive (lo, hi) range that
    replaces the entry default; it is one such dict for every id, or a list
    holding one dict (or None) per id.  Cells come in the order the ids
    were given, a repeated id running again, with each id's cells sorted by
    params; the report is identical for any worker count.  Where os.fork
    exists, workers > 1 processes share the cells (_forked_cells).
    """
    if isinstance(ids, str):
        ids = [ids]
    if overrides is None or isinstance(overrides, dict):
        overrides = [overrides] * len(ids)
    tasks = []
    for id, over in zip(ids, overrides, strict=True):
        entry = CATALOG.get(id)
        if entry is None:
            raise BadParams(f"unknown identity {id!r}")
        use_fit = fit or entry.fit_default
        cells = sorted(entry.cells(over), key=lambda params: sorted(params.items()))
        tasks.extend((id, params, use_fit) for params in cells)
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers > 1 and hasattr(os, "fork"):
        return VerificationReport(_forked_cells(tasks, workers))
    return VerificationReport([_run_cell(t) for t in tasks])


def _forked_cells(tasks: list, workers: int) -> list:
    """The cells of `tasks`, in order, from this process and workers - 1
    forked children.  One write of at most PIPE_BUF bytes, which cannot
    block, puts the chunk indices in a pipe (past PIPE_BUF // 4 chunks the
    chunks grow); each process reads the next index until EOF.  A child
    marshals its {index: cells} down a pipe of its own.  On any exception,
    a child's nonzero exit status included, every child not yet reaped is
    killed and reaped first."""
    queue, feed = os.pipe()
    limit = os.fpathconf(feed, "PC_PIPE_BUF") // 4  # 4-byte indices per atomic write
    size = max(len(tasks) // (_CHUNKS_PER_WORKER * workers), -(-len(tasks) // limit), 1)
    chunks = [tasks[i : i + size] for i in range(0, len(tasks), size)]
    os.write(feed, b"".join(i.to_bytes(4, "little") for i in range(len(chunks))))
    os.close(feed)
    done, children = {}, {}  # children: each child's pipe -> its pid, 0 until forked

    def drain() -> dict:
        while index := os.read(queue, 4):
            i = int.from_bytes(index, "little")
            done[i] = [_run_cell(t) for t in chunks[i]]
        return done

    try:
        for _ in range(workers - 1):
            fd, out = os.pipe()
            children[src := open(fd, "rb")] = 0
            with open(out, "wb") as sink:
                if (pid := os.fork()) == 0:
                    try:
                        sent = {i: list(map(vars, v)) for i, v in drain().items()}
                        sink.write(marshal.dumps(sent))
                        sink.flush()
                        os._exit(0)
                    finally:  # a child never returns into the caller's frames
                        os._exit(1)
            children[src] = pid
        drain()
        for src, pid in list(children.items()):
            with src:
                data = src.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[src]
            if code:
                raise ChildProcessError(f"sweep worker {pid} exited with status {code}")
            done.update((i, [CellResult(**c) for c in v]) for i, v in marshal.loads(data).items())
    except BaseException:
        import signal

        for src, pid in children.items():
            src.close()
            if pid:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        raise
    finally:
        os.close(queue)
    return [cell for i in range(len(chunks)) for cell in done[i]]
