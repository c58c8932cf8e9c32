"""Identity catalog and verification harness.

Every identity or conjecture is registered as an IdentityEntry whose
builder maps concrete parameters to a single exact residual; a zero
residual certifies that instance.  Identities stated with polynomial-ratio
coefficients are cleared first: each summand is multiplied by the product
of the *other* denominators, and the common numerator is multiplied back in
only when the sum is nonzero (when the sum vanishes the product does too,
so the returned residual is the fully cleared form either way).

The power recurrences (conj2 and its bindings, conj2_k2) keep their
n-free parts per parameter set: the common numerator and each term's
cleared weight, coefficient times the other denominators, are built once
per (k, ell) and memoized, so each cell of a sweep over n builds only its
tails f(ell(n-j), q^(ell j) s)^k.

Two-sided identities (the determinant families and Euler-Cassini) are
registered by their sides alone, e.g. (determinant side, closed-form side);
their residual is lhs - rhs.  A sweep builds the two sides once per cell and,
when the residual is nonzero, hands the same pair to the monomial fitter,
which recovers a correction factor when a closed form's prefactor is in
doubt; entries flagged fit_default attempt the fit even when the sweep
does not ask for fitting.

All power determinants det(f(ell(n+i-j), q^(ell j) s)^k), q-analogue and
classical, share _power_det, which condenses them level by level with the
Desnanot-Jacobi identity, forking one child for half of each large level,
and hands the explicit matrix to Bareiss (PolyMatrix.det) only when a
central minor vanishes; gen_cassini's 2 x 2 determinant goes to Bareiss
directly.

Each family has one builder.  A classical or ell = 1 identity that the
paper states separately (conj1_f, conj3, det_power_classical) is a binding
of its stride-ell family at ell = 1; the hand-simplified special cases
(q_cassini, det_sq_q, conj4_k1, ...) keep their own closed forms, so each
is an independent check of its family's general closed form.

All prefactor exponents that are written with fractional bases are
accumulated as exact rationals and asserted integral before any monomial is
built; a non-integral total is an entry-level error, never a silent
rounding.
"""

from __future__ import annotations

import os
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from .matrices import PolyMatrix
from .poly import _FAST, ONE, Poly, ZERO, _condense, monomial
from .qcomb import Fac, _prod, binom_product, fac, fibonomial, qfibonomial_parts
from .sequences import fib, gf_truncated, lucas, qfib, transform_T, truncate

__all__ = [
    "IdentityEntry",
    "CellResult",
    "VerificationReport",
    "MonomialCorrection",
    "NotProportional",
    "NonIntegralExponent",
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


class NonIntegralExponent(ArithmeticError):
    """A prefactor exponent came out non-integral for these parameters."""


class BadParams(ValueError):
    """Parameters outside an identity's signature."""


def _sign(e: int) -> int:
    return -1 if e % 2 else 1


def _int_exp(value: Fraction) -> int:
    if value.denominator != 1:
        raise NonIntegralExponent(f"exponent {value} is not an integer")
    return value.numerator


# memos of _conj2_weights, keyed by (k, ell), and of _conj2_k2_weights, by ell
_CONJ2_WEIGHTS: dict[tuple[int, int], tuple[Poly, tuple[Poly, ...]]] = {}
_CONJ2_K2_WEIGHTS: dict[int, tuple[Poly, ...]] = {}


def _weighted_tails(weights, n: int, k: int, ell: int) -> Poly:
    """sum_j weights[j] * f(ell(n-j), q^(ell j) s)^k."""
    terms = (w * qfib(ell * (n - j), shift=ell * j) ** k for j, w in enumerate(weights))
    total = next(terms)
    for t in terms:
        total = total + t
    return total


# --------------------------------------------------------------------------
# residual builders


def power_rec_classical(n: int, k: int) -> Poly:
    """Recurrence for k-th powers of Fibonacci polynomials:
    sum_j (-1)^C(j+1,2) s^C(j,2) <k+1, j> F(n-j)^k."""
    if k < 1:
        raise BadParams("power_rec_classical needs k >= 1")
    total = ZERO
    for j in range(k + 2):
        coeff = monomial(_sign(j * (j + 1) // 2), es=j * (j - 1) // 2)
        total = total + coeff * fibonomial(k + 1, j) * fib(n - j) ** k
    return total


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
    lhs = qfib(k - 1, shift=1) * qfib(n + k) - qfib(k) * qfib(n + k - 1, shift=1)
    rhs = monomial(_sign(k), es=k - 1, eq=k * (k - 1) // 2) * qfib(n, shift=k)
    return lhs, rhs


def basis_decomp(n: int, k: int) -> Poly:
    """v(k) f(n-k, q^k s) - f(k-1,qs) f(n,s) + f(k,s) f(n-1,qs), with
    v(k) = (-1)^k q^C(k,2) s^(k-1)."""
    if k < 1:
        raise BadParams("basis_decomp needs k >= 1")
    v = monomial(_sign(k), es=k - 1, eq=k * (k - 1) // 2)
    return v * qfib(n - k, shift=k) - qfib(k - 1, shift=1) * qfib(n) + qfib(k) * qfib(
        n - 1, shift=1
    )


def conj2(n: int, k: int, ell: int) -> Poly:
    """Stride-ell power recurrence on the subsequence f(ell*n), with
    stride-ell q-fibonomial coefficients; denominators cleared."""
    if k < 1 or ell < 1:
        raise BadParams("conj2 needs k >= 1 and ell >= 1")
    num, weights = _conj2_weights(k, ell)
    total = _weighted_tails(weights, n, k, ell)
    if total.is_zero():
        return ZERO
    return num * total


def _conj2_weights(k: int, ell: int) -> tuple[Poly, tuple[Poly, ...]]:
    """(num, w), memoized: num is the q-fibonomial numerator common to the
    k + 2 terms of conj2, and w[j] = coeff_j * prod_{i != j} den_i clears
    term j, from prefix and suffix products of the denominators."""
    got = _CONJ2_WEIGHTS.get((k, ell))
    if got is not None:
        return got
    kk = k + 1
    num, _ = qfibonomial_parts(kk, 0, ell)
    dens = [qfibonomial_parts(kk, j, ell)[1] for j in range(kk + 1)]
    m = len(dens)
    pre = [ONE] * (m + 1)
    for i in range(m):
        pre[i + 1] = pre[i] * dens[i]
    suf = [ONE] * (m + 1)
    for i in range(m - 1, -1, -1):
        suf[i] = suf[i + 1] * dens[i]
    weights = []
    for j in range(m):
        cj2 = j * (j - 1) // 2
        qexp = _int_exp(Fraction(ell * cj2 * ((4 * j + 1) * ell - 3), 6))
        coeff = monomial(_sign(j + ell * cj2), es=ell * cj2, eq=qexp)
        weights.append(coeff * (pre[j] * suf[j + 1]))
    got = _CONJ2_WEIGHTS[(k, ell)] = (num, tuple(weights))
    return got


def _threeterm_ell_terms(n: int, ell: int) -> tuple[Poly, Poly, Poly]:
    if ell < 1:
        raise BadParams("threeterm_ell needs ell >= 1")
    t0 = qfib(ell, shift=ell) * qfib(ell * n)
    t1 = -(qfib(2 * ell) * qfib(ell * (n - 1), shift=ell))
    qexp = _int_exp(Fraction(ell * (3 * ell - 1), 2))
    t2 = monomial(_sign(ell), es=ell, eq=qexp) * qfib(ell) * qfib(
        ell * (n - 2), shift=2 * ell
    )
    return t0, t1, t2


def threeterm_ell(n: int, ell: int) -> Poly:
    """Three-term recurrence for f(ell*n), cleared by f(ell, q^ell s)."""
    t0, t1, t2 = _threeterm_ell_terms(n, ell)
    return t0 + t1 + t2


def _threeterm_classical_terms(n: int, ell: int) -> tuple[Poly, Poly, Poly]:
    if ell < 1:
        raise BadParams("threeterm_classical needs ell >= 1")
    return (
        fib(ell * n),
        -(lucas(ell) * fib(ell * (n - 1))),
        monomial(_sign(ell), es=ell) * fib(ell * (n - 2)),
    )


def threeterm_classical(n: int, ell: int) -> Poly:
    """F(ell n) - L(ell) F(ell(n-1)) + (-s)^ell F(ell(n-2))."""
    t0, t1, t2 = _threeterm_classical_terms(n, ell)
    return t0 + t1 + t2


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
    qexp = _int_exp(Fraction(m * ell * ((m + 2) * ell - 1), 2))
    closed = monomial(_sign(m * ell - 1), es=m * ell, eq=qexp) * qfib(ell) * qfib(
        N, shift=(m + 1) * ell
    )
    return det, closed


def gf_limit(k: int, s_order: int = 8, q_order: int = 12) -> Poly:
    """Limit form of the q-Euler-Cassini identity for the x = 1 generating
    function F(s), checked modulo (s^s_order, q^q_order).

    One truncation at the end is exact: for k >= 1 every factor has
    nonnegative s and q exponents, so a term of a product inside the box
    only comes from terms of the factors inside it, and s -> q^j s with
    j >= 0 only raises q exponents, so it moves no term into the box."""
    if k < 1:
        raise BadParams("gf_limit needs k >= 1")
    F = gf_truncated(s_order, q_order)
    return truncate(
        F * qfib(k - 1, shift=1).subst_x_one()
        - F.subst_s_scale(1) * qfib(k).subst_x_one()
        - F.subst_s_scale(k) * monomial(_sign(k), es=k - 1, eq=k * (k - 1) // 2),
        s_order,
        q_order,
    )


def conj2_k2(n: int, ell: int) -> Poly:
    """The k = 2 case of the stride-ell power recurrence, cleared by the
    product of its three distinct denominators."""
    if ell < 1:
        raise BadParams("conj2_k2 needs ell >= 1")
    return _weighted_tails(_conj2_k2_weights(ell), n, 2, ell)


def _conj2_k2_weights(ell: int) -> tuple[Poly, ...]:
    """The four n-free weights of conj2_k2, memoized."""
    got = _CONJ2_K2_WEIGHTS.get(ell)
    if got is not None:
        return got
    d1 = qfib(ell, shift=ell)
    d2 = qfib(2 * ell, shift=ell)
    d3 = qfib(ell, shift=2 * ell)
    q2 = _int_exp(Fraction(ell * (3 * ell - 1), 2))
    q3 = _int_exp(Fraction(ell * (13 * ell - 3), 2))
    got = _CONJ2_K2_WEIGHTS[ell] = (
        d1 * d2 * d3,
        -(qfib(3 * ell) * qfib(2 * ell) * d3),
        monomial(_sign(ell), es=ell, eq=q2) * qfib(3 * ell) * qfib(ell) * d2,
        monomial(_sign(ell - 1), es=3 * ell, eq=q3) * qfib(ell) * qfib(2 * ell) * d1,
    )
    return got


def _power_det(n: int, k: int, ell: int = 1, classical: bool = False) -> Poly:
    """det(f(ell(n+i-j), q^(ell j) s)^k) over 0 <= i, j <= k, or
    det(F(ell(n+i-j))^k) when classical, by Desnanot-Jacobi condensation.

    Let D_r(m) be the leading r x r minor of this matrix at n = m.  The
    minor on rows a.., columns b.. is sigma^b D_r(m + a - b), where sigma is
    s -> q^ell s (the identity when classical), so the Desnanot-Jacobi
    identity on the (r+1) x (r+1) leading block reads
        D_{r+1}(m) = (D_r(m) sigma D_r(m) - sigma D_r(m-1) D_r(m+1))
                     / sigma D_{r-1}(m),
    starting from D_0 = 1 and D_1(m) = g(ell m)^k.  Level r covers
    m = n-k-1+r..n+k+1-r; the levels are built bottom-up, keeping only the
    current one and the central minors of the one below.  When one of those
    is zero (g(0) = 0 inside the window) the explicit matrix goes to
    Bareiss instead.  Each step is a _condense_step.  On the default engine
    the poly._condense kernel forms, subtracts and divides its numerator on
    packed q-blocks, and builds no sigma image.  The steps it declines, and
    every step under QFIB_NO_FAST=1, take the Poly formula, whose central
    product D_r(m) sigma D_r(m) is the twisted square
    D_r(m).mul_s_scaled(ell) (a plain square when classical).

    The steps of a level depend only on the level below, and
    _condense_level runs them: above _FORK_PAIRS term pairs one forked
    child takes the half of the level that holds its largest step.  A
    level stays serial under QFIB_NO_FAST=1, without os.fork or a second
    CPU, beside another thread and inside a multiprocessing worker such
    as a verify --jobs pool's.
    """
    g = fib if classical else qfib
    twist = 0 if classical else ell  # sigma is s -> q^twist s

    level = [g(ell * m) ** k for m in range(n - k, n + k + 1)]
    divisors = None  # D_{r-1}(m) over the window of level r + 1
    while len(level) > 1:
        if divisors is not None and not all(divisors):
            return _power_det_bareiss(n, k, ell, classical)
        args = [
            (level[i + 1], level[i], level[i + 2], None if divisors is None else divisors[i], twist)
            for i in range(len(level) - 2)
        ]
        level, divisors = _condense_level(args), level[2:-2]
    return level[0]


# Term pairs of a condensation level, sum(len(c)^2 / 2 + len(a) len(b))
# over its steps, above which _condense_level forks a child for half of it.
# On a 2-vCPU host the fork, the child's start and its pickled quotients
# cost 5-15 ms: levels of 1.3-1.9M pairs ran 0-50% slower forked, levels
# from 3.4M on 20-50% faster (row 6's 8.4-25M levels 33-47%).  Every level
# of det_table(5) (0.16-1.9M) and of the catalog (at most 0.1M) stays serial.
_FORK_PAIRS = 3_000_000


def _condense_level(args: list) -> list:
    """The quotients of a condensation level's steps, each an argument tuple
    (c, a, b, d, twist) of _condense_step, in window order.

    The steps of a level depend only on the level below, so above
    _FORK_PAIRS term pairs one forked child runs the half of them that
    holds the largest step (halves split longest step first) while this
    process runs the other; the child inherits the level, and sends its
    quotients, or its first failure, back through a pipe.  The first failure
    in window order is raised, as a serial run would raise it.  If the child
    dies without a word, this process runs its half too; no child outlives
    the call.  Serial on the dict engine, without os.fork or a second core,
    beside another thread and inside a multiprocessing worker (the verify
    --jobs pool), whose siblings already hold the cores."""
    pairs = [len(c._t) ** 2 / 2 + len(a._t) * len(b._t) for c, a, b, _, _ in args]
    if len(args) < 2 or sum(pairs) <= _FORK_PAIRS or not _may_fork():
        return [_condense_step(*step) for step in args]
    halves = ([], [])
    loads = [0, 0]
    for i in sorted(range(len(args)), key=pairs.__getitem__, reverse=True):
        h = loads[1] < loads[0]
        halves[h].append(i)
        loads[h] += pairs[i]
    theirs, mine = sorted(halves[0]), sorted(halves[1])

    import pickle

    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: report and exit, never return
        try:
            os.close(rfd)
            data = pickle.dumps(_run_steps(args, theirs), pickle.HIGHEST_PROTOCOL)
            with os.fdopen(wfd, "wb") as fh:
                fh.write(data)
        finally:
            os._exit(0)
    os.close(wfd)
    try:
        out, failed = _run_steps(args, mine)
        with os.fdopen(rfd, "rb") as fh:
            rfd = None
            data = fh.read()
        os.waitpid(pid, 0)
        pid = None
    finally:
        if pid is not None:
            from signal import SIGKILL

            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)
        if rfd is not None:
            os.close(rfd)
    try:
        got, their_failed = pickle.loads(data)
    except Exception:  # no whole payload: the child died before writing it
        got, their_failed = _run_steps(args, theirs)
    out.update(got)
    failures = [f for f in (failed, their_failed) if f is not None]
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    return [out[i] for i in range(len(args))]


def _may_fork() -> bool:
    """Whether _condense_level may fork a child for half of a level."""
    if not _FAST or not hasattr(os, "fork") or (os.cpu_count() or 1) < 2:
        return False
    threading = sys.modules.get("threading")  # no threads without it
    if threading is not None and threading.active_count() > 1:
        return False
    mp = sys.modules.get("multiprocessing")
    return mp is None or mp.parent_process() is None


def _run_steps(args: list, which) -> tuple[dict, tuple | None]:
    """({i: quotient}, None) for the steps `which` of a level, run in
    order, or ({...}, (i, exception)) for the first that raises."""
    out = {}
    for i in which:
        try:
            out[i] = _condense_step(*args[i])
        except Exception as exc:
            return out, (i, exc)
    return out, None


def _condense_step(c: Poly, a: Poly, b: Poly, d: Poly | None, twist: int) -> Poly:
    """(c sigma(c) - sigma(a) b) / sigma(d), sigma: s -> q^twist s, or the
    numerator alone when d is None: the kernel where it takes the step,
    else the Poly formula."""
    if _FAST:
        out = _condense(c, a, b, d, twist)
        if out is not None:
            return out
    num = c.mul_s_scaled(twist) - a.subst_s_scale(twist) * b
    return num if d is None else num.exact_div(d.subst_s_scale(twist))


def _power_det_bareiss(n: int, k: int, ell: int, classical: bool) -> Poly:
    """The power determinant of _power_det by Bareiss on the explicit matrix."""

    def entry(i, j):
        m = ell * (n + i - j)
        return (fib(m) if classical else qfib(m, shift=ell * j)) ** k

    return PolyMatrix([[entry(i, j) for j in range(k + 1)] for i in range(k + 1)]).det()


def _cassini_classical_sides(n: int) -> tuple[Poly, Poly]:
    """Cassini with the s generalization: det = (-1)^(n-1) s^(n-1)."""
    return _power_det(n, 1, classical=True), monomial(_sign(n - 1), es=n - 1)


def _det_power_classical_sides(n: int, k: int) -> tuple[Poly, Poly]:
    """det(F(n+i-j)^k) and its product closed form: det_classical_ell at
    ell = 1."""
    if k < 1:
        raise BadParams("det_power_classical needs k >= 1")
    return _det_classical_ell_sides(n, k, 1)


def _q_cassini_sides(n: int) -> tuple[Poly, Poly]:
    """q-Cassini: d(n, s) = (-1)^(n-1) q^C(n,2) s^(n-1)."""
    return _power_det(n, 1), monomial(_sign(n - 1), es=n - 1, eq=n * (n - 1) // 2)


def _det_sq_q_sides(n: int) -> tuple[Poly, Poly]:
    """3x3 determinant of squared shifted q-Fibonacci values and
    2 (-1)^n x^2 s^(3n-4) q^((n+1)(3n-4)/2)."""
    det = _power_det(n, 2)
    qexp = _int_exp(Fraction((n + 1) * (3 * n - 4), 2))
    return det, monomial(2 * _sign(n), ex=2, es=3 * n - 4, eq=qexp)


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
    ck2 = k * (k + 1) // 2
    e = ck2 * (n - k) + 2 * comb(k + 1, 3)
    qexp = _int_exp(Fraction((ell * (n + k) - 1) * ell * e, 2))
    closed = (
        monomial(_sign(ell * ck2 * (n - k)) * binom_product(k), es=ell * e, eq=qexp)
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
    qexp = _int_exp(Fraction((ell * (n + 1) - 1) * e, 2))
    closed = monomial(_sign(e), es=e, eq=qexp) * qfib(ell) * qfib(ell, shift=n * ell)
    return det, closed


def _conj4_k2_sides(n: int, ell: int) -> tuple[Poly, Poly]:
    """The 3x3 stride-ell squared determinant case (k = 2)."""
    if ell < 1:
        raise BadParams("conj4_k2 needs ell >= 1")
    det = _power_det(n, 2, ell)
    e = ell * (3 * n - 4)
    qexp = _int_exp(Fraction((ell * (n + 2) - 1) * e, 2))
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
    ck2 = k * (k + 1) // 2
    e = ck2 * (n - k) + 2 * comb(k + 1, 3)
    closed = monomial(
        _sign(ell * ck2 * (n - k)) * binom_product(k), es=ell * e
    ) * _prod(Fac(k - j, ell) ** 2 for j in range(k))
    return det, closed


def det_table(max_k: int) -> dict[int, Poly]:
    """The shifted power determinants det(f(k+i-j, q^j s)^k) at n = k,
    keyed by k = 1..max_k."""
    if max_k < 1:
        raise BadParams("det_table needs max_k >= 1")
    return {k: _power_det(k, k) for k in range(1, max_k + 1)}


# --------------------------------------------------------------------------
# fitter


@dataclass(frozen=True)
class MonomialCorrection:
    """A signed monomial c * x^ex s^es q^eq z^ez with c in {+1, -1}."""

    sign: int
    ex: int = 0
    es: int = 0
    eq: int = 0
    ez: int = 0

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


@dataclass(frozen=True)
class IdentityEntry:
    id: str
    params: tuple[str, ...]
    builder: Callable  # residual; derived as lhs - rhs when sides is set
    grid_spec: dict
    valid: Callable | None = None
    sides: Callable | None = None
    fit_default: bool = False
    summary: str = ""

    def cells(self, overrides: dict | None = None) -> list[dict]:
        """Parameter grid as a deterministic list of param dicts."""
        overrides = overrides or {}
        axes = []
        for p in self.params:
            lo, hi = overrides.get(p, self.grid_spec[p])
            axes.append([(p, v) for v in range(lo, hi + 1)])
        cells = [{}]
        for axis in axes:
            cells = [dict(c, **{p: v}) for c in cells for (p, v) in axis]
        if self.valid is not None:
            cells = [c for c in cells if self.valid(**c)]
        return cells


def _residual_of(sides):
    """The residual builder lhs - rhs of a two-sided identity."""

    def builder(**params):
        lhs, rhs = sides(**params)
        return lhs - rhs

    return builder


def _entry(id, params, grid, builder=None, valid=None, sides=None, fit_default=False, summary=""):
    if builder is None:
        builder = _residual_of(sides)
    return IdentityEntry(id, params, builder, grid, valid, sides, fit_default, summary)


CATALOG: dict[str, IdentityEntry] = {
    e.id: e
    for e in [
        _entry(
            "power_rec_classical",
            ("k", "n"),
            {"k": (1, 4), "n": (3, 12)},
            builder=power_rec_classical,
            valid=lambda k, n: n >= k + 2,
            summary="power recurrence for F(n)^k",
        ),
        _entry(
            "squares_classical",
            ("n",),
            {"n": (3, 30)},
            builder=squares_classical,
            summary="Fibonacci squares recurrence at x=s=1",
        ),
        _entry(
            "conj1_f",
            ("k", "n"),
            {"k": (2, 3), "n": (-3, 8)},
            builder=conj1_f,
            summary="q power recurrence, shifted arguments",
        ),
        _entry(
            "conj1_fibo",
            ("k", "n"),
            {"k": (2, 3), "n": (-3, 8)},
            builder=conj1_fibo,
            summary="q power recurrence, plain arguments (transform image)",
        ),
        _entry(
            "euler_cassini",
            ("k", "n"),
            {"k": (1, 6), "n": (-4, 8)},
            sides=_euler_cassini_sides,
            summary="q-Euler-Cassini two-product identity",
        ),
        _entry(
            "basis_decomp",
            ("k", "n"),
            {"k": (1, 6), "n": (-4, 8)},
            builder=basis_decomp,
            summary="f(n-k, q^k s) in the f(n), f(n-1, qs) basis",
        ),
        _entry(
            "conj2",
            ("k", "ell", "n"),
            {"k": (1, 2), "ell": (1, 3), "n": (3, 7)},
            builder=conj2,
            summary="stride-ell q power recurrence",
        ),
        _entry(
            "threeterm_ell",
            ("ell", "n"),
            {"ell": (1, 4), "n": (3, 8)},
            builder=threeterm_ell,
            summary="three-term recurrence for f(ell n)",
        ),
        _entry(
            "threeterm_classical",
            ("ell", "n"),
            {"ell": (1, 4), "n": (3, 8)},
            builder=threeterm_classical,
            summary="classical three-term recurrence for F(ell n)",
        ),
        _entry(
            "gen_cassini",
            ("N", "ell", "m"),
            {"N": (-3, 6), "ell": (1, 3), "m": (0, 3)},
            sides=_gen_cassini_sides,
            summary="generalized strided Cassini determinant",
        ),
        _entry(
            "gf_limit",
            ("k",),
            {"k": (1, 4)},
            builder=gf_limit,
            summary="limit Euler-Cassini identity for F(s) mod (s^8, q^12)",
        ),
        _entry(
            "conj2_k2",
            ("ell", "n"),
            {"ell": (1, 3), "n": (4, 7)},
            builder=conj2_k2,
            summary="k=2 case of the stride-ell power recurrence",
        ),
        _entry(
            "cassini_classical",
            ("n",),
            {"n": (1, 10)},
            sides=_cassini_classical_sides,
            summary="Cassini determinant with s generalization",
        ),
        _entry(
            "det_power_classical",
            ("k", "n"),
            {"k": (1, 2), "n": (1, 6)},
            valid=lambda k, n: n >= k,
            sides=_det_power_classical_sides,
            summary="classical power determinant closed form",
        ),
        _entry(
            "q_cassini",
            ("n",),
            {"n": (1, 12)},
            sides=_q_cassini_sides,
            summary="q-Cassini determinant",
        ),
        _entry(
            "det_sq_q",
            ("n",),
            {"n": (2, 8)},
            sides=_det_sq_q_sides,
            summary="3x3 squared q determinant closed form",
        ),
        _entry(
            "conj3",
            ("k", "n"),
            {"k": (1, 2), "n": (1, 6)},
            valid=lambda k, n: n >= k,
            sides=_conj3_sides,
            fit_default=True,
            summary="shifted power determinant closed form",
        ),
        _entry(
            "conj4",
            ("ell", "k", "n"),
            {"ell": (1, 2), "k": (1, 2), "n": (1, 5)},
            valid=lambda ell, k, n: n >= k,
            sides=_conj4_sides,
            fit_default=True,
            summary="stride-ell shifted power determinant closed form",
        ),
        _entry(
            "conj4_k1",
            ("ell", "n"),
            {"ell": (1, 3), "n": (1, 6)},
            sides=_conj4_k1_sides,
            summary="stride-ell determinant, k=1 case",
        ),
        _entry(
            "conj4_k2",
            ("ell", "n"),
            {"ell": (1, 2), "n": (2, 5)},
            sides=_conj4_k2_sides,
            summary="stride-ell determinant, k=2 case",
        ),
        _entry(
            "det_classical_ell",
            ("ell", "k", "n"),
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


def residual(id: str, **params):
    entry = CATALOG.get(id)
    if entry is None:
        raise BadParams(f"unknown identity {id!r}")
    _check_params(entry, params)
    return entry.builder(**params)


def sides(id: str, **params):
    entry = CATALOG.get(id)
    if entry is None or entry.sides is None:
        raise BadParams(f"identity {id!r} does not expose sides")
    _check_params(entry, params)
    return entry.sides(**params)


# --------------------------------------------------------------------------
# sweep runner and report


@dataclass
class CellResult:
    id: str
    params: dict
    status: str  # pass | fail | fitted
    residual: str | None = None
    correction: str | None = None
    ms: float = 0.0

    def to_dict(self) -> dict:
        d = {"id": self.id, "params": dict(self.params), "status": self.status}
        if self.residual is not None:
            d["residual"] = self.residual
        if self.correction is not None:
            d["correction"] = self.correction
        d["ms"] = self.ms
        return d


@dataclass
class VerificationReport:
    cells: list = field(default_factory=list)

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
    pair = None
    try:
        if entry.sides is None:
            value = entry.builder(**params)
        else:
            pair = entry.sides(**params)
            value = pair[0] - pair[1]
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


# Chunks per pool worker: enough that the last chunks even out the load,
# few enough that a worker runs long runs of one identity on warm caches.
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
    params; the report is identical for any worker count.  All cells share
    one process pool, fed contiguous chunks so that each worker runs
    consecutive cells of an identity on warm sequence caches.
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
    # a fork-started pool forks all its workers on the first submit
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        chunksize = max(1, len(tasks) // (_CHUNKS_PER_WORKER * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            cells = list(pool.map(_run_cell, tasks, chunksize=chunksize))
    else:
        cells = [_run_cell(t) for t in tasks]
    return VerificationReport(cells)
