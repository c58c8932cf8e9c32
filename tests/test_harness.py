"""Identity catalog: spot values, cross-consistency, fitter, sweeps."""

import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from oracles import det_cofactor, power_det_bareiss
from qfib import harness, poly, qcomb, sequences
from qfib.harness import (
    CATALOG,
    BadParams,
    CellResult,
    IdentityEntry,
    MonomialCorrection,
    NotProportional,
    VerificationReport,
    det_table,
    fit_monomial_correction,
    residual,
    sides,
    sweep,
)
from qfib.matrices import PolyMatrix
from qfib.poly import Poly, Q, S, X, monomial, parse
from qfib.qcomb import binom_product
from qfib.sequences import Memo, fib, qfib, transform_T


def content(p: Poly) -> int:
    g = 0
    for _, c in p.terms():
        g = math.gcd(g, abs(c))
    return g


# ----------------------------------------------------------- spot examples


def test_euler_cassini_trivial_instance():
    assert residual("euler_cassini", n=5, k=1).is_zero()


def test_conj1_f_k2_hand_instance():
    assert residual("conj1_f", n=3, k=2).is_zero()


def test_q_cassini_n2():
    assert residual("q_cassini", n=2).is_zero()
    det, closed = sides("q_cassini", n=2)
    assert det == -(Q * S)


def test_det_sq_q_n2_table_entry():
    assert residual("det_sq_q", n=2).is_zero()
    det, _ = sides("det_sq_q", n=2)
    assert det == parse("2*q^3*s^2*x^2")


# ------------------------------------------------------ proved identities


@pytest.mark.parametrize("k", range(1, 5))
def test_euler_cassini_grid(k):
    for n in range(-4, 7):
        assert residual("euler_cassini", n=n, k=k).is_zero()
        assert residual("basis_decomp", n=n, k=k).is_zero()


def test_power_rec_k2_expanded_form():
    # k = 2 instance: F^2 - (x^2+s)F^2 - s(x^2+s)F^2 + s^3 F^2 pattern
    for n in range(5, 10):
        r = (
            fib(n) ** 2
            - (X**2 + S) * fib(n - 1) ** 2
            - S * (X**2 + S) * fib(n - 2) ** 2
            + S**3 * fib(n - 3) ** 2
        )
        assert r.is_zero()
        assert residual("power_rec_classical", n=n, k=2).is_zero()


def test_conj1_negative_n():
    for n in range(-3, 4):
        assert residual("conj1_f", n=n, k=2).is_zero()


def test_conj1_fibo_is_transform_image():
    for k in (2, 3):
        for n in range(-2, 6):
            assert residual("conj1_fibo", n=n, k=k) == transform_T(
                residual("conj1_f", n=n, k=k), n
            )


def _conj4_qexp(n, k, ell):
    ((_, _, eq, _), _), = harness._power_det_prefactor(n, k, ell).terms()
    return eq


def _c3(j):
    return j * (j - 1) * (j - 2) // 6


def _k2_q2(ell):
    """ell (3 ell - 1) / 2, the q exponent of conj2's j = 2 coefficient at
    k = 2 and of threeterm_ell's third."""
    return harness._c2(2 * ell) - harness._c2(ell)


def _k2_q3(ell):
    """ell (13 ell - 3) / 2, the q exponent of conj2's j = 3 coefficient
    at k = 2."""
    return 5 * ell * ell + 3 * harness._c2(ell)


def _conj2_k2_weights(ell):
    """conj2's four weights at k = 2, cleared by hand: the three distinct
    shifted denominators are d1 = f(ell, q^ell s), d2 = f(2 ell, q^ell s)
    and d3 = f(ell, q^(2 ell) s)."""
    d1 = qfib(ell, shift=ell)
    d2 = qfib(2 * ell, shift=ell)
    d3 = qfib(ell, shift=2 * ell)
    return (
        d1 * d2 * d3,
        -(qfib(3 * ell) * qfib(2 * ell) * d3),
        monomial((-1) ** ell, es=ell, eq=_k2_q2(ell)) * qfib(3 * ell) * qfib(ell) * d2,
        monomial((-1) ** (ell - 1), es=3 * ell, eq=_k2_q3(ell)) * qfib(ell) * qfib(2 * ell) * d1,
    )


# (name, the paper's rational form, the int form harness computes, the
# parameter ranges): j >= 0 is conj2's term index, and conj4 needs k >= 1
_BOX = range(-12, 13)
_QEXPS = [
    (
        "conj2",
        lambda j, ell: Fraction(ell * harness._c2(j) * ((4 * j + 1) * ell - 3), 6),
        lambda j, ell: (4 * _c3(j) + 3 * harness._c2(j)) * harness._c2(ell)
        + (2 * _c3(j) + harness._c2(j)) * ell,
        (range(13), _BOX),
    ),
    (
        "threeterm_ell, conj2_k2 q2",
        lambda ell: Fraction(ell * (3 * ell - 1), 2),
        _k2_q2,
        (_BOX,),
    ),
    (
        "conj2_k2 q3",
        lambda ell: Fraction(ell * (13 * ell - 3), 2),
        _k2_q3,
        (_BOX,),
    ),
    (
        "gen_cassini",
        lambda m, ell: Fraction(m * ell * ((m + 2) * ell - 1), 2),
        lambda m, ell: harness._c2(m * ell) + m * ell * ell,
        (_BOX, _BOX),
    ),
    (
        "det_sq_q",
        lambda n: Fraction((n + 1) * (3 * n - 4), 2),
        lambda n: n * n + harness._c2(n) - 2,
        (_BOX,),
    ),
    (
        "conj4",
        lambda n, k, ell: Fraction(
            (ell * (n + k) - 1) * ell * (k * (k + 1) * (n - k) // 2 + 2 * math.comb(k + 1, 3)), 2
        ),
        _conj4_qexp,
        (_BOX, range(1, 13), _BOX),
    ),
    (
        "conj4_k1",
        lambda n, ell: Fraction((ell * (n + 1) - 1) * (n - 1) * ell, 2),
        lambda n, ell: harness._c2((n - 1) * ell) + ell * (n - 1) * ell,
        (_BOX, _BOX),
    ),
    (
        "conj4_k2",
        lambda n, ell: Fraction((ell * (n + 2) - 1) * ell * (3 * n - 4), 2),
        lambda n, ell: harness._c2(ell * (3 * n - 4)) + ell * (3 - n) * ell * (3 * n - 4),
        (_BOX, _BOX),
    ),
]


def test_conj2_prefactor_exponent_integrality():
    """Each closed-form q exponent that harness computes in ints equals the
    paper's rational form at every point of its box.  Each has degree at
    most 4 in each variable and the box has at least 12 points a side, so
    the two agree at every integer."""
    for name, paper, exact, box in _QEXPS:
        for args in itertools.product(*box):
            assert paper(*args) == exact(*args), (name, args)


def test_conj2_weights_are_the_papers_coefficients_cleared():
    """w_j den_j = c_j L for each memoized weight w_j of conj2, where den_j
    is the denominator of the q-fibonomial <k+1, j>_ell, c_j the paper's
    monomial (-1)^(j + ell C(j,2)) s^(ell C(j,2))
    q^(ell C(j,2)((4j+1) ell - 3)/6) and L = w_0 den_0 (c_0 = 1), so each
    den_j divides L.  The residuals cannot see a factor common to every
    weight, such as one more q on each: w_0 = L / den_0 is a product of
    q-Fibonacci values, each monic in x, so its top x coefficient is 1."""
    for k in (1, 2, 3):
        for ell in (1, 2):
            weights = harness._CONJ2_WEIGHTS[k, ell]
            dens = [qcomb.qfibonomial_parts(k + 1, j, ell)[1] for j in range(k + 2)]
            lcm = weights[0] * dens[0]
            for j, (w, den) in enumerate(zip(weights, dens, strict=True)):
                cj2 = j * (j - 1) // 2
                qexp = Fraction(ell * cj2 * ((4 * j + 1) * ell - 3), 6)
                c = monomial((-1) ** (j + ell * cj2), es=ell * cj2, eq=int(qexp))
                assert qexp.denominator == 1 and w * den == c * lcm, (k, ell, j)
            top = max(e[0] for e, _ in weights[0].terms())
            lead = [(e[1:], c) for e, c in weights[0].terms() if e[0] == top]
            assert lead == [((0, 0, 0), 1)], (k, ell, lead)


def test_conj2_weights_at_k2_are_the_hand_cleared_ones():
    """At k = 2 the denominators' least common multiple over the numerator
    is d1 d2 d3, so conj2's memoized weights (which conj2_k2 reads) are
    the hand-cleared ones, term for term."""
    for ell in range(1, 5):
        assert harness._CONJ2_WEIGHTS[2, ell] == _conj2_k2_weights(ell), ell


@pytest.mark.parametrize("k, ell", [(1, 2), (2, 2), (2, 3), (3, 1)])
def test_every_mutated_conj2_weight_fails_every_cell_it_reaches(monkeypatch, k, ell):
    """Each weight w_j, in turn plus one, times q or negated, makes conj2
    fail at exactly the n = -3..8 whose tail f(ell(n-j)) is nonzero."""
    weights = harness._CONJ2_WEIGHTS[k, ell]
    for j, w in enumerate(weights):
        reached = [n for n in range(-3, 9) if not qfib(ell * (n - j)).is_zero()]
        for bad in (w + 1, w * Q, -w):
            monkeypatch.setitem(
                harness._CONJ2_WEIGHTS, (k, ell), (*weights[:j], bad, *weights[j + 1 :])
            )
            failed = [n for n in range(-3, 9) if not harness.conj2(n, k, ell).is_zero()]
            assert failed == reached, (j, bad)


# n = -4..8 (N for gen_cassini): the default grids stop at n >= k or n >= 1,
# and below that a wrong floor division in a prefactor would part from the
# paper's rational form; residual() does not filter by an entry's valid
_LAURENT_FAMILIES = [
    ("q_cassini", {}),
    ("cassini_classical", {}),
    ("det_sq_q", {}),
    *(("conj4_k1", {"ell": ell}) for ell in (1, 2, 3)),
    *(("conj4_k2", {"ell": ell}) for ell in (1, 2)),
    *(("conj3", {"k": k}) for k in (1, 2, 3)),
    *(("conj4", {"k": k, "ell": ell}) for k in (1, 2) for ell in (1, 2, 3)),
    *(("det_classical_ell", {"k": k, "ell": ell}) for k in (1, 2, 3) for ell in (1, 2)),
    *(("gen_cassini", {"m": m, "ell": ell}) for m in (0, 1, 2) for ell in (1, 2)),
]


def test_prefactors_at_negative_arguments():
    cells = [
        (id, dict(params, **{"N" if id == "gen_cassini" else "n": n}))
        for id, params in _LAURENT_FAMILIES
        for n in range(-4, 9)
    ]
    assert len(cells) == 377
    for id, params in cells:
        assert residual(id, **params).is_zero(), (id, params)


def test_gen_cassini_reduces_to_euler_cassini():
    for k in range(1, 5):
        for n in range(-2, 5):
            gdet, gclosed = sides("gen_cassini", N=n, m=k - 1, ell=1)
            elhs, erhs = sides("euler_cassini", n=n, k=k)
            assert gdet == elhs
            assert gclosed == erhs


def test_basis_decomp_is_euler_cassini_with_its_sides_swapped(monkeypatch):
    """basis_decomp at (n, k) is Euler-Cassini at (n - k, k), its sides
    swapped, and the three two-product ids form their 2 x 2 determinants as
    minors of sequence values: a sweep of them runs no Bareiss."""
    for k in range(1, 7):
        for n in range(-4, 9):
            lhs, rhs = sides("euler_cassini", n=n - k, k=k)
            assert sides("basis_decomp", n=n, k=k) == (rhs, lhs), (n, k)
    calls = []
    monkeypatch.setattr(PolyMatrix, "det", lambda self: calls.append(self))
    assert sweep(["euler_cassini", "basis_decomp", "gen_cassini"]).all_pass()
    assert calls == []


def test_threeterm_q1_specialization():
    # each cleared term specializes to fib(ell) times the classical term
    for ell in (1, 2, 3):
        for n in (3, 5):
            qterms = harness._threeterm_ell_pairs(n, ell)
            cterms = harness._threeterm_classical_pairs(n, ell)
            for (qa, qb), (ca, cb) in zip(qterms, cterms):
                assert (qa * qb).subst_q_one() == fib(ell) * ca * cb


def test_conj3_q1_specialization_sides():
    for k in (1, 2):
        for n in range(k, 6):
            qdet, qclosed = sides("conj3", n=n, k=k)
            cdet, cclosed = sides("det_power_classical", n=n, k=k)
            assert qdet.subst_q_one() == cdet
            assert qclosed.subst_q_one() == cclosed


def test_conj4_q1_specialization_sides():
    for ell in (1, 2):
        for k in (1, 2):
            for n in range(k, 5):
                qdet, qclosed = sides("conj4", n=n, k=k, ell=ell)
                cdet, cclosed = sides("det_classical_ell", n=n, k=k, ell=ell)
                assert qdet.subst_q_one() == cdet
                assert qclosed.subst_q_one() == cclosed


def test_conj4_ell1_equals_conj3():
    for k in (1, 2):
        for n in range(k, 5):
            a = sides("conj4", n=n, k=k, ell=1)
            b = sides("conj3", n=n, k=k)
            assert a == b


def test_q_cassini_q1_matches_classical_sides():
    for n in range(1, 8):
        qdet, qclosed = sides("q_cassini", n=n)
        cdet, cclosed = sides("cassini_classical", n=n)
        assert qdet.subst_q_one() == cdet
        assert qclosed.subst_q_one() == cclosed


def test_special_forms_match_their_general_builders():
    # each hand-simplified closed form is stated independently of the
    # general stride-ell one; they must agree on the default grid and beyond
    def ns(id):
        return sorted({c["n"] for c in CATALOG[id].cells()} | set(range(-2, 8)))

    for n in ns("q_cassini"):
        assert sides("q_cassini", n=n) == harness._conj4_sides(n, 1, 1), n
    for n in ns("det_sq_q"):
        assert sides("det_sq_q", n=n) == harness._conj4_sides(n, 2, 1), n
    for n in ns("cassini_classical"):
        assert sides("cassini_classical", n=n) == harness._det_classical_ell_sides(
            n, 1, 1
        ), n
    for id, k in (("conj4_k1", 1), ("conj4_k2", 2)):
        lo, hi = CATALOG[id].grid_spec["ell"]
        for ell in range(lo, hi + 1):
            for n in ns(id):
                got = sides(id, n=n, ell=ell)
                assert got == harness._conj4_sides(n, k, ell), (id, ell, n)


def test_conj3_k1_is_q_cassini():
    for n in range(1, 8):
        assert sides("conj3", n=n, k=1) == sides("q_cassini", n=n)


def test_conj3_k2_is_det_sq_q():
    for n in range(2, 7):
        assert sides("conj3", n=n, k=2) == sides("det_sq_q", n=n)


# a cell outside each checked id's signature; the ids missing here take
# every integer parameter
_OUT_OF_SIGNATURE = {
    "power_rec_classical": {"k": 0, "n": 5},
    "conj1_f": {"k": 0, "n": 1},
    "conj1_fibo": {"k": 0, "n": 1},
    "euler_cassini": {"k": 0, "n": 1},
    "basis_decomp": {"k": 0, "n": 1},
    "conj2": {"k": 1, "ell": 0, "n": 3},
    "threeterm_ell": {"ell": 0, "n": 3},
    "threeterm_classical": {"ell": 0, "n": 3},
    "gen_cassini": {"N": 1, "ell": 1, "m": -1},
    "gf_limit": {"k": 0},
    "conj2_k2": {"ell": 0, "n": 4},
    "det_power_classical": {"k": 0, "n": 1},
    "conj3": {"k": 0, "n": 1},
    "conj4": {"ell": 0, "k": 1, "n": 1},
    "conj4_k1": {"ell": 0, "n": 1},
    "conj4_k2": {"ell": 0, "n": 2},
    "det_classical_ell": {"ell": 1, "k": 0, "n": 1},
}


@pytest.mark.parametrize("id", sorted(_OUT_OF_SIGNATURE))
def test_an_out_of_signature_cell_names_its_own_id(id):
    """residual raises a BadParams that names the id asked for, not a
    family it binds, and a sweep of the cell fails with that text."""
    params = _OUT_OF_SIGNATURE[id]
    with pytest.raises(BadParams, match=f"^{id} needs ") as raised:
        residual(id, **params)
    rep = sweep([id], overrides={p: (v, v) for p, v in params.items()})
    [cell] = rep.cells
    assert (cell.status, cell.residual) == ("fail", f"error: {raised.value}")


def test_bad_params_is_error():
    unchecked = {"squares_classical", "cassini_classical", "q_cassini", "det_sq_q"}
    assert set(_OUT_OF_SIGNATURE) == set(CATALOG) - unchecked
    with pytest.raises(BadParams, match="^det_table needs max_k >= 1$"):
        det_table(0)
    with pytest.raises(BadParams):
        residual("no_such_identity", n=1)
    with pytest.raises(BadParams):
        residual("q_cassini", n=1, k=2)
    with pytest.raises(BadParams):
        sides("conj1_f", n=1, k=2)


# ---------------------------------------------------------------- det table


@pytest.mark.parametrize(
    "k, n, classical, zero_inside",
    [
        (2, 0, True, True),
        (3, 1, True, True),
        (3, -1, True, True),
        (2, 0, False, True),
        (2, 1, True, False),
        (3, 2, True, False),
        (3, 2, False, False),
    ],
)
def test_power_det_equals_cofactor_expansion_at_a_zero_central_minor(k, n, classical, zero_inside):
    # the entries off the matrix's border are g(m)^k for m = n-k+2..n+k-2,
    # and g(0) = 0 for g = fib and g = qfib: with zero_inside, a central
    # minor vanishes, where Desnanot-Jacobi condensation would divide by
    # zero; the factorization holds there too
    assert zero_inside == (n - k + 2 <= 0 <= n + k - 2)

    def entry(i, j):
        return fib(n + i - j) ** k if classical else qfib(n + i - j, shift=j) ** k

    explicit = PolyMatrix([[entry(i, j) for j in range(k + 1)] for i in range(k + 1)])
    assert harness._power_det(n, k, classical=classical) == det_cofactor(explicit)


def test_det_table_rows_equal_bareiss():
    # det_table's rows by the oracle, power_det_bareiss; the 230-cell
    # comparison below stops at k = 4 (k = 5, 6 on the default engine only,
    # where Bareiss takes about 4 s on them)
    top = 6 if poly._FAST else 4
    rows = [power_det_bareiss(k, k, 1, False) for k in range(1, top + 1)]
    assert rows == list(det_table(top).values())


# SHA-256 of det_table's rows 6-8 as canonical strings (39, 164 and 572 KiB)
_DET_ROW_SHA256 = {
    6: "b9abbf2f9e2fa3ae4fd70fc6cf2be91770ee21152fecbd28671759b904c8434d",
    7: "32797057b75217cd37d424f77d69158f831040c7001ecba88da9f49c1f1e6768",
    8: "afead608de900a9e4bc1e717ab42a81f5bee1efe6e71a6b5c5a24f6aaf780df0",
}


def test_det_table_rows_6_to_8_equal_the_conj3_closed_form():
    """Rows 6-8, beyond the packaged golden rows and too large for the
    Bareiss oracle here, against conjecture 3's closed form, a product of
    qcomb.fac values that shares no code with _power_det's minors, and
    pinned by their hashes.  Both engines run all three rows (about 1.6 s
    on the dict engine)."""
    rows = det_table(8)
    for k, digest in _DET_ROW_SHA256.items():
        assert residual("conj3", n=k, k=k).is_zero(), k
        assert hashlib.sha256(rows[k].to_canonical_string().encode()).hexdigest() == digest, k


def test_no_production_entry_point_reaches_the_oracle(monkeypatch, capsys):
    """No power determinant runs Bareiss (PolyMatrix.det), the elimination
    of their oracle: the whole catalog on one worker, det_table(8) and the
    det-table command compute every one from its factorization."""
    from qfib.cli import main

    calls = []
    real = PolyMatrix.det

    def spy(matrix):
        calls.append(matrix.rows)
        return real(matrix)

    monkeypatch.setattr(PolyMatrix, "det", spy)
    report = sweep(list(CATALOG), workers=1)
    assert report.cells and all(c.status == "pass" for c in report.cells)
    assert len(det_table(8)) == 8
    assert main(["tables", "det-table", "--max-k", "5", "--allow-slow"]) == 0
    capsys.readouterr()
    assert calls == []
    # the spy sees Bareiss where a command runs it: charpoly's determinant
    assert main(["tables", "hoggatt-charpoly", "3"]) == 0
    capsys.readouterr()
    assert calls == [3]


def test_the_dict_engine_never_calls_the_kernel():
    code = (
        "from oracles import power_det_bareiss\n"
        "from qfib import harness, poly\n"
        "calls = []\n"
        "poly._sum_products = lambda *args: calls.append(args)\n"
        "power_det_bareiss(4, 4, 1, False)\n"
        "harness.sweep(['conj2', 'conj2_k2'], overrides={'n': (6, 7)})\n"
        "print(poly._FAST, len(calls))\n"
    )
    path = os.pathsep.join((str(Path(harness.__file__).parents[1]), str(Path(__file__).parent)))
    env = dict(os.environ, QFIB_NO_FAST="1", PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert (proc.returncode, proc.stdout) == (0, "False 0\n")


# q and classical, k 1..4, ell 1..3, n -3..6, without the q cells at
# k = 4, ell = 3, whose Bareiss takes seconds each.  The dict engine
# (QFIB_NO_FAST=1) keeps only the cells with k * ell * (|n| + k) <= 36 at q,
# as test_properties' _cheap does, so that its Tier-1 time does not grow.
_ORACLE_CELLS = [
    (n, k, ell, classical)
    for classical in (False, True)
    for ell in (1, 2, 3)
    for k in range(1, 5)
    for n in range(-3, 7)
    if classical or ((k, ell) != (4, 3) and (poly._FAST or k * ell * (abs(n) + k) <= 36))
]


def test_factored_power_determinants_equal_bareiss():
    assert len(_ORACLE_CELLS) == (230 if poly._FAST else 208)
    for cell in _ORACLE_CELLS:
        assert harness._power_det(*cell) == power_det_bareiss(*cell), cell


_P = (1 << 61) - 1


def _f_mod(m, x, s, q):
    """f(m) at (x, s, q) mod _P by the integer recurrence f(0) = 0, f(1) = 1,
    f(j + 2) = x f(j + 1) + q^j s f(j), run backwards below 0."""
    a, b, j = 0, 1, 0  # f(j), f(j + 1)
    while j < m:
        a, b, j = b, (x * b + pow(q, j, _P) * s * a) % _P, j + 1
    while j > m:
        a, b, j = (b - x * a) * pow(pow(q, j - 1, _P) * s, -1, _P) % _P, a, j - 1
    return a


def _det_mod(rows):
    """det of an integer matrix mod _P by Gaussian elimination."""
    rows = [list(r) for r in rows]
    det = 1
    for c in range(len(rows)):
        pivot = next((r for r in range(c, len(rows)) if rows[r][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            det = -det
        det = det * rows[c][c] % _P
        inv = pow(rows[c][c], -1, _P)
        for r in range(c + 1, len(rows)):
            f = rows[r][c] * inv % _P
            rows[r] = [(a - f * b) % _P for a, b in zip(rows[r], rows[c])]
    return det


@pytest.mark.parametrize(
    "n, k, ell, classical",
    [
        (7, 7, 1, False),  # det_table rows 7 and 8
        (8, 8, 1, False),
        (4, 3, 2, False),
        (3, 2, 3, False),
        (5, 4, 3, False),
        (6, 5, 2, True),
        (5, 6, 1, True),
        (-4, 3, 3, True),
        (-5, 3, 1, False),
        (-3, 4, 2, False),
        (-2, 2, 3, False),
    ],
)
def test_power_determinants_match_the_explicit_matrix_mod_p(n, k, ell, classical):
    """_power_det at seeded points against det(f(ell(n+i-j), q^(ell j) s)^k)
    mod 2^61 - 1, its entries from the integer recurrence (q = 1 when
    classical) and its determinant by elimination: no Poly arithmetic."""
    got = harness._power_det(n, k, ell, classical)
    rng = random.Random(f"{n} {k} {ell} {classical}")
    for _ in range(2):
        x, s, q = (rng.randrange(2, _P - 1) for _ in range(3))
        if classical:
            q = 1
        matrix = [
            [pow(_f_mod(ell * (n + i - j), x, s * pow(q, ell * j, _P) % _P, q), k, _P)
             for j in range(k + 1)]
            for i in range(k + 1)
        ]
        value = sum(
            c * pow(x, ex, _P) * pow(s, es, _P) * pow(q, eq, _P) for (ex, es, eq, _), c in got.terms()
        )
        assert value % _P == _det_mod(matrix)


# ------------------------------------------------------- no forked levels
# No power determinant forks a process: _power_det multiplies minors and
# its oracle, power_det_bareiss, eliminates serially.  These checks keep
# the determinants in the calling process, where perfbench's spans can see
# them.


def _spy_fork(monkeypatch, log=None):
    """Count the os.fork calls (in a list), or append the calling pid to
    the file `log`, which a forked worker's calls reach too."""
    calls = []
    real = os.fork

    def spy():
        if log is None:
            calls.append(os.getpid())
        else:
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
        return real()

    monkeypatch.setattr(os, "fork", spy)
    return calls


@pytest.mark.parametrize("case", ["dict engine", "one core", "second thread"])
def test_no_level_is_forked_where_a_second_process_cannot_help(monkeypatch, case):
    import threading

    want = power_det_bareiss(4, 4, 1, False)
    forks = _spy_fork(monkeypatch)
    if case == "dict engine":  # what QFIB_NO_FAST=1 sets at import
        monkeypatch.setattr(poly, "_FAST", False)
    elif case == "one core":
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
    done = threading.Event()
    if case == "second thread":
        thread = threading.Thread(target=done.wait)
        thread.start()
    try:
        assert harness._power_det(4, 4) == want
        assert power_det_bareiss(4, 4, 1, False) == want
    finally:
        done.set()
    assert forks == []


def test_no_level_is_forked_inside_a_verify_jobs_worker(monkeypatch, tmp_path):
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    log = tmp_path / "forks"
    _spy_fork(monkeypatch, log)
    over = {"n": (3, 4), "k": (3, 4)}
    # in this process no cell forks
    serial = sweep(["conj3"], over)
    assert serial.all_pass() and not log.exists()
    # this process forks the sweep's child, which forks nothing
    pooled = sweep(["conj3"], over, workers=2)
    assert pooled.all_pass() and len(pooled.cells) == len(serial.cells)
    assert set(log.read_text().split()) == {str(os.getpid())}


def test_no_catalog_level_is_forked(monkeypatch):
    forks = _spy_fork(monkeypatch)
    report = sweep(sorted(CATALOG))
    assert report.cells and forks == []


def test_det_table_known_factorizations():
    table = det_table(3)
    assert table[1] == Poly(1)
    assert table[2] == parse("2*q^3*s^2*x^2")
    k3 = parse("9*q^20*s^8*x^4") * parse("q*s + x^2") * parse("q^4*s + x^2")
    assert table[3] == k3


def test_det_table_contents_are_binomial_products():
    table = det_table(4)
    for k, p in table.items():
        assert content(p) == binom_product(k), k


# ------------------------------------------------------------------ fitter


def test_fit_examples():
    assert str(fit_monomial_correction(parse("q^3*s^2*x^2"), parse("s^2*x^2"))) == "+q^3"
    p = parse("x^2 + s")
    corr = fit_monomial_correction(p, p)
    assert corr == MonomialCorrection(1)
    assert str(corr) == "+1"
    with pytest.raises(NotProportional):
        fit_monomial_correction(parse("x^2 + s"), parse("x^2"))
    with pytest.raises(ValueError):
        fit_monomial_correction(Poly(), p)


def test_fit_signed_and_laurent():
    p = parse("x^2 + q*s")
    shifted = monomial(-1, es=-2, eq=5) * p
    corr = fit_monomial_correction(shifted, p)
    assert corr.sign == -1 and corr.es == -2 and corr.eq == 5
    assert monomial(corr.sign, corr.ex, corr.es, corr.eq, corr.ez) * p == shifted


def test_fit_rejects_coefficient_scaling():
    p = parse("x^2 + s")
    with pytest.raises(NotProportional):
        fit_monomial_correction(2 * p, p)


def test_fit_rejects_term_shuffle():
    with pytest.raises(NotProportional):
        fit_monomial_correction(parse("x^2 + 2*s"), parse("2*x^2 + s"))


# ------------------------------------------------------------------- sweep


def test_sweep_all_pass_and_deterministic_order():
    rep = sweep(["euler_cassini"], overrides={"k": (1, 2), "n": (-1, 2)})
    assert rep.counts == {"pass": 8, "fail": 0, "fitted": 0}
    keys = [(c.id, tuple(sorted(c.params.items()))) for c in rep.cells]
    assert keys == sorted(keys)
    assert rep.all_pass()


def test_sweep_error_cells_are_fail_content():
    rep = sweep(["euler_cassini"], overrides={"k": (0, 0), "n": (1, 1)})
    assert rep.counts["fail"] == 1
    assert rep.cells[0].residual.startswith("error:")
    assert not rep.all_pass()


def test_sweep_conj3_fit_enabled_by_default_passes():
    rep = sweep(["conj3"], overrides={"k": (1, 1), "n": (2, 6)})
    assert rep.counts == {"pass": 5, "fail": 0, "fitted": 0}


def test_sweep_workers_match_serial():
    kwargs = dict(overrides={"k": (1, 3), "n": (0, 4)})
    serial = sweep(["euler_cassini", "basis_decomp"], **kwargs)
    parallel = sweep(["euler_cassini", "basis_decomp"], workers=2, **kwargs)
    strip = lambda rep: [
        {**c.to_dict(), "ms": 0} for c in rep.cells
    ]
    assert strip(serial) == strip(parallel)


# every memo a builder reads, by name
_MEMOS = {
    "conj2 weights": harness._CONJ2_WEIGHTS,
    "signed fibonomials": qcomb._SIGNED_FIBONOMIALS,
    "minors": harness._MINORS,
    "qfib powers": sequences._CACHE._qfib_powers,
    "fib powers": sequences._CACHE._fib_powers,
}

# the Memos the per-cell test below does not follow, each with its reason
_MEMOS_EXEMPT = {
    "shifted qfib values": (
        sequences._CACHE._qfib_shifted,
        "test_sequences checks its entries against the per-term substitution",
    ),
    "q-binomial columns": (qcomb._QBINOM_COLUMNS, "no catalog builder reads it"),
}


def test_every_memo_is_followed_or_exempt():
    """Every Memo of harness, qcomb and the sequences' cache is in _MEMOS or
    on the exemption list, and no Memo is on both."""
    found = {
        id(memo): name
        for namespace in (vars(harness), vars(qcomb), vars(sequences._CACHE))
        for name, memo in namespace.items()
        if isinstance(memo, Memo)
    }
    followed = {id(memo) for memo in _MEMOS.values()}
    exempt = {id(memo) for memo, _ in _MEMOS_EXEMPT.values()}
    assert len(followed) == len(_MEMOS) and len(exempt) == len(_MEMOS_EXEMPT)
    assert not followed & exempt
    assert set(found) == followed | exempt, sorted(found.values())

# the (n, k, ell, classical) of the power determinant each determinant
# family's cell computes
_DET_CELLS = {
    "cassini_classical": lambda n: (n, 1, 1, True),
    "det_power_classical": lambda n, k: (n, k, 1, True),
    "q_cassini": lambda n: (n, 1, 1, False),
    "det_sq_q": lambda n: (n, 2, 1, False),
    "conj3": lambda n, k: (n, k, 1, False),
    "conj4": lambda n, k, ell: (n, k, ell, False),
    "conj4_k1": lambda n, ell: (n, 1, ell, False),
    "conj4_k2": lambda n, ell: (n, 2, ell, False),
    "det_classical_ell": lambda n, k, ell: (n, k, ell, True),
}


def _minor_keys(n, k, ell, classical):
    """The _MINORS keys of the 2 x 2 minors in the factorization of
    det(g(ell(n+i-j), q^(ell j) s)^k): rows at (ell(n+i), ell(n+i')), columns
    at (ell j, ell j'), i < i' and j < j'."""
    keys = set()
    for marks in ([ell * (n + i) for i in range(k + 1)], [ell * j for j in range(k + 1)]):
        keys.update((a, b, classical) for i, a in enumerate(marks) for b in marks[i + 1 :])
    return keys


def _conj2_keys(k, ell, n):
    return {"conj2 weights": {(k, ell)}, "qfib powers": {(ell * (n - j), k) for j in range(k + 2)}}


# the keys one cell of each family reads, per memo; the other families
# read no memo
_MEMO_KEYS = {
    "power_rec_classical": lambda k, n: {
        "signed fibonomials": {k + 1},
        "fib powers": {(n - j, k) for j in range(k + 2)},
    },
    "conj1_f": lambda k, n: _conj2_keys(k, 1, n),
    "conj1_fibo": lambda k, n: _conj2_keys(k, 1, n),
    "conj2": _conj2_keys,
    "conj2_k2": lambda ell, n: _conj2_keys(2, ell, n),
    **{
        id: lambda cell=cell, **c: {"minors": _minor_keys(*cell(**c))}
        for id, cell in _DET_CELLS.items()
    },
}


def _clear_memos():
    for memo in _MEMOS.values():
        memo.clear()


def _filled():
    return {name: set(memo) for name, memo in _MEMOS.items() if memo}


@pytest.mark.parametrize("id", sorted(CATALOG))
@pytest.mark.parametrize("engine", ["default", "dict"])
def test_memoized_values_match_a_cold_build_per_cell(monkeypatch, engine, id):
    """Each cell of the catalog grid, built with every memo (weights,
    powers, minors) cleared first, fills exactly the memo keys its
    parameters name, and gives the residual and sides that a sweep over
    the grid reading the memos gave; each memo entry a cold build makes
    equals the warm one.  On both engines: the dict engine (poly._FAST off)
    forms every product and sum as Polys."""
    monkeypatch.setattr(poly, "_FAST", engine == "default")
    entry = CATALOG[id]
    cells = entry.cells()
    keys = _MEMO_KEYS.get(id, lambda **c: {})
    _clear_memos()
    warm = [harness._evaluate(entry, c) for c in cells]
    kept = {name: dict(memo) for name, memo in _MEMOS.items()}
    want = {}
    for c in cells:
        for name, read in keys(**c).items():
            want.setdefault(name, set()).update(read)
    assert _filled() == want
    for c, got in zip(cells, warm):
        _clear_memos()
        assert harness._evaluate(entry, c) == got, c
        assert _filled() == keys(**c), c
        for name, memo in _MEMOS.items():
            assert memo.items() <= kept[name].items(), (name, c)


@pytest.mark.parametrize("engine", ["default", "dict"])
def test_a_corrupted_minor_fails_exactly_the_cells_that_read_it(monkeypatch, engine):
    """One q and one classical minor, each off by one in the memo: every
    determinant cell whose factorization holds either fails with a
    residual, and every other cell passes, so the minors are read from the
    memo and a wrong entry is never masked."""
    monkeypatch.setattr(poly, "_FAST", engine == "default")
    bad = {(2, 4, False), (2, 4, True)}
    for key in bad:
        monkeypatch.setitem(harness._MINORS, key, harness._MINORS[key] + 1)
    rep = sweep(sorted(_DET_CELLS))
    readers = [
        (c.id, c.params) for c in rep.cells if bad & _minor_keys(*_DET_CELLS[c.id](**c.params))
    ]
    assert [(c.id, c.params) for c in rep.cells if c.status != "pass"] == readers
    assert all(c.status == "fail" and c.residual for c in rep.cells if c.status != "pass")
    assert {id for id, _ in readers} == set(_DET_CELLS) - {"cassini_classical", "q_cassini"}


def test_a_corrupted_weight_fails_every_cell_of_its_parameters(monkeypatch):
    """conj2_k2 reads conj2's weights at (2, ell); a wrong w_3 passes at
    n = 3, where its tail f(ell(n-3)) is f(0) = 0."""
    w = harness._CONJ2_WEIGHTS[2, 3]
    monkeypatch.setitem(harness._CONJ2_WEIGHTS, (2, 3), (w[0] + 1, *w[1:]))
    w = harness._CONJ2_WEIGHTS[2, 2]
    monkeypatch.setitem(harness._CONJ2_WEIGHTS, (2, 2), (*w[:3], w[3] + 1))
    rep = sweep(["conj2", "conj2_k2", "conj1_f"])
    failed = [(c.id, c.params) for c in rep.cells if c.status != "pass"]
    assert failed == (
        [("conj2", {"k": 2, "ell": 2, "n": n}) for n in range(4, 8)]
        + [("conj2", {"k": 2, "ell": 3, "n": n}) for n in range(3, 8)]
        + [("conj2_k2", {"ell": ell, "n": n}) for ell in (2, 3) for n in range(4, 8)]
    )
    assert all(c.residual for c in rep.cells if c.status == "fail")


def test_the_catalog_never_leaves_the_machine_word_limbs(monkeypatch):
    """Every block the whole catalog packs or unpacks has limbs of at most
    8 bytes and balanced digits, so none takes the byte-string path
    (_pack_bytes, _unpack_bytes)."""
    calls = {"_pack_coeffs": 0, "_unpack_signed": 0, "_pack_bytes": 0, "_unpack_bytes": 0}
    for name in calls:
        real = getattr(poly, name)

        def spy(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(poly, name, spy)
    # the packed forward fill calls the packer it imported
    monkeypatch.setattr(sequences, "_pack_coeffs", poly._pack_coeffs)
    assert sweep(list(CATALOG)).all_pass()
    assert calls["_pack_bytes"] == calls["_unpack_bytes"] == 0
    if poly._FAST:
        assert calls["_pack_coeffs"] > 100 and calls["_unpack_signed"] > 100, calls


def test_large_weighted_tails_take_the_sum_kernel(monkeypatch):
    calls = []
    real = poly._sum_products

    def spy(terms):
        out = real(terms)
        # a * b runs the kernel too, on one pair: only dot's sums count;
        # the accumulator leaves its block list on the sum, the term dict none
        if sys._getframe(1).f_code is poly.dot.__code__:
            big = max(len(w) * len(t) for w, t in terms) > poly._BLOCKED_PAIRS
            calls.append((big, out is not None and out._blocks is not None))
        else:
            calls.append(("a * b", None))
        return out

    monkeypatch.setattr(poly, "_sum_products", spy)
    # conj2 with its bindings at ell = 1, and conj2_k2
    rep = sweep(["conj2", "conj1_f", "conj1_fibo", "conj2_k2"])
    assert rep.all_pass()
    if poly._FAST:
        # one sum per cell; the accumulator takes exactly the large ones
        calls = [call for call in calls if call[0] != "a * b"]
        assert len(calls) == len(rep.cells)
        assert sum(big for big, _ in calls) > 10
        assert all(big == took for big, took in calls)
    else:
        assert calls == []


# the sweep of test_a_corrupted_weight_fails_every_cell_of_its_parameters,
# cut to the corrupted parameters; prints each cell, then which of dot's
# sums the accumulator took, each call of a * b (one pair) as "a * b"
_CORRUPTED_SWEEP = """
import json, sys
from qfib import harness, poly
w = harness._CONJ2_WEIGHTS[2, 3]
harness._CONJ2_WEIGHTS[2, 3] = (w[0] + 1, *w[1:])
w = harness._CONJ2_WEIGHTS[2, 2]
harness._CONJ2_WEIGHTS[2, 2] = (*w[:3], w[3] + 1)
kernel = poly._sum_products
took = []

def spy(terms):
    out = kernel(terms)
    if sys._getframe(1).f_code is poly.dot.__code__:
        took.append(out is not None and out._blocks is not None)
    else:
        took.append("a * b")
    return out

poly._sum_products = spy
rep = harness.sweep(["conj2", "conj2_k2"], [{"k": (2, 2), "ell": (3, 3)}, {"ell": (2, 2)}])
print(json.dumps([[c.id, c.params, c.status, c.residual] for c in rep.cells]))
print(json.dumps(took))
"""


def test_corrupted_weights_give_byte_identical_residuals_on_both_engines():
    runs = []
    for engine in ({}, {"QFIB_NO_FAST": "1"}):
        env = {k: v for k, v in os.environ.items() if k != "QFIB_NO_FAST"}
        env.update(engine, PYTHONPATH=str(Path(harness.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", _CORRUPTED_SWEEP],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        runs.append([json.loads(line) for line in proc.stdout.splitlines()])
    (fast, took), (plain, untouched) = runs
    assert fast == plain and untouched == []
    took = [t for t in took if t != "a * b"]
    failed = [i for i, (_, _, status, _) in enumerate(fast) if status == "fail"]
    assert len(failed) == 9 and all(fast[i][3] for i in failed)
    # the five conj2 cells (k = 2, ell = 3) failed through the kernel
    assert [took[i] for i in failed if fast[i][0] == "conj2"] == [True] * 5


def test_sweep_fits_from_the_sides_it_checked(monkeypatch):
    calls = []

    def off_by_q(n):
        calls.append(n)
        det, closed = harness._q_cassini_sides(n)
        return det, closed * Q

    entry = CATALOG["q_cassini"]._replace(sides=off_by_q)
    monkeypatch.setitem(CATALOG, "q_cassini", entry)
    rep = sweep(["q_cassini"], overrides={"n": (2, 3)}, fit=True)
    assert [c.status for c in rep.cells] == ["fitted", "fitted"]
    assert [c.correction for c in rep.cells] == ["+q^-1", "+q^-1"]
    assert calls == [2, 3]
    rep = sweep(["q_cassini"], overrides={"n": (2, 2)})
    assert rep.cells[0].status == "fail"
    det, closed = harness._q_cassini_sides(2)
    assert rep.cells[0].residual == str(det - closed * Q)


def _stripped(report):
    return [dict(c.to_dict(), ms=0) for c in report.cells]


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_sweep_caps_the_forks(monkeypatch):
    serial = [sweep(["q_cassini"], overrides={"n": (1, n)}) for n in (3, 12)]
    forks = _spy_fork(monkeypatch)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    few = sweep(["q_cassini"], overrides={"n": (1, 3)}, workers=1000)
    assert len(forks) == 2  # capped by the task count: three processes
    many = sweep(["q_cassini"], overrides={"n": (1, 12)}, workers=1000)
    assert len(forks) == 2 + 3  # then by the cpu count: four processes
    assert [_stripped(few), _stripped(many)] == [_stripped(r) for r in serial]
    _no_child_left()
    three = _stripped(serial[0])
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _stripped(sweep(["q_cassini"], overrides={"n": (1, 3)}, workers=1000)) == three
    assert len(forks) == 5  # unknown cpu count: serial, no fork
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.delattr(os, "fork")
    assert _stripped(sweep(["q_cassini"], overrides={"n": (1, 3)}, workers=1000)) == three
    assert len(forks) == 5  # no os.fork: serial


def test_forked_sweep_runs_every_chunk_once(monkeypatch, tmp_path):
    ids = ["q_cassini", "euler_cassini", "basis_decomp", "det_sq_q"]
    serial = sweep(ids)
    log = tmp_path / "cells"
    real = harness._run_cell

    def run_cell(task):
        with open(log, "a") as fh:
            fh.write(json.dumps([task[0], sorted(task[1].items())]) + "\n")
        return real(task)

    monkeypatch.setattr(harness, "_run_cell", run_cell)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    forked = sweep(ids, workers=4)
    _no_child_left()
    assert _stripped(forked) == _stripped(serial)
    ran = log.read_text().splitlines()
    want = [json.dumps([c.id, sorted(c.params.items())]) for c in serial.cells]
    assert sorted(ran) == sorted(want)  # each cell once, in whichever process


def test_dead_sweep_worker_raises_and_leaves_no_child(monkeypatch):
    caller = os.getpid()
    real = harness._run_cell

    def run_cell(task):
        if os.getpid() != caller:
            os._exit(3)
        time.sleep(0.01)  # leave the children chunks to take
        return real(task)

    monkeypatch.setattr(harness, "_run_cell", run_cell)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    with pytest.raises(ChildProcessError, match="exited with status 3$"):
        sweep(["q_cassini"], workers=3)
    _no_child_left()


def test_interrupted_sweep_kills_and_reaps_its_children(monkeypatch):
    caller = os.getpid()

    def run_cell(task):
        if os.getpid() == caller:
            raise KeyboardInterrupt
        time.sleep(20)  # a child is still busy when the caller stops
        os._exit(0)

    monkeypatch.setattr(harness, "_run_cell", run_cell)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        sweep(["q_cassini"], workers=3)
    assert time.monotonic() - start < 10  # killed, not waited out
    _no_child_left()


@pytest.mark.parametrize("cells, chunks", [(1000, 1000), (1500, 750)])
def test_chunk_indices_go_out_in_one_write_of_at_most_pipe_buf(monkeypatch, cells, chunks):
    import select

    writes = []
    real = os.write

    def write(fd, data):
        writes.append(bytes(data))
        return real(fd, data)

    def fork():
        raise BlockingIOError("no fork in this test")

    monkeypatch.setattr(os, "write", write)
    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    # 64 processes, 16 chunks each: one cell per chunk, unless the indices
    # would pass PIPE_BUF, when the chunks grow instead
    with pytest.raises(BlockingIOError):
        sweep(["q_cassini"], overrides={"n": (1, cells)}, workers=64)
    [queue] = writes  # before the first fork
    assert len(queue) <= select.PIPE_BUF
    assert queue == b"".join(i.to_bytes(4, "little") for i in range(chunks))
    _no_child_left()


def test_sweep_takes_overrides_per_id_in_the_given_order():
    rep = sweep(
        ["q_cassini", "euler_cassini", "q_cassini"],
        overrides=[{"n": (2, 3)}, {"k": (1, 2), "n": (0, 1)}, None],
    )
    keys = [(c.id, tuple(sorted(c.params.items()))) for c in rep.cells]
    default_n = [c["n"] for c in CATALOG["q_cassini"].cells()]
    assert keys == (
        [("q_cassini", (("n", n),)) for n in (2, 3)]
        + [("euler_cassini", (("k", k), ("n", n))) for k in (1, 2) for n in (0, 1)]
        + [("q_cassini", (("n", n),)) for n in default_n]
    )
    assert rep.all_pass()
    with pytest.raises(ValueError):
        sweep(["q_cassini"], overrides=[None, None])


def test_sides_checks_parameter_names_like_residual():
    for params in ({"n": 1, "k": 2}, {}):
        with pytest.raises(BadParams) as from_residual:
            residual("q_cassini", **params)
        with pytest.raises(BadParams) as from_sides:
            sides("q_cassini", **params)
        assert str(from_sides.value) == str(from_residual.value)
        assert str(from_sides.value).startswith("q_cassini takes parameters ('n',)")


def test_every_public_name_resolves():
    import importlib
    import pkgutil

    import qfib

    names = ["qfib"] + [f"qfib.{m.name}" for m in pkgutil.iter_modules(qfib.__path__)]
    for name in names:
        module = importlib.import_module(name)
        for attr in getattr(module, "__all__", ()):
            assert hasattr(module, attr), (name, attr)


def test_sweep_unknown_id():
    with pytest.raises(BadParams):
        sweep(["nonsense"])


def test_fitted_counts_as_non_pass_unless_fit_ok():
    rep = VerificationReport(
        [CellResult("conj3", {"n": 2, "k": 1}, "fitted", correction="+1")]
    )
    assert not rep.all_pass()
    assert rep.all_pass(fit_ok=True)


def test_report_json_roundtrip():
    rep = sweep(["q_cassini"], overrides={"n": (1, 4)})
    blob = json.dumps(rep.to_json_dict("verify"), sort_keys=True)
    back = VerificationReport.from_json_dict(json.loads(blob))
    assert [c.to_dict() for c in back.cells] == [c.to_dict() for c in rep.cells]
    assert back.counts == rep.counts
    with pytest.raises(ValueError):
        VerificationReport.from_json_dict({"version": "0", "cells": []})


def test_catalog_grids_cover_every_entry():
    # an entry's parameters are its grid's keys, stored nowhere else
    assert "params" not in IdentityEntry._fields
    for id, entry in CATALOG.items():
        cells = entry.cells()
        assert cells, id
        # every default cell must carry exactly the declared parameters
        for cell in cells[:2]:
            assert tuple(cell) == entry.params == tuple(entry.grid_spec)
        # a two-sided entry registers its sides alone
        assert (entry.builder is None) == (entry.sides is not None), id
    lhs, rhs = sides("euler_cassini", k=2, n=3)
    assert residual("euler_cassini", k=2, n=3) == lhs - rhs


def test_frozen_records_refuse_writes_and_replace_into_copies():
    import dataclasses

    entry = CATALOG["q_cassini"]
    for record in (MonomialCorrection(1, eq=3), entry):
        for name in (record._fields[-1], "other"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
    assert MonomialCorrection(1, eq=3)._replace(sign=-1) == MonomialCorrection(-1, 0, 0, 3)
    # perfbench's span tracer swaps each builder in with dataclasses.replace
    copy = dataclasses.replace(entry, sides=None)
    assert type(copy) is IdentityEntry and copy.sides is None and entry.sides
    assert copy._replace(sides=entry.sides) == entry


def test_gf_limit_residual_is_series_zero():
    for k in range(1, 5):
        r = residual("gf_limit", k=k)
        assert r.is_zero()


def test_residual_text_truncates_large_polys():
    big = sum((monomial(i + 1, ex=i) for i in range(200)), Poly())
    text = harness._residual_text(big)
    assert text.endswith(f"({len(big)} terms)")
    assert len(text) < len(str(big))
