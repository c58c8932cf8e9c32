"""CLI surface: output strings, exit codes, JSON schema, golden tables."""

import json

import pytest

from qfib import qcomb
from qfib.cli import EXIT_OK, EXIT_OVER_BUDGET, EXIT_USAGE, EXIT_VERIFY_FAIL, main
from qfib.harness import REPORT_SCHEMA_VERSION, VerificationReport
from qfib.poly import parse


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.rstrip("\n"), captured.err


# -------------------------------------------------------------------- eval


def test_eval_qfib5(capsys):
    code, out, _ = run(capsys, "eval", "qfib", "5")
    assert code == EXIT_OK
    assert out == "x^4 + q*s*x^2 + q^2*s*x^2 + q^3*s*x^2 + q^4*s^2"


def test_eval_fib4(capsys):
    code, out, _ = run(capsys, "eval", "fib", "4")
    assert (code, out) == (EXIT_OK, "x^3 + 2*s*x")


def test_eval_qfib_negative_index(capsys):
    code, out, _ = run(capsys, "eval", "qfib", "-1")
    assert (code, out) == (EXIT_OK, "q*s^-1")


def test_eval_qfib_shift(capsys):
    code, out, _ = run(capsys, "eval", "qfib", "3", "--shift", "1")
    assert (code, out) == (EXIT_OK, "x^2 + q^2*s")


def test_eval_neg_closed(capsys):
    code, out, _ = run(capsys, "eval", "qfib-neg-closed", "2")
    assert (code, out) == (EXIT_OK, "-q^3*s^-2*x")


def test_eval_lucas(capsys):
    code, out, _ = run(capsys, "eval", "lucas", "3")
    assert (code, out) == (EXIT_OK, "x^3 + 3*s*x")


def test_eval_gf(capsys):
    code, out, _ = run(capsys, "eval", "gf", "--s-order", "2", "--q-order", "4")
    assert (code, out) == (EXIT_OK, "1 + (q + q^2 + q^3)*s")


def test_eval_missing_index_usage_error(capsys):
    code, _, err = run(capsys, "eval", "fib")
    assert code == EXIT_USAGE
    assert "needs an index" in err


def test_eval_lucas_negative_usage_error(capsys):
    code, _, err = run(capsys, "eval", "lucas", "-1")
    assert code == EXIT_USAGE


# ------------------------------------------------------------------- coeff


def test_coeff_fibonomial_evaluated(capsys):
    code, out, _ = run(capsys, "coeff", "fibonomial", "5", "2", "--at", "x=1,s=1")
    assert (code, out) == (EXIT_OK, "15")


def test_coeff_qbinom(capsys):
    code, out, _ = run(capsys, "coeff", "qbinom", "4", "2")
    assert (code, out) == (EXIT_OK, "1 + q + 2*q^2 + q^3 + q^4")


def test_coeff_fibonomial_symbolic(capsys):
    code, out, _ = run(capsys, "coeff", "fibonomial", "4", "2")
    assert code == EXIT_OK
    assert parse(out) == parse("2*s^2 + 3*s*x^2 + x^4")


def test_coeff_qfibonomial_reduced(capsys):
    code, out, _ = run(capsys, "coeff", "qfibonomial", "3", "1")
    assert (code, out) == (EXIT_OK, "x^2 + q*s")


def test_coeff_qfibonomial_pair_formatting(capsys, monkeypatch):
    monkeypatch.setattr(
        qcomb, "qfibonomial", lambda k, j: (parse("x^2 + s"), parse("x"))
    )
    code, out, _ = run(capsys, "coeff", "qfibonomial", "3", "1")
    assert (code, out) == (EXIT_OK, "(x^2 + s) / (x)")
    code, out, _ = run(
        capsys, "coeff", "qfibonomial", "3", "1", "--at", "x=2,s=1"
    )
    assert (code, out) == (EXIT_OK, "5/2")


def test_coeff_fibonomial_ell(capsys):
    code, out, _ = run(capsys, "coeff", "fibonomial-ell", "2", "1", "2")
    assert (code, out) == (EXIT_OK, "x^2 + 2*s")


def test_coeff_fac(capsys):
    code, out, _ = run(capsys, "coeff", "fac", "3", "--shift", "1")
    assert (code, out) == (EXIT_OK, "x^3 + q^2*s*x")


def test_coeff_wrong_arity(capsys):
    code, _, err = run(capsys, "coeff", "qbinom", "4")
    assert code == EXIT_USAGE


def test_coeff_bad_at(capsys):
    code, _, err = run(capsys, "coeff", "fibonomial", "4", "2", "--at", "y=1")
    assert code == EXIT_USAGE


# ------------------------------------------------------------------ verify


def test_verify_euler_cassini_grid(capsys):
    code, out, _ = run(capsys, "verify", "euler_cassini", "--k", "1..4", "--n=-2..6")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[-1] == "cells=36 pass=36 fail=0 fitted=0"
    assert all(line.startswith("[pass]") for line in lines[:-1])


def test_verify_json_schema_and_roundtrip(capsys):
    code, out, _ = run(
        capsys, "verify", "conj1_f", "--k", "2..2", "--n", "3..10", "--format", "json"
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["version"] == REPORT_SCHEMA_VERSION
    assert data["command"] == "verify"
    assert data["summary"] == {"pass": 8, "fail": 0, "fitted": 0}
    assert len(data["cells"]) == 8
    cell = data["cells"][0]
    assert set(cell) == {"id", "params", "status", "ms"}
    back = VerificationReport.from_json_dict(data)
    assert back.to_json_dict("verify") == data


def test_verify_all_with_caps(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "all",
        "--max-k",
        "1",
        "--max-ell",
        "1",
        "--n",
        "3..4",
        "--fit",
    )
    assert code == EXIT_OK
    assert out.splitlines()[-1].endswith("fail=0 fitted=0")


def test_verify_deterministic_output(capsys):
    args = ("verify", "q_cassini", "--n", "1..6", "--format", "json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    d1, d2 = json.loads(out1), json.loads(out2)
    for d in (d1, d2):
        for cell in d["cells"]:
            cell["ms"] = 0
    assert d1 == d2


def test_verify_failure_exit_code(capsys):
    # k = 0 is outside euler_cassini's signature: the cell fails, exit 1
    code, out, _ = run(capsys, "verify", "euler_cassini", "--k", "0..0", "--n", "1..1")
    assert code == EXIT_VERIFY_FAIL
    assert "error:" in out


def test_verify_unknown_id(capsys):
    code, _, err = run(capsys, "verify", "twin_prime_conjecture")
    assert code == EXIT_USAGE
    assert "unknown identity" in err


def test_verify_bad_range(capsys):
    code, _, err = run(capsys, "verify", "q_cassini", "--n", "oops")
    assert code == EXIT_USAGE


def test_verify_gen_cassini_range_flags(capsys):
    code, out, _ = run(
        capsys, "verify", "gen_cassini", "--N=-1..2", "--m", "0..1", "--ell", "1..2"
    )
    assert code == EXIT_OK
    assert out.splitlines()[-1] == "cells=16 pass=16 fail=0 fitted=0"


def test_verify_jobs_flag(capsys):
    code, out, _ = run(capsys, "verify", "q_cassini", "--n", "1..4", "--jobs", "2")
    assert code == EXIT_OK
    assert out.splitlines()[-1] == "cells=4 pass=4 fail=0 fitted=0"


def test_verify_jobs_must_be_positive(capsys):
    for jobs in ("--jobs=0", "--jobs=-2"):
        code, out, err = run(capsys, "verify", "q_cassini", "--n", "1..2", jobs)
        assert code == EXIT_USAGE, jobs
        assert "--jobs" in err and out == ""


def test_verify_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        "verify",
        "q_cassini",
        "--n",
        "1..3",
        "--format",
        "json",
        "--out",
        str(target),
    )
    assert code == EXIT_OK
    assert out == ""
    data = json.loads(target.read_text())
    assert data["summary"]["pass"] == 3


# ------------------------------------------------------------------ tables


def test_tables_det_table(capsys):
    code, out, _ = run(capsys, "tables", "det-table", "--max-k", "2")
    assert code == EXIT_OK
    assert out.splitlines() == ["1", "2*q^3*s^2*x^2"]


def test_tables_det_table_golden_match(capsys):
    code, out, _ = run(capsys, "tables", "det-table", "--max-k", "3")
    assert code == EXIT_OK
    assert "golden mismatch" not in out


def test_tables_det_table_budget(capsys):
    code, _, err = run(capsys, "tables", "det-table", "--max-k", "5")
    assert code == EXIT_OVER_BUDGET
    assert "budget" in err
    code, out, _ = run(capsys, "tables", "det-table", "--max-k", "5", "--allow-slow")
    assert code == EXIT_OK
    assert len(out.splitlines()) == 5
    code, _, err = run(
        capsys, "tables", "det-table", "--max-k", "6", "--allow-slow"
    )
    assert code == EXIT_OVER_BUDGET


def test_tables_triangle_evaluated(capsys):
    code, out, _ = run(
        capsys, "tables", "fibonomial-triangle", "--rows", "5", "--at", "x=1,s=1"
    )
    assert code == EXIT_OK
    assert out.splitlines()[-1] == "1 5 15 15 5 1"


def test_tables_triangle_symbolic_golden(capsys):
    code, out, _ = run(capsys, "tables", "fibonomial-triangle", "--rows", "5")
    assert code == EXIT_OK
    assert "golden mismatch" not in out
    assert out.splitlines()[3] == "1 | x^2 + s | x^2 + s | 1"


def test_tables_golden_mismatch_reported(capsys, monkeypatch):
    from qfib import cli

    monkeypatch.setattr(cli, "_golden_lines", lambda name: ["1\tnot*the*right*row"])
    code, out, _ = run(capsys, "tables", "det-table", "--max-k", "2")
    assert code == EXIT_VERIFY_FAIL
    assert "golden mismatch" in out


def test_tables_missing_golden_file_is_a_mismatch(capsys, monkeypatch):
    from qfib import cli

    real = cli._golden_lines
    monkeypatch.setattr(cli, "_golden_lines", lambda name: real("no_such_" + name))
    code, out, _ = run(capsys, "tables", "det-table", "--max-k", "2")
    assert code == EXIT_VERIFY_FAIL
    assert "golden file det_table.txt missing" in out
    code, out, _ = run(capsys, "tables", "fibonomial-triangle", "--rows", "3")
    assert code == EXIT_VERIFY_FAIL
    assert "golden file fibonomial_triangle.txt missing" in out


def test_tables_det_table_missing_row_is_a_mismatch(capsys, monkeypatch):
    from qfib import cli

    real = cli._golden_lines("det_table.txt")
    assert [line.split("\t", 1)[0] for line in real] == ["1", "2", "3", "4", "5"]
    monkeypatch.setattr(cli, "_golden_lines", lambda name: real[:2])
    code, out, _ = run(capsys, "tables", "det-table", "--max-k", "3")
    assert code == EXIT_VERIFY_FAIL
    assert out.splitlines()[-1] == "det-table k=3: golden row missing"


def test_tables_triangle_budget(capsys):
    code, _, _ = run(capsys, "tables", "fibonomial-triangle", "--rows", "13")
    assert code == EXIT_OVER_BUDGET


def test_tables_hoggatt_charpoly(capsys):
    code, out, _ = run(capsys, "tables", "hoggatt-charpoly", "2")
    assert (code, out) == (EXIT_OK, "z^2 - x*z - s")
    code, _, _ = run(capsys, "tables", "hoggatt-charpoly", "7")
    assert code == EXIT_OVER_BUDGET
    code, _, _ = run(capsys, "tables", "hoggatt-charpoly")
    assert code == EXIT_USAGE


def test_eval_out_file(tmp_path, capsys):
    target = tmp_path / "f5.txt"
    code, out, _ = run(capsys, "eval", "qfib", "5", "--out", str(target))
    assert code == EXIT_OK
    assert target.read_text().strip() == "x^4 + q*s*x^2 + q^2*s*x^2 + q^3*s*x^2 + q^4*s^2"
