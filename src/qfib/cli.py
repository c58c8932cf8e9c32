"""Command-line front end: eval | coeff | verify | tables.

Exit codes: 0 all pass, 1 verification failure, 2 usage error, 3 budget
exceeded.  Ranges are inclusive "a..b" (a single "a" works too); negative
bounds must be attached with '=', e.g. --n=-2..6.  Polynomial output uses
the canonical grammar, bit-exact, so reports are stable regression inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from importlib import resources

from . import harness, qcomb, sequences
from .matrices import hoggatt
from .poly import Poly

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_OVER_BUDGET = 3

# desk-scale bounds for the tables subcommand
DET_TABLE_DEFAULT_MAX_K = 4
DET_TABLE_SLOW_MAX_K = 5
TRIANGLE_MAX_ROWS = 12
HOGGATT_MAX_N = 6


class _UsageError(Exception):
    pass


def _parse_range(text: str) -> tuple[int, int]:
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            lo, hi = int(lo), int(hi)
        else:
            lo = hi = int(text)
    except ValueError:
        raise _UsageError(f"bad range {text!r}; expected a..b") from None
    if hi < lo:
        raise _UsageError(f"empty range {text!r}")
    return lo, hi


def _parse_at(text: str) -> dict:
    values = {}
    for piece in text.split(","):
        if "=" not in piece:
            raise _UsageError(f"bad assignment {piece!r} in --at")
        name, val = piece.split("=", 1)
        name = name.strip()
        if name not in ("x", "s", "q", "z"):
            raise _UsageError(f"unknown variable {name!r} in --at")
        try:
            values[name] = Fraction(val.strip())
        except (ValueError, ZeroDivisionError):
            raise _UsageError(f"bad value {val!r} in --at") from None
    return values


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _fraction_str(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


# ------------------------------------------------------------------- eval


def _cmd_eval(args) -> int:
    kind = args.kind
    if kind == "gf":
        series = sequences.gf_truncated(args.s_order, args.q_order)
        _emit(series.to_text(), args.out)
        return EXIT_OK
    if args.n is None:
        raise _UsageError(f"eval {kind} needs an index n")
    if args.shift and kind != "qfib":
        raise _UsageError("--shift only applies to eval qfib")
    n = args.n
    if kind == "fib":
        p = sequences.fib(n)
    elif kind == "lucas":
        p = sequences.lucas(n)
    elif kind == "qfib":
        p = sequences.qfib(n, shift=args.shift)
    elif kind == "qfib-neg-closed":
        p = sequences.qfib_neg_closed(n)
    else:  # pragma: no cover - argparse restricts choices
        raise _UsageError(f"unknown eval kind {kind!r}")
    _emit(p.to_canonical_string(), args.out)
    return EXIT_OK


# ------------------------------------------------------------------ coeff


def _coeff_value(kind: str, params: list[int], shift: int, ell: int):
    if kind == "qbinom":
        if len(params) != 2:
            raise _UsageError("coeff qbinom needs: n k")
        return qcomb.qbinom(*params)
    if kind == "fibonomial":
        if len(params) != 2:
            raise _UsageError("coeff fibonomial needs: n k")
        return qcomb.fibonomial(*params)
    if kind == "qfibonomial":
        if len(params) != 2:
            raise _UsageError("coeff qfibonomial needs: k j")
        return qcomb.qfibonomial(*params)
    if kind == "fibonomial-ell":
        if len(params) == 3:
            k, j, e = params
        elif len(params) == 2:
            k, j = params
            e = ell
        else:
            raise _UsageError("coeff fibonomial-ell needs: k j ell")
        return qcomb.fibonomial(k, j, e)
    if kind == "fac":
        if len(params) != 1:
            raise _UsageError("coeff fac needs: n (plus --shift/--ell)")
        return qcomb.fac(params[0], shift=shift, ell=ell)
    raise _UsageError(f"unknown coeff kind {kind!r}")  # pragma: no cover


def _cmd_coeff(args) -> int:
    value = _coeff_value(args.kind, args.params, args.shift, args.ell)
    at = _parse_at(args.at) if args.at else None
    if isinstance(value, tuple):
        num, den = value
        if at:
            ratio = num.evaluate(**at) / den.evaluate(**at)
            _emit(_fraction_str(ratio), args.out)
        else:
            _emit(f"({num}) / ({den})", args.out)
        return EXIT_OK
    if at:
        _emit(_fraction_str(value.evaluate(**at)), args.out)
    else:
        _emit(value.to_canonical_string(), args.out)
    return EXIT_OK


# ----------------------------------------------------------------- verify


def _clip(spec: tuple[int, int], cap: int | None) -> tuple[int, int]:
    if cap is None:
        return spec
    return (spec[0], min(spec[1], cap))


def _report_text(report: harness.VerificationReport) -> str:
    lines = []
    for cell in report.cells:
        params = " ".join(f"{k}={v}" for k, v in sorted(cell.params.items()))
        line = f"[{cell.status}] {cell.id} {params} ({cell.ms} ms)"
        if cell.correction:
            line += f" correction={cell.correction}"
        if cell.residual:
            line += f" residual={cell.residual}"
        lines.append(line)
    c = report.counts
    lines.append(
        f"cells={len(report.cells)} pass={c['pass']} fail={c['fail']} fitted={c['fitted']}"
    )
    return "\n".join(lines)


def run_verify(args) -> tuple[harness.VerificationReport, str]:
    """Sweep the identities a parsed `verify` command names; return the
    report and its text in the requested format."""
    ranges = {}
    for name in ("n", "k", "ell", "m", "N"):
        raw = getattr(args, f"range_{name}")
        if raw is not None:
            ranges[name] = _parse_range(raw)
    if args.jobs < 1:
        raise _UsageError(f"--jobs must be >= 1, got {args.jobs}")
    ids = list(args.ids)
    if ids == ["all"]:
        ids = list(harness.CATALOG)
    for id in ids:
        if id not in harness.CATALOG:
            raise _UsageError(f"unknown identity {id!r}")
    report_cells = []
    for id in ids:
        entry = harness.CATALOG[id]
        overrides = {}
        for p in entry.params:
            spec = entry.grid_spec[p]
            if p in ranges:
                spec = ranges[p]
            if p == "k":
                spec = _clip(spec, args.max_k)
            elif p == "ell":
                spec = _clip(spec, args.max_ell)
            overrides[p] = spec
        rep = harness.sweep([id], overrides=overrides, fit=args.fit, workers=args.jobs)
        report_cells.extend(rep.cells)
    report = harness.VerificationReport(report_cells)
    if args.format == "json":
        text = json.dumps(report.to_json_dict("verify"), indent=2, sort_keys=True)
    else:
        text = _report_text(report)
    return report, text


def _cmd_verify(args) -> int:
    report, text = run_verify(args)
    _emit(text, args.out)
    return EXIT_OK if report.all_pass(fit_ok=args.fit_ok) else EXIT_VERIFY_FAIL


# ----------------------------------------------------------------- tables


def _golden_lines(name: str) -> list[str] | None:
    """Non-blank lines of a packaged golden file, or None if it is missing
    (callers report that as a mismatch)."""
    path = resources.files("qfib").joinpath(f"golden/{name}")
    try:
        text = path.read_text()
    except (FileNotFoundError, OSError):
        return None
    return [line for line in text.splitlines() if line.strip()]


def _cmd_tables(args) -> int:
    kind = args.kind
    lines: list[str] = []
    mismatches: list[str] = []
    if kind == "det-table":
        max_k = args.max_k
        if max_k > DET_TABLE_SLOW_MAX_K or (
            max_k > DET_TABLE_DEFAULT_MAX_K and not args.allow_slow
        ):
            print(
                f"det-table max-k {max_k} exceeds the desk-scale budget"
                f" (k <= {DET_TABLE_DEFAULT_MAX_K}, k = 5 with --allow-slow)",
                file=sys.stderr,
            )
            return EXIT_OVER_BUDGET
        table = harness.det_table(max_k)
        rows = {str(k): table[k].to_canonical_string() for k in table}
        lines = [rows[str(k)] for k in range(1, max_k + 1)]
        golden = _golden_lines("det_table.txt")
        if golden is None:
            mismatches.append("det-table: golden file det_table.txt missing")
        else:
            want = dict(line.split("\t", 1) for line in golden)
            for k in range(1, max_k + 1):
                exp = want.get(str(k))
                if exp is None:
                    mismatches.append(f"det-table k={k}: golden row missing")
                elif exp != rows[str(k)]:
                    mismatches.append(f"det-table k={k}: golden mismatch")
    elif kind == "fibonomial-triangle":
        rows_n = args.rows
        if rows_n > TRIANGLE_MAX_ROWS:
            print(
                f"triangle rows {rows_n} exceeds the desk-scale budget"
                f" (rows <= {TRIANGLE_MAX_ROWS})",
                file=sys.stderr,
            )
            return EXIT_OVER_BUDGET
        at = _parse_at(args.at) if args.at else None
        symbolic = {}
        for n in range(rows_n + 1):
            entries = [qcomb.fibonomial(n, k) for k in range(n + 1)]
            if at:
                lines.append(" ".join(_fraction_str(e.evaluate(**at)) for e in entries))
            else:
                row = [e.to_canonical_string() for e in entries]
                symbolic[n] = row
                lines.append(" | ".join(row))
        if not at:
            golden = _golden_lines("fibonomial_triangle.txt")
            if golden is None:
                mismatches.append("triangle: golden file fibonomial_triangle.txt missing")
            else:
                want: dict[tuple[int, int], str] = {}
                for line in golden:
                    n, k, text = line.split("\t", 2)
                    want[(int(n), int(k))] = text
                for (n, k), text in want.items():
                    if n <= rows_n and symbolic[n][k] != text:
                        mismatches.append(f"triangle ({n},{k}): golden mismatch")
    elif kind == "hoggatt-charpoly":
        n = args.n
        if n is None:
            raise _UsageError("tables hoggatt-charpoly needs n")
        if n > HOGGATT_MAX_N:
            print(
                f"hoggatt-charpoly n {n} exceeds the desk-scale budget"
                f" (n <= {HOGGATT_MAX_N})",
                file=sys.stderr,
            )
            return EXIT_OVER_BUDGET
        lines = [hoggatt(n).charpoly().to_canonical_string()]
    else:  # pragma: no cover
        raise _UsageError(f"unknown table kind {kind!r}")
    body = "\n".join(lines)
    if mismatches:
        body += "\n" + "\n".join(mismatches)
    _emit(body, args.out)
    return EXIT_VERIFY_FAIL if mismatches else EXIT_OK


# ------------------------------------------------------------------ parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfib",
        description="exact q-Fibonacci polynomial sequences, coefficients, "
        "and identity verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="print a sequence value or series")
    p_eval.add_argument(
        "kind", choices=["fib", "lucas", "qfib", "qfib-neg-closed", "gf"]
    )
    p_eval.add_argument("n", type=int, nargs="?", help="sequence index")
    p_eval.add_argument("--shift", type=int, default=0, help="apply s -> q^shift s")
    p_eval.add_argument("--s-order", type=int, default=8, dest="s_order")
    p_eval.add_argument("--q-order", type=int, default=12, dest="q_order")
    p_eval.add_argument("--out")
    p_eval.set_defaults(func=_cmd_eval)

    p_coeff = sub.add_parser("coeff", help="print a coefficient polynomial")
    p_coeff.add_argument(
        "kind",
        choices=["qbinom", "fibonomial", "qfibonomial", "fibonomial-ell", "fac"],
    )
    p_coeff.add_argument("params", type=int, nargs="*")
    p_coeff.add_argument("--shift", type=int, default=0)
    p_coeff.add_argument("--ell", type=int, default=1)
    p_coeff.add_argument("--at", help="evaluate, e.g. --at x=1,s=1")
    p_coeff.add_argument("--out")
    p_coeff.set_defaults(func=_cmd_coeff)

    p_verify = sub.add_parser("verify", help="run identity sweeps")
    p_verify.add_argument("ids", nargs="+", help="identity ids, or 'all'")
    p_verify.add_argument("--n", dest="range_n", help="inclusive range a..b")
    p_verify.add_argument("--k", dest="range_k", help="inclusive range a..b")
    p_verify.add_argument("--ell", dest="range_ell", help="inclusive range a..b")
    p_verify.add_argument("--m", dest="range_m", help="inclusive range a..b")
    p_verify.add_argument("--N", dest="range_N", help="inclusive range a..b")
    p_verify.add_argument("--max-k", type=int, dest="max_k")
    p_verify.add_argument("--max-ell", type=int, dest="max_ell")
    p_verify.add_argument("--fit", action="store_true")
    p_verify.add_argument(
        "--fit-ok",
        action="store_true",
        help="treat fitted cells as passing for the exit code",
    )
    p_verify.add_argument("--jobs", type=int, default=1)
    p_verify.add_argument("--format", choices=["text", "json"], default="text")
    p_verify.add_argument("--out")
    p_verify.set_defaults(func=_cmd_verify)

    p_tables = sub.add_parser("tables", help="print golden-checked tables")
    p_tables.add_argument(
        "kind", choices=["det-table", "fibonomial-triangle", "hoggatt-charpoly"]
    )
    p_tables.add_argument("n", type=int, nargs="?")
    p_tables.add_argument("--max-k", type=int, default=3, dest="max_k")
    p_tables.add_argument("--rows", type=int, default=5)
    p_tables.add_argument("--at")
    p_tables.add_argument(
        "--allow-slow", action="store_true", help="permit the k = 5 determinant"
    )
    p_tables.add_argument("--out")
    p_tables.set_defaults(func=_cmd_tables)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
