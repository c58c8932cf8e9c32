#!/usr/bin/env python3
"""Self-check of the benchmark itself.

Usage: python3 perfbench/selfcheck.py

1. Each workload's checker passes a real output and counts exactly one
   failure for each deliberately corrupted copy of it.
2. The workloads and every metric name and unit the runner prints (a short
   catalog run with --trace 0 and --trace 1) match BENCHMARK.json.

Exits 0 when every check holds; takes about a minute.
"""

from __future__ import annotations

import copy
import json
import random
import subprocess
import sys

import run


def _report_edit(edit):
    def corrupt(sample):
        report = json.loads(sample["stdout"])
        edit(report["cells"])
        sample["stdout"] = json.dumps(report)

    return corrupt


def _flip_status(cells):
    cells[7]["status"] = "fail"


def _drop_cell(cells):
    del cells[100]


def _duplicate_cell(cells):
    cells.append(cells[0])


def _extra_field(cells):
    cells[3]["residual"] = "0"


def _change_ms(cells):
    for cell in cells:
        cell["ms"] = cell["ms"] * 2 + 1


def _row_text(k):
    def corrupt(sample):
        row = sample["outputs"]["rows"][str(k)]
        row["text"] = row["text"].replace("*", "1*", 1)  # first coefficient c -> 10c + 1

    return corrupt


def _row_term(k):
    def corrupt(sample):
        sample["outputs"]["rows"][str(k)]["terms"][5][4] += 1

    return corrupt


def _product_term(sample):
    sample["outputs"]["products"][3][2][11][4] -= 1


# (label, corruption, failures the checker must count)
CORRUPTIONS = {
    "catalog": [
        ("one cell status flipped to fail", _report_edit(_flip_status), 1),
        ("one cell missing", _report_edit(_drop_cell), 1),
        ("one cell reported twice", _report_edit(_duplicate_cell), 1),
    ],
    "catalog_jobs2": [
        ("one cell status flipped to fail", _report_edit(_flip_status), 1),
        ("one cell differs from the --jobs 1 report", _report_edit(_extra_field), 1),
        ("only ms differs from the --jobs 1 report", _report_edit(_change_ms), 0),
    ],
    "det_frontier": [
        ("one coefficient changed in golden row 2", _row_text(2), 1),
        ("one coefficient changed in closed-form row 5", _row_text(5), 1),
        ("one term coefficient changed in row 6", _row_term(6), 1),
    ],
    "powers": [("one coefficient changed in one product", _product_term, 1)],
}


def main() -> int:
    failures = []

    def expect(label, got, want):
        ok = got == want
        print(f"{'ok  ' if ok else 'FAIL'} {label}" + ("" if ok else f": got {got!r}, want {want!r}"))
        if not ok:
            failures.append(label)

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect("workloads match BENCHMARK.json", tuple(w["name"] for w in bench["workloads"]), run.WORKLOADS)

    run.OUT.mkdir(exist_ok=True)
    env = run.child_env()
    rng = random.Random(0)
    for name in run.WORKLOADS:
        work = run.Workload(name, rng, env)
        sample = run.spawn(env, name, "run", work.arg, f"selfcheck-{name}")
        expect(f"{name}: real output passes", work.check(sample)[1], 0)
        for label, corrupt, want in CORRUPTIONS[name]:
            bad = copy.deepcopy(sample)
            corrupt(bad)
            expect(f"{name}: {label}", work.check(bad)[1], want)

    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        out = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--workload", "catalog",
             "--seed", "0", "--seconds", "1", "--trace", str(trace)],
            capture_output=True, text=True, check=True,
        )
        result = json.loads(out.stdout.splitlines()[-1])
        expect(f"--trace {trace} output is correct", result["correct"], True)
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        declared = {m["name"]: m["unit"] for m in bench[key]}
        expect(f"--trace {trace} metric names and units match BENCHMARK.json {key}", printed, declared)

    print("self-check " + ("failed: " + "; ".join(failures) if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
