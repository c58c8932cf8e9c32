#!/usr/bin/env python3
"""qfib benchmark: one workload, each iteration in a fresh interpreter.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the package is imported from
its `src/` directory.  Every iteration starts `perfbench/child.py` in a new
interpreter, because users pay cold sequence caches and cold block maps on
every command.  Iterations repeat until `--seconds` would be exceeded (at
least MIN_ITERATIONS).  Outputs are checked by `checks.py`, outside the
timed call.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics (medians over iterations).
--trace 1 alternates plain and traced iterations and reports the per-layer
metrics (see spans.py) of the median traced iteration, plus
trace.overhead_ratio: its work_s over the median plain work_s.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Host speed on shared machines drifts by tens of percent over minutes, for
# plain CPython code as much as for qfib.  Every child times a fixed kernel
# before its imports and after the call (child._calibrate); each iteration's
# times are reported at the speed where that kernel takes CALIBRATION_REF_S.
CALIBRATION_REF_S = 0.06
MIN_ITERATIONS = 5
SETUP_SPAWNS = 5  # set-up-only interpreters per run, on top of the iterations
CHILD_TIMEOUT_S = 150
DET_MAX_K = 6
# qfib(n)**k bands: each run computes qfib(base +- d)**k for a seeded d in
# POWER_OFFSETS, a symmetric pair whose cost stays close to 2 * cost(base).
POWER_BASES = ((40, 3), (60, 2), (30, 4), (25, 5))
POWER_OFFSETS = (1, 2)

WORKLOADS = ("catalog", "catalog_jobs2", "det_frontier", "powers")  # why: BENCHMARK.json
END_TO_END_UNITS = {
    "wall_s": "s",
    "work_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("efficiency", "ratio")):
        return "ratio"
    return "count"


# ------------------------------------------------------------------ children


def child_env() -> dict:
    env = dict(os.environ)
    # a stray QFIB_NO_FAST would silently benchmark the test oracle
    env.pop("QFIB_NO_FAST", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(env: dict, workload: str, mode: str, arg: str, tag: str) -> dict:
    """Run child.py once.  Returns its record and outputs (None if it
    failed) and its timings; the monotonic clock is shared by all processes."""
    base = OUT / tag
    files = {suffix: Path(f"{base}{suffix}") for suffix in (".json", ".out.json", ".stdout", ".stderr")}
    cmd = [sys.executable, str(HERE / "child.py"), workload, mode, str(base), arg]
    with open(files[".stdout"], "w") as out, open(files[".stderr"], "w") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        exited = time.monotonic()
    sample = {"record": None, "outputs": None, "stdout": files[".stdout"].read_text()}
    if proc.returncode == 0:
        record = sample["record"] = json.loads(files[".json"].read_text())
        sample["outputs"] = json.loads(files[".out.json"].read_text())
        # less the benchmark's own steps in the child: the calibration
        # before the imports, the gap between imports and call, and the
        # calibration and output dump after the call
        calibration = record["calibration_s"][0]
        raw = {"setup_s": record["ready"] - spawned - calibration}
        if "end" in record:
            raw.update(
                wall_s=exited - spawned - calibration - (record["start"] - record["ready"])
                - (record["written"] - record["end"]),
                work_s=record["end"] - record["start"],
                cpu_s=record["cpu_s"],
            )
            sample["peak_rss_mb"] = record["peak_rss_kib"] / 1024.0
        scale = CALIBRATION_REF_S / statistics.mean(record["calibration_s"])
        sample.update((name, value * scale) for name, value in raw.items())
        sample["raw"] = raw
    else:
        print(f"child {tag} exited {proc.returncode}: {files['.stderr'].read_text()[-2000:]}",
              file=sys.stderr)
    for path in files.values():
        path.unlink(missing_ok=True)
    return sample


# ----------------------------------------------------------------- workloads


class Workload:
    """Child argument, operations per iteration, and the output check."""

    def __init__(self, name: str, rng: random.Random, env: dict):
        self.name = name
        self.points = checks.draw_points(rng)
        self.reference = None
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        # the closed forms below are built in this process; keep its engine
        # the default one as well
        os.environ.pop("QFIB_NO_FAST", None)
        if name in ("catalog", "catalog_jobs2"):
            from qfib.harness import CATALOG

            self.arg = "2" if name == "catalog_jobs2" else "1"
            self.expected = {
                (id, tuple(sorted(params.items())))
                for id, entry in CATALOG.items()
                for params in entry.cells()
            }
            if name == "catalog_jobs2":
                ref = spawn(env, "catalog", "run", "1", f"{name}-reference")
                self.reference = _json_or_empty(ref["stdout"])
        elif name == "det_frontier":
            self.arg = str(DET_MAX_K)
            self.golden = read_golden(SRC / "qfib" / "golden" / "det_table.txt")
            self.closed = {
                k: conj3_closed_form(k) for k in range(1, DET_MAX_K + 1) if k not in self.golden
            }
        elif name == "powers":
            self.pairs = [
                (base + sign * d, k)
                for (base, k), d in ((bk, rng.choice(POWER_OFFSETS)) for bk in POWER_BASES)
                for sign in (1, -1)
            ]
            self.arg = ",".join(f"{n}:{k}" for n, k in self.pairs)
        else:
            raise ValueError(f"unknown workload {name!r}")

    def check(self, sample: dict) -> tuple[int, int]:
        """(operations attempted, operations failed) for one iteration."""
        outputs = sample["outputs"] or {}
        if self.name.startswith("catalog"):
            report = _json_or_empty(sample["stdout"])
            return checks.check_catalog(report, self.expected, self.reference)
        if self.name == "det_frontier":
            rows = {int(k): row for k, row in outputs.get("rows", {}).items()}
            want = range(1, DET_MAX_K + 1)
            failed = checks.check_det_rows(
                {k: rows[k] for k in want if k in rows}, self.golden, self.closed, self.points
            )
            return len(want), failed + sum(k not in rows for k in want)
        products = outputs.get("products", [])
        got = [(n, k) for n, k, _ in products]
        if got != self.pairs:
            return len(self.pairs), len(self.pairs)
        return len(self.pairs), checks.check_powers(products, self.points)


def _json_or_empty(text: str) -> dict:
    try:
        return json.loads(text)
    except ValueError:
        return {}


def read_golden(path: Path) -> dict:
    if not path.is_file():
        return {}
    rows = {}
    for line in path.read_text().splitlines():
        if line.strip():
            k, text = line.split("\t", 1)
            rows[int(k)] = text
    return rows


def conj3_closed_form(k: int) -> str:
    """The conj3 closed form at n = k as a polynomial, from qcomb.fac and
    binom_product: the value det_table(k) must have."""
    from qfib.poly import monomial
    from qfib.qcomb import binom_product, fac

    e = 2 * comb(k + 1, 3)
    value = monomial(binom_product(k), es=e, eq=(2 * k - 1) * e // 2)
    for j in range(k):
        value = value * fac(k - j, shift=j) * fac(k - j, shift=k + j)
    return value.to_canonical_string()


# -------------------------------------------------------------------- runs


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "qfib").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def iterate(seconds: float, modes, step) -> None:
    """Call step(mode) for modes in turn until the next call would end past
    `seconds`, with at least MIN_ITERATIONS calls and one per mode."""
    begin = time.monotonic()
    durations = []
    i = 0
    while True:
        t0 = time.monotonic()
        step(modes[i % len(modes)])
        durations.append(time.monotonic() - t0)
        i += 1
        elapsed = time.monotonic() - begin
        if i >= max(MIN_ITERATIONS, len(modes)) and elapsed + statistics.median(durations) > seconds:
            return


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qfib" / "__init__.py").is_file():
        print(f"error: no qfib sources at {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    env = child_env()
    rng = random.Random(args.seed)
    work = Workload(args.workload, rng, env)
    print(json.dumps({"env": environment(), "seed": args.seed, "arg": work.arg}), flush=True)
    # first interpreter writes bytecode caches; users have them installed
    spawn(env, args.workload, "setup", work.arg, f"{args.workload}-warmup")

    samples = {"run": [], "trace": []}
    setups = []
    totals = {"attempted": 0, "failed": 0}

    def step(mode: str) -> None:
        n = len(samples["run"]) + len(samples["trace"])
        sample = spawn(env, args.workload, mode, work.arg, f"{args.workload}-{n}")
        attempted, failed = work.check(sample)
        totals["attempted"] += attempted
        totals["failed"] += failed
        del sample["outputs"], sample["stdout"]  # keep the runner small
        if sample["record"] is not None:
            samples[mode].append(sample)
            setups.append(sample)

    if args.trace:
        iterate(args.seconds, ("run", "trace"), step)
    else:
        for i in range(SETUP_SPAWNS):
            s = spawn(env, args.workload, "setup", work.arg, f"{args.workload}-setup{i}")
            if s["record"] is not None:
                setups.append(s)
        iterate(args.seconds, ("run",), step)
    if not samples["run"] or (args.trace and not samples["trace"]):
        print("error: no iteration completed", file=sys.stderr)
        return 1

    def med(mode, key):
        return statistics.median(s[key] for s in samples[mode])

    if args.trace:
        # one whole traced iteration (the median one), so its self times and
        # trace.unattributed_s add up exactly to its trace.work_s
        traced = sorted(samples["trace"], key=lambda s: s["work_s"])[(len(samples["trace"]) - 1) // 2]
        layers = dict(traced["record"]["layers"])
        layers["trace.overhead_ratio"] = traced["work_s"] / med("run", "work_s")
        metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in layers.items()}
    else:
        values = {name: med("run", name) for name in END_TO_END_UNITS if name != "setup_s"}
        values["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    uncalibrated = {
        name: statistics.median(s["raw"][name] for s in samples["run"])
        for name in ("wall_s", "work_s", "cpu_s")
    }
    uncalibrated["setup_s"] = statistics.median(s["raw"]["setup_s"] for s in setups)
    print(json.dumps({
        "iterations": {mode: len(s) for mode, s in samples.items()},
        "setup_samples": len(setups),
        "fail_ratio": totals["failed"] / max(totals["attempted"], 1),
        "calibration_s": statistics.median(
            c for s in setups for c in s["record"]["calibration_s"]
        ),
        "uncalibrated": uncalibrated,
    }))
    print(json.dumps({
        "correct": totals["failed"] == 0,
        "attempted": totals["attempted"],
        "failed": totals["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
