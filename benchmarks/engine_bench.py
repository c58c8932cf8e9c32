#!/usr/bin/env python3
"""Time representative workloads under both polynomial engines.

The package selects the Kronecker block engine by default and the plain
dict engine when QFIB_NO_FAST=1; this script runs each workload in a fresh
interpreter per engine so caches cannot leak between runs.

Usage: python3 benchmarks/engine_bench.py
"""

import os
import subprocess
import sys

WORKLOADS = {
    "det_table(4)": "from qfib.harness import det_table; det_table(4)",
    "det_table(5)": "from qfib.harness import det_table; det_table(5)",
    "conj2 k=2 ell=3 n=3..7": (
        "from qfib.harness import residual;"
        "[residual('conj2', n=n, k=2, ell=3) for n in range(3, 8)]"
    ),
    "conj1_f k=3 n=-3..8": (
        "from qfib.harness import residual;"
        "[residual('conj1_f', n=n, k=3) for n in range(-3, 9)]"
    ),
    "qfib(40)**3": "from qfib.sequences import qfib; qfib(40)**3",
    "qfib(60)**2": "from qfib.sequences import qfib; qfib(60)**2",
    "verify all --jobs 1": (
        "import os; from qfib.cli import main;"
        "main(['verify', 'all', '--jobs', '1', '--out', os.devnull])"
    ),
    "verify all --jobs 2": (
        "import os; from qfib.cli import main;"
        "main(['verify', 'all', '--jobs', '2', '--out', os.devnull])"
    ),
}

CODE = """
import time
t0 = time.perf_counter()
{stmt}
print(f"{{time.perf_counter() - t0:.3f}}")
"""


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_one(stmt: str, naive: bool) -> float:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env.pop("QFIB_NO_FAST", None)
    if naive:
        env["QFIB_NO_FAST"] = "1"
    out = subprocess.run(
        [sys.executable, "-c", CODE.format(stmt=stmt)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return float(out.stdout.strip())


def main() -> None:
    print(f"{'workload':<28} {'fast':>8} {'naive':>8} {'speedup':>8}")
    for name, stmt in WORKLOADS.items():
        fast = run_one(stmt, naive=False)
        naive = run_one(stmt, naive=True)
        print(f"{name:<28} {fast:>7.3f}s {naive:>7.3f}s {naive / fast:>7.1f}x")


if __name__ == "__main__":
    main()
