"""Benchmark entry point: run one metafl workload in a child process.

    python3 flbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The child (bench.py) gets BLAS, OpenMP and MKL pinned to one thread and
``src`` on its import path; nothing is installed. Its stdout is passed
through, and the last line is the result object. With ``--trace 0`` the
result holds the end-to-end metrics, with ``--trace 1`` the per-layer
ones. If the child fails or the checkout lacks the program, this exits
with the child's nonzero code and prints no result.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 170
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def main(argv: list[str]) -> int:
    env = dict(os.environ, **PINNED)
    env.pop("METAFL_SEED", None)  # it would override every config seed
    env["PYTHONPATH"] = str(ROOT / "src")  # the checkout's program, nothing else
    try:
        child = subprocess.run(
            [sys.executable, str(HERE / "bench.py"), *argv],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"benchmark child exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if child.returncode != 0:
        return child.returncode
    lines = child.stdout.splitlines()
    if not lines or set(json.loads(lines[-1])) != RESULT_KEYS:
        print("benchmark child printed no result", file=sys.stderr)
        return 1
    print(child.stdout, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
