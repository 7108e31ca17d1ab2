"""Reduced-size self-test of the benchmark runner.

    python3 flbench/selftest.py

Runs every workload shrunk to a few clients and rounds, with tracing off
and on, and checks that each end-to-end and per-layer metric named in
BENCHMARK.json is emitted with its unit; that a rounds.csv differing from
its first repetition, or from a recorded digest, counts as a failed
operation; and that the launcher prints no result and fails in a
directory without the program. Exits 0 when every check passes; the two
digest mismatches it provokes on purpose are reported on stderr.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Small enough that each workload runs in a second or two.
REDUCED = {
    "paper_noisy": {"seeds": 2, "config": {"rounds": "2", "data.n_samples": "800"}},
    "wide_cohort": {
        "seeds": 2,
        "pool": {"n": 1200},
        "config": {"rounds": "2", "partition.num_clients": "10", "partition.noise_clients": "0,5"},
    },
    "holdout_search": {"seeds": 2, "config": {"rounds": "2", "data.n_samples": "2000"}},
}

failures: list[str] = []


def check(ok: bool, message: str) -> None:
    print(("ok   " if ok else "FAIL ") + message)
    if not ok:
        failures.append(message)


def check_result(result: dict, expected: list[dict], label: str) -> None:
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          f"{label}: no failed operations")
    units = {m["name"]: m["unit"] for m in expected}
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    check(emitted == units, f"{label}: metric names and units match BENCHMARK.json")
    check(all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
              for v in result["metrics"].values()), f"{label}: metric values are finite numbers")


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import bench
    from metafl import cli

    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check([w["name"] for w in contract["workloads"]] == list(REDUCED),
          "BENCHMARK.json names the three workloads")
    for name, reduced in REDUCED.items():
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result, _ = bench.measure(name, 0, 0.0, trace, reduced)
            check_result(result, contract[key], f"{name} trace={int(trace)}")
            if trace:
                m = result["metrics"]
                check(m["models.train_local.extra_frac"]["value"] == 0.75,
                      f"{name}: three of four train_local calls come from extract")

    original = cli.write_rounds_csv
    calls = []

    def perturbed(history, path, include_timing):
        original(history, path, include_timing)
        calls.append(path)
        if len(calls) == 3:  # the first timed repetition of the warm-up's config
            path.write_bytes(path.read_bytes().replace(b"0", b"1", 1))

    cli.write_rounds_csv = perturbed
    try:
        result, _ = bench.measure("paper_noisy", 0, 0.0, False, REDUCED["paper_noisy"])
    finally:
        cli.write_rounds_csv = original
    check(result["failed"] == 1 and not result["correct"],
          "a perturbed rounds.csv counts as one failed operation")

    wl = bench.Workload("holdout_search", 0, REDUCED["holdout_search"])
    bench.WORK.mkdir(exist_ok=True)
    work = bench.WORK / "selftest-digest"
    work.mkdir(exist_ok=True)
    try:
        ops = bench.write_configs(wl.spec, 0, work)
        wl.expected = {"metafl/0": "0" * 64}
        check(wl.run_op(ops[0]) is None and wl.failed == 1,
              "a rounds.csv that differs from its recorded digest counts as failed")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    bare = bench.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "paper_noisy",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and not proc.stdout,
          "without the program the launcher fails and prints no result")

    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
