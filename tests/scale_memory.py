"""Check set-up and server evaluation memory at K = 3000 clients.

wide_cohort's config on a synthetic pool of 100·K = 300,000 rows, closed
form, seed 0. Prints set_up's kept bytes and its tracemalloc peak, and
evaluate's peak above its start on the 60,000-row holdout; exits 1 when
a peak passes the tier-1 bound (testkit.SETUP_PEAK_BOUND for a synthetic
pool, testkit.EVALUATE_PEAK_BOUND), or when set_up holds more than it
returns. Takes about a second:

    PYTHONPATH=src python tests/scale_memory.py
"""

from __future__ import annotations

import sys

from metafl.federation import set_up
from metafl.models import evaluate
from testkit import (
    EVALUATE_PEAK_BOUND, SETUP_PEAK_BOUND, kept_bytes, traced, wide_cohort_config,
)

K = 3000
MB = 1024 * 1024
HELD_SLACK = 64 * 1024  # set_up's own Python objects


def main() -> int:
    cfg = wide_cohort_config(K)
    set_up(wide_cohort_config(30))  # pays one-off imports and caches outside the count
    fed, held, peak = traced(lambda: set_up(cfg))
    kept = kept_bytes(fed)
    (_, _), holdout, theta0 = fed
    eval_peak = traced(lambda: evaluate(cfg.spec, theta0, holdout))[2]
    print(f"K = {K}: set_up keeps {kept / MB:.1f} MiB and holds {held / MB:.1f} MiB; "
          f"its peak is {peak / MB:.1f} MiB, {peak / kept:.2f} times the kept bytes "
          f"(bound {SETUP_PEAK_BOUND['synthetic']})")
    print(f"evaluate on {holdout.n} rows: peak {eval_peak / MB:.2f} MiB above its start "
          f"(bound {EVALUATE_PEAK_BOUND / MB:.2f})")
    failures = []
    if held - kept > HELD_SLACK:
        failures.append(f"set_up holds {(held - kept) / MB:.1f} MiB beside what it returns")
    if peak > SETUP_PEAK_BOUND["synthetic"] * kept:
        failures.append("set_up's peak passes its bound")
    if eval_peak >= EVALUATE_PEAK_BOUND:
        failures.append("evaluate's peak passes its bound")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
