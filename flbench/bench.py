"""Measure metafl on one workload, end to end or per layer.

Usage (normally started by run.py, which pins BLAS to one thread and
puts ``src`` on the import path):

    python3 flbench/bench.py --workload NAME --seed N --seconds S --trace 0|1

An *experiment* is the pipeline ``metafl run --no-timing`` performs for
one config file: cli.load_config -> federation.build_federation ->
models.init_params -> federation.run_rounds -> cli.write_rounds_csv,
called through the module attributes so the tracer's wrappers apply.
An *operation* is one experiment per arm of the workload on one config
seed (on paper_noisy, the metafl run and its FedAvg twin). Operations
cycle over the workload's config seeds, so every config repeats and its
rounds.csv digest can be compared with its first repetition.

With tracing off, every operation is also run by ``refmetafl``, a frozen
copy of the program as it stood when this benchmark was written, in a
second process pinned to the same CPU; see REFERENCE below.

The last line of stdout is the result object; the line before it holds
the environment, the sample count behind each figure and, with tracing
off, the raw time figures of both programs.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import importlib
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from spans import Tracer, layer_totals

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".flbench_work"
# The benchmark's own tolerance for weights summing to 1, kept apart from
# the program's so that loosening the program's check does not loosen this.
SIMPLEX_TOL = 1e-9
# REFERENCE: the 2-vCPU host this benchmark was written on switches, every
# few seconds to minutes, between a fast state and one up to 2x slower,
# with no steal time: the CPU time of fixed work grows too, and by how much
# depends on the kind of work and on the period, so no fixed calibration
# loop tracks it. So each timed operation is run twice, back to back on
# the same CPU: by the program under test and by refmetafl, a frozen copy
# of the program. Time metrics are the program's median ratio to the copy,
# times the copy's own figure in the host's fast state, which each
# workload records under "reference" in workloads.json. They read in
# seconds at that speed and move only when the program's speed does.

END_TO_END = {
    "setup_s": "s",
    "experiment_s": "s",
    "client_rounds_per_s": "1/s",
    "peak_rss_mb": "MB",
    "terminal_accuracy": "fraction",
    "ok_ops_frac": "fraction",
}

# Time metrics are medians over traced operations, counts are means over
# them (counts are exact, and a mean keeps rare events such as an
# unconverged solve visible), and ratios are taken over all traced work.
# local_loss is split by the caller's layer; from_models is the train-split
# loss pass inside models.evaluate.
PER_LAYER = {
    "models.train_local.calls": "count",
    "models.train_local.self_s": "s",
    "models.train_local.extra_frac": "fraction",
    "models.sgd_steps": "count",
    "models.sgd_samples": "count",
    "models.us_per_sgd_step": "us",
    "models.init_params.self_s": "s",
    "models.evaluate.calls": "count",
    "models.evaluate.self_s": "s",
    "models.evaluate.samples": "count",
    "models.local_loss.from_aggregator.calls": "count",
    "models.local_loss.from_aggregator.self_s": "s",
    "models.local_loss.from_aggregator.samples": "count",
    "models.local_loss.from_metafeatures.calls": "count",
    "models.local_loss.from_metafeatures.self_s": "s",
    "models.local_loss.from_metafeatures.samples": "count",
    "models.local_loss.from_models.calls": "count",
    "models.local_loss.from_models.self_s": "s",
    "models.local_loss.from_models.samples": "count",
    "metafeatures.extract.calls": "count",
    "metafeatures.extract.self_s": "s",
    "metafeatures.extract.incl_s": "s",
    "metafeatures.useful_frac": "fraction",
    "metafeatures.composite_errors.self_s": "s",
    "aggregator.adapt_meta_params.calls": "count",
    "aggregator.adapt_meta_params.incl_s": "s",
    "aggregator.alpha_candidates": "count",
    "aggregator.weights_iterative.calls": "count",
    "aggregator.weights_iterative.self_s": "s",
    "aggregator.solver_iters": "count",
    "aggregator.solver_unconverged": "count",
    "aggregator.meta_agg.self_s": "s",
    "aggregator.aggregate.self_s": "s",
    "numerics.project_simplex.calls": "count",
    "numerics.project_simplex.self_s": "s",
    "numerics.softmax_neg.calls": "count",
    "numerics.softmax_neg.self_s": "s",
    "numerics.weighted_sum.calls": "count",
    "numerics.weighted_sum.self_s": "s",
    "datagen.load_csv.self_s": "s",
    "datagen.load_csv.rows": "count",
    "datagen.make_blobs.self_s": "s",
    "datagen.partition_dirichlet.self_s": "s",
    "datagen.inject_label_noise.self_s": "s",
    "federation.build_federation.self_s": "s",
    "federation.collect_reports.self_s": "s",
    "federation.run_rounds.self_s": "s",
    "cli.load_config.self_s": "s",
    "cli.write_rounds_csv.self_s": "s",
    "trace.overhead_frac": "fraction",
}


def load_workloads() -> dict:
    return json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))


def _merge(base: dict, extra: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


def write_pool(pool: dict, seed: int, path: Path) -> None:
    """Gaussian class blobs with balanced labels, as a headerless CSV in
    the metafl format (features, then a zero-based label)."""
    rng = np.random.default_rng([seed, 7])
    n, dim, classes = pool["n"], pool["dim"], pool["classes"]
    centroids = rng.normal(size=(classes, dim))
    labels = rng.permutation(np.arange(n) % classes)
    features = centroids[labels] + pool["spread"] * rng.normal(size=(n, dim))
    # Written row by row from the arrays, so the pool never exists as Python
    # floats here and peak_rss_mb stays the program's own; %.17g round-trips.
    table = np.column_stack([features, labels])
    np.savetxt(path, table, fmt=["%.17g"] * dim + ["%d"], delimiter=",")


def write_configs(spec: dict, seed: int, work: Path) -> list[list[dict]]:
    """Write one config file per (config seed, arm); return the operations.

    Config seed i of benchmark seed s is 1000 * s + i.
    """
    base = dict(spec["config"])
    if "pool" in spec:
        pool_path = work / "pool.csv"
        write_pool(spec["pool"], seed, pool_path)
        base["data.csv_path"] = str(pool_path)
    ops = []
    for i in range(spec["seeds"]):
        op = []
        for arm, keys in spec["arms"].items():
            raw = {**base, **keys, "seed": str(1000 * seed + i)}
            path = work / f"{arm}-{i}.cfg"
            path.write_text("".join(f"{k} = {v}\n" for k, v in raw.items()), encoding="utf-8")
            op.append({"key": f"{arm}/{i}", "config": path, "out": work / f"{arm}-{i}.csv"})
        ops.append(op)
    return ops


def load_program(package: str) -> SimpleNamespace:
    """The modules of ``package`` that the pipeline calls."""
    names = ("cli", "federation", "models", "numerics")
    return SimpleNamespace(**{n: importlib.import_module(f"{package}.{n}") for n in names})


LIVE = load_program("metafl")


def run_experiment(exp: dict, tracer: Tracer | None = None, program: SimpleNamespace = LIVE) -> dict:
    """One `metafl run --no-timing` pipeline, timed by phase."""
    cli, federation, models, numerics = program.cli, program.federation, program.models, program.numerics
    clock = time.perf_counter
    t0 = clock()
    root = tracer.begin("experiment", t0) if tracer else None
    try:
        cfg = cli.load_config(str(exp["config"]))
        clients, global_val = federation.build_federation(cfg)
        theta0 = models.init_params(cfg.spec, numerics.derive_seed(cfg.seed, 2))
        t1 = clock()
        _, history = federation.run_rounds(cfg, clients, global_val, theta0)
        t2 = clock()
        cli.write_rounds_csv(history, exp["out"], include_timing=False)
        t3 = clock()
    except BaseException:
        if tracer:
            tracer.end(root, clock())
        raise
    run = {"cfg": cfg, "history": history, "setup_s": t1 - t0, "rounds_s": t2 - t1, "wall_s": t3 - t0}
    if tracer:
        tracer.end(root, t3)
        run["spans"] = (root, len(tracer.spans))
    return run


def _reference_worker(conn) -> None:
    program = load_program("refmetafl")
    while (exp := conn.recv()) is not None:
        run = run_experiment(exp, program=program)
        conn.send({k: run[k] for k in ("setup_s", "rounds_s", "wall_s")})


class Reference:
    """A forked process that runs experiments with refmetafl on request.

    The caller waits for each reply, so the two programs never run at once.
    """

    def __init__(self):
        ctx = multiprocessing.get_context("fork")
        self._conn, child = ctx.Pipe()
        self._proc = ctx.Process(target=_reference_worker, args=(child,), daemon=True)
        self._proc.start()
        child.close()

    def run_op(self, op: list[dict]) -> list[dict]:
        runs = []
        for exp in op:
            self._conn.send({**exp, "out": exp["out"].with_name("ref-" + exp["out"].name)})
            runs.append(self._conn.recv())
        return runs

    def close(self) -> None:
        try:
            self._conn.send(None)
        except OSError:  # the worker has already gone
            pass
        self._proc.join(timeout=30)
        if self._proc.is_alive():
            self._proc.kill()
            self._proc.join()


def check_history(history) -> str | None:
    """The reason an experiment's outputs are wrong, or None."""
    for rec in history:
        w = np.asarray(rec.weights.weights)
        if not np.all(np.isfinite(w)) or np.any(w < 0.0) or abs(w.sum() - 1.0) > SIMPLEX_TOL:
            return f"round {rec.round}: weights off the simplex"
        losses = [rec.global_val_loss, rec.phi_value, *rec.per_client_val_loss]
        if not np.all(np.isfinite(losses)):
            return f"round {rec.round}: non-finite loss"
    return None


class Workload:
    """One workload's inputs, its runs and their correctness record."""

    def __init__(self, name: str, seed: int, overrides: dict | None = None):
        specs = load_workloads()
        if name not in specs:
            raise SystemExit(f"unknown workload {name!r}; choose from {sorted(specs)}")
        self.name = name
        self.spec = _merge(specs[name], overrides or {})
        self.expected: dict[str, str] = {}
        if seed == 0 and not overrides:
            digests = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
            self.expected = dict(digests[name])
        self.first: dict[str, str] = {}
        self.accuracy: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0

    def run_op(self, op: list[dict], tracer: Tracer | None = None) -> dict | None:
        """Run and check every experiment of an operation; None if any failed."""
        if tracer:
            tracer.install()
        try:
            runs = []
            for exp in op:
                self.attempted += 1
                try:
                    run = run_experiment(exp, tracer)
                except Exception as err:  # a failed operation, not a crash of the benchmark
                    problem = f"raised {type(err).__name__}: {err}"
                else:
                    problem = check_history(run["history"]) or self._check_digest(exp)
                if problem:
                    self.failed += 1
                    print(f"{self.name} {exp['key']}: {problem}", file=sys.stderr)
                    return None
                if run["cfg"].aggregator_mode != "fedavg":
                    self.accuracy[exp["key"]] = run["history"][-1].global_val_accuracy
                del run["history"]  # checked; holding every run's would slow the collector
                runs.append(run)
            return {"wall_s": sum(r["wall_s"] for r in runs), "runs": runs}
        finally:
            if tracer:
                tracer.uninstall()

    def _check_digest(self, exp: dict) -> str | None:
        digest = hashlib.sha256(exp["out"].read_bytes()).hexdigest()
        first = self.first.setdefault(exp["key"], digest)
        if digest != first:
            return f"rounds.csv sha256 {digest} differs from its first repetition {first}"
        expected = self.expected.get(exp["key"])
        if expected is not None and digest != expected:
            return f"rounds.csv sha256 {digest} differs from the recorded {expected}"
        return None


def measure(name: str, seed: int, seconds: float, trace: bool, overrides: dict | None = None):
    """Run one workload for ``seconds``; return (result line, info)."""
    wl = Workload(name, seed, overrides)
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    work.mkdir(exist_ok=True)
    tracer = Tracer() if trace else None
    reference = None if trace else Reference()
    plain, traced = [], []
    try:
        ops = write_configs(wl.spec, seed, work)
        wl.run_op(ops[0])  # warm-up, not timed
        if reference:
            reference.run_op(ops[0])
        # Untraced runs cover every config seed, so terminal_accuracy is a
        # mean over the same configs on every run. Stop before a lap that
        # would likely end past the deadline.
        min_laps = 1 if trace else len(ops)
        clock = time.perf_counter
        start, laps = clock(), []
        while len(laps) < min_laps or clock() - start + statistics.median(laps) <= seconds:
            lap = clock()
            op = ops[len(laps) % len(ops)]
            plain.append(wl.run_op(op))
            if tracer:
                traced.append(wl.run_op(op, tracer))
            else:
                reference_runs = reference.run_op(op)
                if plain[-1]:
                    plain[-1]["reference"] = reference_runs
            laps.append(clock() - lap)
        if tracer:
            tracer.write(WORK / f"trace-{name}.jsonl")
    finally:
        if reference:
            reference.close()
        shutil.rmtree(work, ignore_errors=True)
    plain = [op for op in plain if op]
    traced = [op for op in traced if op]
    if not plain or (trace and not traced):
        raise SystemExit(f"{name}: every operation failed; nothing to report")
    if trace:
        metrics, details = _per_layer(plain, traced, tracer)
    else:
        metrics, details = _end_to_end(wl, plain)
    result = {
        "correct": wl.failed == 0,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": metrics,
    }
    info = {"workload": name, "seed": seed, "trace": int(trace), **details}
    return result, info


def client_rounds(op: dict) -> int:
    return sum(r["cfg"].rounds * r["cfg"].partition.num_clients for r in op["runs"])


def _time_figures(ops: list[list[dict]], rounds: list[int]) -> dict:
    """Raw medians over operations, each a list of experiment timings."""
    return {
        "setup_s": statistics.median(r["setup_s"] for runs in ops for r in runs),
        "experiment_s": statistics.median(sum(r["wall_s"] for r in runs) for runs in ops),
        "client_rounds_per_s": statistics.median(
            n / sum(r["rounds_s"] for r in runs) for runs, n in zip(ops, rounds)
        ),
    }


def _end_to_end(wl: Workload, ops: list[dict]):
    live, ref = [op["runs"] for op in ops], [op["reference"] for op in ops]
    pairs = [(a, b) for la, lb in zip(live, ref) for a, b in zip(la, lb)]

    def total(runs, key):
        return sum(r[key] for r in runs)

    fast = wl.spec["reference"]
    values = {
        "setup_s": fast["setup_s"] * statistics.median(a["setup_s"] / b["setup_s"] for a, b in pairs),
        "experiment_s": fast["experiment_s"]
        * statistics.median(total(a, "wall_s") / total(b, "wall_s") for a, b in zip(live, ref)),
        "client_rounds_per_s": fast["client_rounds_per_s"]
        * statistics.median(total(b, "rounds_s") / total(a, "rounds_s") for a, b in zip(live, ref)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "terminal_accuracy": statistics.fmean(wl.accuracy.values()),
        "ok_ops_frac": (wl.attempted - wl.failed) / wl.attempted,
    }
    rounds = [client_rounds(op) for op in ops]
    samples = {
        "setup_s": len(pairs),
        "experiment_s": len(ops),
        "client_rounds_per_s": len(ops),
        "terminal_accuracy": len(wl.accuracy),
        "ok_ops_frac": wl.attempted,
    }
    details = {
        "samples": samples,
        "raw": {"metafl": _time_figures(live, rounds), "refmetafl": _time_figures(ref, rounds)},
    }
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}, details


def _per_layer(plain: list[dict], traced: list[dict], tracer: Tracer):
    per_op = []
    for op in traced:
        totals: Counter = Counter()
        for run in op["runs"]:
            figures = layer_totals(tracer.spans, *run["spans"])
            c = run["cfg"].meta.c.c
            extracts = figures.get("metafeatures.extract.calls", 0)
            useful = 0 if run["cfg"].aggregator_mode == "fedavg" else sum(v != 0.0 for v in c)
            figures["metafeatures.values"] = extracts * len(c)
            figures["metafeatures.useful_values"] = extracts * useful
            totals.update(figures)
        per_op.append(totals)
    summed: Counter = Counter()
    for totals in per_op:
        summed.update(totals)

    def ratio(num, den):
        return summed.get(num, 0.0) / summed[den] if summed.get(den) else 0.0

    values = {
        "models.train_local.extra_frac": ratio("models.train_local.extra_calls", "models.train_local.calls"),
        "models.us_per_sgd_step": 1e6 * ratio("models.train_local.self_s", "models.sgd_steps"),
        "metafeatures.useful_frac": ratio("metafeatures.useful_values", "metafeatures.values"),
        "trace.overhead_frac": statistics.median(op["wall_s"] for op in traced)
        / statistics.median(op["wall_s"] for op in plain) - 1.0,
    }
    for name in PER_LAYER:
        if name in values:
            continue
        column = [t.get(name, 0.0) for t in per_op]
        values[name] = statistics.median(column) if name.endswith("_s") else statistics.fmean(column)
    metrics = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}
    return metrics, {"samples": {"traced_ops": len(traced), "untraced_ops": len(plain)}}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # One CPU for this process and the reference it forks, so both programs
    # see the same core and its state.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    result, info = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    info["env"] = environment()
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
