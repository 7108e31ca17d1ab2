"""Outside-in span tracing of metafl's public functions.

The tracer wraps each function named in ``TRACED`` and rebinds the
wrapper in every ``metafl.*`` namespace that holds the original, because
the package binds names with ``from .x import y``: rebinding only the
defining module would miss ``federation.train_local`` and the like.
Nothing inside the program changes, and with the wrappers removed the
program runs exactly as shipped.

A span is ``[name, start, end, parent, counts]``; spans stay in memory in
call order and are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time

#: Layer -> public functions wrapped when tracing is on.
TRACED = {
    "numerics": ("project_simplex", "softmax_neg", "weighted_sum"),
    "models": ("init_params", "train_local", "evaluate", "local_loss"),
    "datagen": ("load_csv", "make_blobs", "partition_dirichlet", "inject_label_noise"),
    "metafeatures": ("extract", "composite_errors"),
    "aggregator": ("adapt_meta_params", "meta_agg", "weights_iterative", "aggregate"),
    "federation": ("build_federation", "collect_reports", "run_rounds"),
    "cli": ("load_config", "write_rounds_csv"),
}

NAME, START, END, PARENT, COUNTS = range(5)

#: Largest share of an experiment's wall time its traced calls may leave
#: uncovered; the benchmark's glue between them takes microseconds.
UNTRACED_MAX = 0.05


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _sgd_counts(args, kwargs, result):
    data, cfg = _arg(args, kwargs, 2, "data"), _arg(args, kwargs, 3, "cfg")
    batches = math.ceil(data.n / cfg.batch_size)
    return {"models.sgd_steps": cfg.epochs * batches, "models.sgd_samples": cfg.epochs * data.n}


def _data_samples(span):
    def count(args, kwargs, result):
        return {f"{span}.samples": _arg(args, kwargs, 2, "data").n}
    return count


def _solver_counts(args, kwargs, result):
    _, iters, residual = result
    tol = _arg(args, kwargs, 1, "mp").tol
    return {"aggregator.solver_iters": iters, "aggregator.solver_unconverged": int(residual >= tol)}


def _candidates(args, kwargs, result):
    return {"aggregator.alpha_candidates": len(_arg(args, kwargs, 1, "candidates_alpha"))}


def _rows(args, kwargs, result):
    return {"datagen.load_csv.rows": result.n}


#: Span name -> counts recorded from its arguments and result, keyed by the
#: per-layer metric they add to.
COUNTERS = {
    "models.train_local": _sgd_counts,
    "models.evaluate": _data_samples("models.evaluate"),
    "models.local_loss": _data_samples("models.local_loss"),
    "aggregator.weights_iterative": _solver_counts,
    "aggregator.adapt_meta_params": _candidates,
    "datagen.load_csv": _rows,
}


class Tracer:
    """Installs and removes span wrappers; owns the recorded spans."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]
        self._wrappers: dict[str, tuple[object, object]] = {}
        self._bound: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1], None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if count is not None:
                rec[COUNTS] = count(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Rebind every traced function in all loaded metafl modules."""
        if self._bound:
            raise RuntimeError("tracer already installed")
        if not self._wrappers:
            for layer, names in TRACED.items():
                module = importlib.import_module(f"metafl.{layer}")
                for fn_name in names:
                    original = getattr(module, fn_name)
                    span = f"{layer}.{fn_name}"
                    self._wrappers[span] = (original, self._wrap(span, original))
        by_id = {id(orig): wrapper for orig, wrapper in self._wrappers.values()}
        modules = [m for n, m in sys.modules.items() if n == "metafl" or n.startswith("metafl.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = by_id.get(id(value))
                if wrapper is not None:
                    self._bound.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        """Restore the original functions everywhere they were rebound."""
        for module, attr, original in self._bound:
            setattr(module, attr, original)
        self._bound.clear()

    def begin(self, name: str, start: float) -> int:
        """Open a span that the program did not make, such as an experiment."""
        idx = len(self.spans)
        self.spans.append([name, start, start, self._stack[-1], None])
        self._stack.append(idx)
        return idx

    def end(self, idx: int, end: float) -> None:
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")
        self.spans[idx][END] = end

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for i, rec in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": i, "name": rec[NAME], "start": rec[START], "end": rec[END],
                    "parent": rec[PARENT], **(rec[COUNTS] or {}),
                }) + "\n")


def self_times(spans: list[list], lo: int, hi: int) -> list[float]:
    """Self time of each span in spans[lo:hi]: its duration minus the
    durations of its direct children."""
    out = [rec[END] - rec[START] for rec in spans[lo:hi]]
    for rec in spans[lo:hi]:
        if rec[PARENT] >= lo:
            out[rec[PARENT] - lo] -= rec[END] - rec[START]
    return out


def layer_totals(spans: list[list], lo: int, hi: int) -> dict[str, float]:
    """Per-layer figures of one traced experiment, spans[lo:hi], whose
    root is spans[lo].

    Raises ValueError when a span does not lie within its parent's
    interval, or when the root's own time, the part of the experiment that
    no traced function covers, exceeds UNTRACED_MAX of its wall time.
    """
    for rec in spans[lo + 1:hi]:
        parent = spans[rec[PARENT]]
        if not parent[START] <= rec[START] <= rec[END] <= parent[END]:
            raise ValueError(f"span {rec[NAME]} lies outside its parent {parent[NAME]}")
    selfs = self_times(spans, lo, hi)
    root = spans[lo]
    wall = root[END] - root[START]
    if selfs[0] > UNTRACED_MAX * wall:
        raise ValueError(f"{selfs[0]:.4f} s of a {wall:.4f} s experiment is untraced")
    out: dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0.0) + value

    for rec, self_s in zip(spans[lo + 1:hi], selfs[1:]):
        name = rec[NAME]
        parent = spans[rec[PARENT]][NAME]
        add(f"{name}.calls", 1)
        add(f"{name}.self_s", self_s)
        add(f"{name}.incl_s", rec[END] - rec[START])
        for key, value in (rec[COUNTS] or {}).items():
            add(key, value)
        if name == "models.local_loss":
            caller = parent.split(".", 1)[0]
            add(f"{name}.from_{caller}.calls", 1)
            add(f"{name}.from_{caller}.self_s", self_s)
            add(f"{name}.from_{caller}.samples", rec[COUNTS][f"{name}.samples"])
        if name == "models.train_local" and parent == "metafeatures.extract":
            add("models.train_local.extra_calls", 1)
    return out
