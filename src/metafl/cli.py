"""Config-driven command-line front end.

Commands:
    metafl run <config> -o <dir> [--no-timing]
    metafl compare <a> <b> -o <dir>
    metafl diagnose <config> -o <dir>

<config> is either a path to a flat key-value file (dotted section keys,
'#' comments, one `key = value` per line) or the name of a shipped
preset. The METAFL_SEED environment variable overrides the top-level
seed. Exit codes: 0 success, 2 config error, 3 runtime numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable

from .aggregator import (
    MetaParams,
    contraction_estimate,
    generalization_bound,
    jensen_gap,
    meta_agg,
)
from .datagen import PartitionConfig
from .federation import (
    AGGREGATOR_MODES,
    ComparisonSummary,
    DataConfig,
    ExperimentConfig,
    RoundRecord,
    build_federation,
    collect_reports,
    compare_runs,
    kl_divergence_diagnostic,
    rounds_to_target,
    run_rounds,
    shares_data_setup,
)
from .metafeatures import FEATURE_FIELDS, CompositeErrorConfig
from .models import ModelSpec, TrainConfig, init_params
from .numerics import derive_seed, make_rng

__all__ = ["ConfigError", "load_config", "serialize_config", "PRESETS", "main"]

CONTRACTION_SAMPLES = 200

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


class ConfigError(Exception):
    """Raised for any config parse or validation problem (exit code 2)."""


# ----------------------------------------------------------------------
# config file parsing
# ----------------------------------------------------------------------

_REQUIRED = object()


def _parse_raw(text: str) -> dict[str, str]:
    raw: dict[str, str] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {line_no}: empty key")
        if key in raw:
            raise ConfigError(f"line {line_no}: duplicate key '{key}'")
        raw[key] = value
    return raw


def _take(raw: dict[str, str], key: str, parse: Callable[[str], object], default=_REQUIRED):
    if key not in raw:
        if default is _REQUIRED:
            raise ConfigError(f"missing required key '{key}'")
        return default
    value = raw.pop(key)
    try:
        return parse(value)
    except ConfigError:
        raise
    except Exception as err:
        raise ConfigError(f"invalid value for key '{key}': {err}") from None


def _as_int(value: str) -> int:
    return int(value)


def _as_float(value: str) -> float:
    return float(value)


def _as_bool(value: str) -> bool:
    low = value.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"expected true/false, got {value!r}")


def _as_floats(value: str) -> tuple[float, ...]:
    if not value:
        return ()
    return tuple(float(part.strip()) for part in value.split(","))


def _as_ints(value: str) -> tuple[int, ...]:
    if not value:
        return ()
    return tuple(int(part.strip()) for part in value.split(","))


def build_config(raw: dict[str, str], seed_override: int | None = None) -> ExperimentConfig:
    """Assemble and validate an ExperimentConfig from raw key-value pairs."""
    raw = dict(raw)
    seed = _take(raw, "seed", _as_int, 0)
    if seed_override is not None:
        seed = seed_override
    rounds = _take(raw, "rounds", _as_int)
    mode = _take(raw, "aggregator", str, "metafl_closed")
    if mode not in AGGREGATOR_MODES:
        raise ConfigError(f"invalid value for key 'aggregator': must be one of {AGGREGATOR_MODES}")
    alpha_grid = _take(raw, "alpha_grid", _as_floats, ())
    target_accuracy = _take(raw, "target_accuracy", _as_float, 0.9)
    log_h = _take(raw, "diagnostics.log_h", _as_float, 1.0)

    def section(name, builder, fields):
        kwargs = {key: _take(raw, f"{name}.{key}", parse, default) for key, parse, default in fields}
        try:
            return builder(**kwargs)
        except (ValueError, TypeError) as err:
            raise ConfigError(f"invalid '{name}.*' section: {err}") from None

    spec = section(
        "model",
        ModelSpec,
        [
            ("input_dim", _as_int, 2),
            ("hidden_dim", _as_int, 0),
            ("num_classes", _as_int, 2),
            ("activation", str, "relu"),
        ],
    )
    data = section(
        "data",
        DataConfig,
        [
            ("n_samples", _as_int, 400),
            ("spread", _as_float, 0.5),
            ("global_val_fraction", _as_float, 0.2),
            ("csv_path", str, None),
        ],
    )
    partition = section(
        "partition",
        PartitionConfig,
        [
            ("num_clients", _as_int, _REQUIRED),
            ("dirichlet_beta", _as_float, 1.0),
            ("val_fraction", _as_float, 0.2),
            ("noise_clients", lambda v: frozenset(_as_ints(v)), frozenset()),
            ("label_noise_rate", _as_float, 0.0),
            ("seed", _as_int, derive_seed(seed, 101)),
        ],
    )
    train = section(
        "train",
        TrainConfig,
        [
            ("learning_rate", _as_float, 0.1),
            ("epochs", _as_int, 1),
            ("batch_size", _as_int, 32),
            ("seed", _as_int, derive_seed(seed, 102)),
            ("l2", _as_float, 0.0),
        ],
    )
    coeffs = _take(raw, "meta.c", _as_floats, tuple(0.0 for _ in FEATURE_FIELDS))
    normalize = _take(raw, "meta.normalize", _as_bool, True)
    try:
        composite = CompositeErrorConfig(c=coeffs, normalize=normalize)
    except ValueError as err:
        raise ConfigError(f"invalid value for key 'meta.c': {err}") from None
    meta_kwargs = dict(
        alpha=_take(raw, "meta.alpha", _as_float, 1.0),
        lam=_take(raw, "meta.lambda", _as_float, 0.0),
        eta=_take(raw, "meta.eta", _as_float, 0.1),
        max_iters=_take(raw, "meta.max_iters", _as_int, 500),
        tol=_take(raw, "meta.tol", _as_float, 1e-10),
        c=composite,
    )
    tau = _take(raw, "meta.tau", _as_float, None)
    if tau is not None:
        meta_kwargs["tau"] = tau
    try:
        meta = MetaParams(**meta_kwargs)
    except ValueError as err:
        raise ConfigError(f"invalid 'meta.*' section: {err}") from None
    if raw:
        raise ConfigError(f"unknown key '{sorted(raw)[0]}'")
    try:
        return ExperimentConfig(
            spec=spec,
            partition=partition,
            train=train,
            meta=meta,
            data=data,
            rounds=rounds,
            aggregator_mode=mode,
            alpha_grid=alpha_grid,
            seed=seed,
            target_accuracy=target_accuracy,
            log_h=log_h,
        )
    except ValueError as err:
        raise ConfigError(str(err)) from None


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical key-value form; parsing it back gives an equal config."""
    lines = [
        f"seed = {cfg.seed}",
        f"rounds = {cfg.rounds}",
        f"aggregator = {cfg.aggregator_mode}",
    ]
    if cfg.alpha_grid:
        lines.append("alpha_grid = " + ",".join(repr(a) for a in cfg.alpha_grid))
    lines += [
        f"target_accuracy = {cfg.target_accuracy!r}",
        f"diagnostics.log_h = {cfg.log_h!r}",
        f"model.input_dim = {cfg.spec.input_dim}",
        f"model.hidden_dim = {cfg.spec.hidden_dim}",
        f"model.num_classes = {cfg.spec.num_classes}",
        f"model.activation = {cfg.spec.activation}",
        f"data.n_samples = {cfg.data.n_samples}",
        f"data.spread = {cfg.data.spread!r}",
        f"data.global_val_fraction = {cfg.data.global_val_fraction!r}",
    ]
    if cfg.data.csv_path is not None:
        lines.append(f"data.csv_path = {cfg.data.csv_path}")
    lines += [
        f"partition.num_clients = {cfg.partition.num_clients}",
        f"partition.dirichlet_beta = {cfg.partition.dirichlet_beta!r}",
        f"partition.val_fraction = {cfg.partition.val_fraction!r}",
    ]
    if cfg.partition.noise_clients:
        lines.append(
            "partition.noise_clients = "
            + ",".join(str(c) for c in sorted(cfg.partition.noise_clients))
        )
    lines += [
        f"partition.label_noise_rate = {cfg.partition.label_noise_rate!r}",
        f"partition.seed = {cfg.partition.seed}",
        f"train.learning_rate = {cfg.train.learning_rate!r}",
        f"train.epochs = {cfg.train.epochs}",
        f"train.batch_size = {cfg.train.batch_size}",
        f"train.seed = {cfg.train.seed}",
        f"train.l2 = {cfg.train.l2!r}",
        f"meta.alpha = {cfg.meta.alpha!r}",
        f"meta.lambda = {cfg.meta.lam!r}",
    ]
    if cfg.meta.tau is not None:
        lines.append(f"meta.tau = {cfg.meta.tau!r}")
    lines += [
        f"meta.eta = {cfg.meta.eta!r}",
        f"meta.max_iters = {cfg.meta.max_iters}",
        f"meta.tol = {cfg.meta.tol!r}",
        "meta.c = " + ",".join(repr(v) for v in cfg.meta.c.c),
        f"meta.normalize = {'true' if cfg.meta.c.normalize else 'false'}",
    ]
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# presets
# ----------------------------------------------------------------------

_NOISY_BASE = {
    "rounds": "20",
    "aggregator": "metafl_closed",
    "alpha_grid": "0,1,2,5,10",
    "model.input_dim": "5",
    "model.num_classes": "2",
    "data.n_samples": "4000",
    "data.spread": "0.7",
    "data.global_val_fraction": "0.25",
    "partition.num_clients": "8",
    "partition.dirichlet_beta": "0.5",
    "partition.val_fraction": "0.3",
    "partition.noise_clients": "0,1",
    "partition.label_noise_rate": "0.4",
    "train.learning_rate": "0.05",
    "train.epochs": "3",
}

_IID_BASE = {
    "rounds": "10",
    "aggregator": "metafl_closed",
    "alpha_grid": "0,1,2,5,10",
    "model.input_dim": "10",
    "model.num_classes": "5",
    "data.n_samples": "2000",
    "data.spread": "0.7",
    "partition.num_clients": "8",
    "partition.dirichlet_beta": "1000000.0",
    "train.learning_rate": "0.2",
    "train.batch_size": "64",
}

_SKEW_BASE = {
    "rounds": "20",
    "aggregator": "metafl_closed",
    "alpha_grid": "0,1,2,5,10",
    "model.input_dim": "5",
    "model.num_classes": "3",
    "data.n_samples": "2400",
    "data.spread": "0.8",
    "partition.num_clients": "8",
    "partition.dirichlet_beta": "0.1",
    "train.learning_rate": "0.05",
    "train.epochs": "2",
}

#: Named configs runnable in place of a file path; the *_fedavg twins
#: share the data setup of their namesake for compare runs.
PRESETS: dict[str, dict[str, str]] = {
    "preset_noisy_clients": dict(_NOISY_BASE),
    "preset_noisy_clients_fedavg": {**_NOISY_BASE, "aggregator": "fedavg"},
    "preset_iid": dict(_IID_BASE),
    "preset_iid_fedavg": {**_IID_BASE, "aggregator": "fedavg"},
    "preset_skew": dict(_SKEW_BASE),
    "preset_skew_fedavg": {**_SKEW_BASE, "aggregator": "fedavg"},
}


def _seed_override() -> int | None:
    value = os.environ.get("METAFL_SEED")
    if value is None:
        return None
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"METAFL_SEED must be an integer, got {value!r}") from None


def load_config(path_or_preset: str) -> ExperimentConfig:
    """Read a config file or preset name into a validated ExperimentConfig."""
    if path_or_preset in PRESETS and not os.path.exists(path_or_preset):
        raw = dict(PRESETS[path_or_preset])
    else:
        try:
            text = Path(path_or_preset).read_text(encoding="utf-8")
        except OSError as err:
            raise ConfigError(f"cannot read config {path_or_preset!r}: {err}") from None
        raw = _parse_raw(text)
    return build_config(raw, _seed_override())


# ----------------------------------------------------------------------
# output writers
# ----------------------------------------------------------------------


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


def write_rounds_csv(history: list[RoundRecord], path: Path, include_timing: bool) -> None:
    k = len(history[0].weights)
    header = ["round", "alpha_used", "global_val_loss", "global_val_accuracy", "phi_value"]
    header += [f"w_{i}" for i in range(k)]
    header += [f"client_val_loss_{i}" for i in range(k)]
    if include_timing:
        header.append("wall_ms")
    lines = [",".join(header)]
    for rec in history:
        cells = [
            str(rec.round),
            _fmt(rec.alpha_used),
            _fmt(rec.global_val_loss),
            _fmt(rec.global_val_accuracy),
            _fmt(rec.phi_value),
        ]
        cells += [_fmt(w) for w in rec.weights.weights]
        cells += [_fmt(v) for v in rec.per_client_val_loss]
        if include_timing:
            cells.append(str(rec.wall_ms))
        lines.append(",".join(cells))
    _write(path, "\n".join(lines) + "\n")


def _or_not_reached(rounds: int | None):
    return "not_reached" if rounds is None else rounds


def _summary_payload(cfg: ExperimentConfig, history, clients) -> dict:
    final = history[-1]
    mp = cfg.meta
    if cfg.aggregator_mode != "fedavg":
        mp = replace(mp, alpha=final.alpha_used, tau=None)
    contraction = contraction_estimate(
        list(final.per_client_val_loss), mp, CONTRACTION_SAMPLES, make_rng([cfg.seed, 4])
    )
    kl = kl_divergence_diagnostic([train for train, _ in clients], cfg.spec.num_classes)
    m_total = sum(train.n for train, _ in clients)
    return {
        "terminal_accuracy": final.global_val_accuracy,
        "terminal_loss": final.global_val_loss,
        "rounds_to_target": _or_not_reached(rounds_to_target(history, cfg.target_accuracy)),
        "weights_final": [float(w) for w in final.weights.weights],
        "alpha_final": final.alpha_used,
        "contraction_estimate": contraction,
        "kl_diagnostic": kl,
        "generalization_bound": generalization_bound(cfg.log_h, m_total, kl),
    }


def _write_json(path: Path, payload: dict) -> None:
    _write(path, json.dumps(payload, indent=2) + "\n")


def write_compare_csv(summary: ComparisonSummary, path: Path) -> None:
    cell_a = str(_or_not_reached(summary.rounds_to_target_a))
    cell_b = str(_or_not_reached(summary.rounds_to_target_b))
    header = [
        "round",
        "global_val_loss_a",
        "global_val_accuracy_a",
        "global_val_loss_b",
        "global_val_accuracy_b",
        "accuracy_diff",
        "rounds_to_target_a",
        "rounds_to_target_b",
    ]
    lines = [",".join(header)]
    for rnd, loss_a, acc_a, loss_b, acc_b in summary.rows:
        lines.append(
            ",".join(
                [
                    str(rnd),
                    _fmt(loss_a),
                    _fmt(acc_a),
                    _fmt(loss_b),
                    _fmt(acc_b),
                    _fmt(acc_a - acc_b),
                    cell_a,
                    cell_b,
                ]
            )
        )
    _write(path, "\n".join(lines) + "\n")


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------


def _prepare_out_dir(out_dir: str) -> Path:
    path = Path(out_dir)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"cannot create output directory {out_dir!r}: {err}") from None
    return path


def cmd_run(config_path: str, out_dir: str, no_timing: bool = False) -> int:
    """Run one experiment; write rounds.csv, summary.json, config_echo.txt."""
    try:
        cfg = load_config(config_path)
        out = _prepare_out_dir(out_dir)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        clients, global_val = build_federation(cfg)
        theta0 = init_params(cfg.spec, derive_seed(cfg.seed, 2))
        _, history = run_rounds(cfg, clients, global_val, theta0)
        write_rounds_csv(history, out / "rounds.csv", include_timing=not no_timing)
        _write_json(out / "summary.json", _summary_payload(cfg, history, clients))
        _write(out / "config_echo.txt", serialize_config(cfg))
    except Exception as err:
        print(f"runtime error: {err}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_compare(config_a: str, config_b: str, out_dir: str) -> int:
    """Run two data-matched configs; write compare.csv and compare_summary.json."""
    try:
        cfg_a = load_config(config_a)
        cfg_b = load_config(config_b)
        if not shares_data_setup(cfg_a, cfg_b):
            raise ConfigError("configs must share data setup")
        out = _prepare_out_dir(out_dir)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        summary = compare_runs(cfg_a, cfg_b)
        write_compare_csv(summary, out / "compare.csv")
        if summary.terminal_accuracy_diff > 0:
            winner = "a"
        elif summary.terminal_accuracy_diff < 0:
            winner = "b"
        else:
            winner = "tie"
        _write_json(
            out / "compare_summary.json",
            {
                "terminal_accuracy_a": summary.terminal_accuracy_a,
                "terminal_accuracy_b": summary.terminal_accuracy_b,
                "terminal_accuracy_diff": summary.terminal_accuracy_diff,
                "mean_accuracy_diff": summary.mean_accuracy_diff,
                "target_accuracy": summary.target_accuracy,
                "rounds_to_target_a": _or_not_reached(summary.rounds_to_target_a),
                "rounds_to_target_b": _or_not_reached(summary.rounds_to_target_b),
                "winner": winner,
            },
        )
    except Exception as err:
        print(f"runtime error: {err}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_diagnose(config_path: str, out_dir: str) -> int:
    """Probe fixed-point, convexity, and divergence diagnostics on a
    seeded one-round instance; write diagnostics.json."""
    try:
        cfg = load_config(config_path)
        out = _prepare_out_dir(out_dir)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        clients, global_val = build_federation(cfg)
        theta0 = init_params(cfg.spec, derive_seed(cfg.seed, 2))
        # The probe aggregates in closed form whatever the config's mode,
        # so its reports carry the features that form weights.
        closed = replace(cfg, aggregator_mode="metafl_closed")
        reports = collect_reports(closed, clients, theta0, 1)
        outcome = meta_agg(reports, cfg.meta, "closed_form")
        contraction = contraction_estimate(
            list(outcome.errors_E), cfg.meta, CONTRACTION_SAMPLES, make_rng([cfg.seed, 4])
        )
        gap = jensen_gap(
            cfg.spec, [r.theta_k for r in reports], outcome.weights, global_val
        )
        kl = kl_divergence_diagnostic([train for train, _ in clients], cfg.spec.num_classes)
        m_total = sum(train.n for train, _ in clients)
        _write_json(
            out / "diagnostics.json",
            {
                "contraction_estimate": contraction,
                "jensen_gap": gap,
                "kl_diagnostic": kl,
                "generalization_bound": generalization_bound(cfg.log_h, m_total, kl),
                "eta": cfg.meta.eta,
                "tau": cfg.meta.resolved_tau(),
                "m": m_total,
                "log_h": cfg.log_h,
            },
        )
    except Exception as err:
        print(f"runtime error: {err}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="metafl",
        description="Deterministic federated-learning simulator with a "
        "meta-feature-driven aggregation optimizer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment")
    p_run.add_argument("config", help="config file path or preset name")
    p_run.add_argument("-o", "--out", required=True, help="output directory")
    p_run.add_argument(
        "--no-timing", action="store_true", help="omit wall-clock columns for golden files"
    )

    p_cmp = sub.add_parser("compare", help="run two configs on identical data")
    p_cmp.add_argument("config_a", help="config file path or preset name")
    p_cmp.add_argument("config_b", help="config file path or preset name")
    p_cmp.add_argument("-o", "--out", required=True, help="output directory")

    p_diag = sub.add_parser("diagnose", help="write theory diagnostics for a config")
    p_diag.add_argument("config", help="config file path or preset name")
    p_diag.add_argument("-o", "--out", required=True, help="output directory")

    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config, args.out, args.no_timing)
    if args.command == "compare":
        return cmd_compare(args.config_a, args.config_b, args.out)
    return cmd_diagnose(args.config, args.out)


if __name__ == "__main__":
    sys.exit(main())
