"""Config-driven command-line front end.

Commands:
    metafl run <config> -o <dir> [--no-timing]
    metafl compare <a> <b> -o <dir>
    metafl diagnose <config> -o <dir>

<config> is either a path to a flat key-value file (dotted section keys,
'#' comments, one `key = value` per line) or the name of a shipped
preset. The METAFL_SEED environment variable overrides the top-level
seed. Exit codes: 0 success, 2 config error (an output path that cannot
be created or written is one too), 3 runtime numerical failure. A
failure prints exactly one line on stderr. Once its three files are
written, `run` warns on stderr for each round whose iterative weight
solve stopped at meta.max_iters with its residual still >= meta.tol.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import traceback
from dataclasses import replace
from operator import attrgetter
from pathlib import Path
from typing import Callable, NamedTuple

from .aggregator import (
    MetaParams,
    contraction_estimate,
    generalization_bound,
    jensen_gap,
)
from .datagen import ConfigError, PartitionConfig
from .federation import (
    ComparisonSummary,
    DataConfig,
    ExperimentConfig,
    RoundRecord,
    collect_reports,
    compare_runs,
    kl_divergence_diagnostic,
    rounds_to_target,
    run_rounds,
    set_up,
)
from .metafeatures import CompositeErrorConfig, composite_errors
from .models import ModelSpec, TrainConfig
from .numerics import derive_seed, softmax_neg

__all__ = ["ConfigError", "load_config", "serialize_config", "PRESETS", "main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


# ----------------------------------------------------------------------
# config file parsing
# ----------------------------------------------------------------------


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


def _as_bool(value: str) -> bool:
    low = value.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"expected true/false, got {value!r}")


def _split(value: str, cast: Callable[[str], object]) -> tuple:
    """Comma-separated values; the empty string gives no values."""
    return tuple(cast(part.strip()) for part in value.split(",")) if value else ()


class _Kind(NamedTuple):
    """How one config value is read from text and echoed back."""

    parse: Callable[[str], object]
    show: Callable[[object], str]


_INT = _Kind(int, str)
_FLOAT = _Kind(float, repr)
_STR = _Kind(str, str)
_BOOL = _Kind(_as_bool, lambda v: "true" if v else "false")
_FLOATS = _Kind(lambda v: _split(v, float), lambda v: ",".join(map(repr, v)))
_IDS = _Kind(lambda v: frozenset(_split(v, int)), lambda v: ",".join(map(str, sorted(v))))


class _Key(NamedTuple):
    """One config key: the ExperimentConfig attribute path of the section
    object it sets ("" for the top level), that object's field, its kind."""

    key: str
    section: str
    field: str
    kind: _Kind


#: Every config key, in echo order.
_KEYS = (
    _Key("seed", "", "seed", _INT),
    _Key("rounds", "", "rounds", _INT),
    _Key("aggregator", "", "aggregator_mode", _STR),
    _Key("alpha_grid", "", "alpha_grid", _FLOATS),
    _Key("target_accuracy", "", "target_accuracy", _FLOAT),
    _Key("diagnostics.log_h", "", "log_h", _FLOAT),
    _Key("model.input_dim", "spec", "input_dim", _INT),
    _Key("model.hidden_dim", "spec", "hidden_dim", _INT),
    _Key("model.num_classes", "spec", "num_classes", _INT),
    _Key("model.activation", "spec", "activation", _STR),
    _Key("data.n_samples", "data", "n_samples", _INT),
    _Key("data.spread", "data", "spread", _FLOAT),
    _Key("data.global_val_fraction", "data", "global_val_fraction", _FLOAT),
    _Key("data.csv_path", "data", "csv_path", _STR),
    _Key("partition.num_clients", "partition", "num_clients", _INT),
    _Key("partition.dirichlet_beta", "partition", "dirichlet_beta", _FLOAT),
    _Key("partition.val_fraction", "partition", "val_fraction", _FLOAT),
    _Key("partition.noise_clients", "partition", "noise_clients", _IDS),
    _Key("partition.label_noise_rate", "partition", "label_noise_rate", _FLOAT),
    _Key("partition.seed", "partition", "seed", _INT),
    _Key("train.learning_rate", "train", "learning_rate", _FLOAT),
    _Key("train.epochs", "train", "epochs", _INT),
    _Key("train.batch_size", "train", "batch_size", _INT),
    _Key("train.seed", "train", "seed", _INT),
    _Key("train.l2", "train", "l2", _FLOAT),
    _Key("meta.alpha", "meta", "alpha", _FLOAT),
    _Key("meta.lambda", "meta", "lam", _FLOAT),
    _Key("meta.eta", "meta", "eta", _FLOAT),
    _Key("meta.max_iters", "meta", "max_iters", _INT),
    _Key("meta.tol", "meta", "tol", _FLOAT),
    _Key("meta.c", "meta.c", "c", _FLOATS),
    _Key("meta.normalize", "meta.c", "normalize", _BOOL),
)

#: Section dataclasses in build order (each before the section holding
#: it), with the prefix of their validation errors.
_SECTIONS = {
    "spec": (ModelSpec, "invalid 'model.*' section: "),
    "data": (DataConfig, "invalid 'data.*' section: "),
    "partition": (PartitionConfig, "invalid 'partition.*' section: "),
    "train": (TrainConfig, "invalid 'train.*' section: "),
    "meta.c": (CompositeErrorConfig, "invalid value for key 'meta.c': "),
    "meta": (MetaParams, "invalid 'meta.*' section: "),
    "": (ExperimentConfig, ""),
}

#: Defaults of the CLI where its dataclass has none.
_CLI_DEFAULTS = {"model.input_dim": "2", "train.learning_rate": "0.1"}

_BY_KEY = {row.key: row for row in _KEYS}


def build_config(raw: dict[str, str], seed_override: int | None = None) -> ExperimentConfig:
    """Assemble and validate an ExperimentConfig from raw key-value pairs.

    An absent key takes its dataclass default; the partition and train
    seeds default to sub-seeds of the top-level seed.
    """
    unknown = sorted(raw.keys() - _BY_KEY.keys())
    if unknown:
        raise ConfigError(f"unknown key '{unknown[0]}'")
    for key in ("rounds", "partition.num_clients"):
        if key not in raw:
            raise ConfigError(f"missing required key '{key}'")
    kwargs: dict[str, dict] = {section: {} for section in _SECTIONS}
    for key, value in {**_CLI_DEFAULTS, **raw}.items():
        row = _BY_KEY[key]
        try:
            kwargs[row.section][row.field] = row.kind.parse(value)
        except ValueError as err:
            raise ConfigError(f"invalid value for key '{key}': {err}") from None
    top = kwargs[""]
    if seed_override is not None:
        top["seed"] = seed_override
    seed = top.get("seed", ExperimentConfig.seed)
    if seed < 0:
        raise ConfigError("seed must be >= 0")
    kwargs["partition"].setdefault("seed", derive_seed(seed, 101))
    kwargs["train"].setdefault("seed", derive_seed(seed, 102))
    for section, (cls, error_prefix) in _SECTIONS.items():
        try:
            built = cls(**kwargs[section])
        except ValueError as err:
            raise ConfigError(f"{error_prefix}{err}") from None
        if section:
            parent, _, name = section.rpartition(".")
            kwargs[parent][name] = built
    return built


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical key-value form; parsing it back gives an equal config.

    Keys whose value is None or an empty collection are left out.
    """
    sections = {name: attrgetter(name)(cfg) if name else cfg for name in _SECTIONS}
    lines = []
    for row in _KEYS:
        value = getattr(sections[row.section], row.field)
        if value is None or value in ((), frozenset()):
            continue
        lines.append(f"{row.key} = {row.kind.show(value)}")
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
    """Read a config file or preset name into a validated ExperimentConfig.

    A relative data.csv_path in a file is taken from the file's directory
    and echoed as an absolute path.
    """
    if path_or_preset in PRESETS and not os.path.exists(path_or_preset):
        raw = dict(PRESETS[path_or_preset])
    else:
        try:
            text = Path(path_or_preset).read_text(encoding="utf-8")
        except OSError as err:
            raise ConfigError(f"cannot read config {path_or_preset!r}: {err}") from None
        raw = _parse_raw(text)
        csv_path = raw.get("data.csv_path")
        if csv_path and not os.path.isabs(csv_path):
            # a relative pool path names a file beside the config, wherever it runs from
            config_dir = os.path.dirname(os.path.abspath(path_or_preset))
            raw["data.csv_path"] = os.path.join(config_dir, csv_path)
    return build_config(raw, _seed_override())


# ----------------------------------------------------------------------
# output writers
# ----------------------------------------------------------------------


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _write(path: Path, text: str) -> None:
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as err:
        raise ConfigError(f"cannot write {path}: {err.strerror or err}") from None


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


def _theory(cfg: ExperimentConfig, mp: MetaParams, errors, clients) -> tuple:
    """The diagnostics summary.json and diagnostics.json share:
    (mirror-step contraction modulus under mp, label-skew KL of the train
    splits, their sample count m, the generalization bound)."""
    contraction = contraction_estimate(errors, mp)
    kl = kl_divergence_diagnostic(clients[0], cfg.spec.num_classes)
    m = clients[0].data.n
    return contraction, kl, m, generalization_bound(cfg.log_h, m, kl)


def _summary_payload(cfg: ExperimentConfig, history, clients) -> dict:
    final = history[-1]
    mp = cfg.meta
    if cfg.searches_alpha:
        mp = replace(mp, alpha=final.alpha_used)
    contraction, kl, _, bound = _theory(cfg, mp, final.per_client_val_loss, clients)
    return {
        "terminal_accuracy": final.global_val_accuracy,
        "terminal_loss": final.global_val_loss,
        "rounds_to_target": _or_not_reached(rounds_to_target(history, cfg.target_accuracy)),
        "weights_final": [float(w) for w in final.weights.weights],
        "alpha_final": final.alpha_used,
        "contraction_estimate": contraction,
        "kl_diagnostic": kl,
        "generalization_bound": bound,
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
        values = (loss_a, acc_a, loss_b, acc_b, acc_a - acc_b)
        lines.append(",".join([str(rnd), *map(_fmt, values), cell_a, cell_b]))
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


def _exit_code(command: Callable[..., None]) -> Callable[..., int]:
    """The exit-code policy of every command: 0 when it returns, 2 on a
    ConfigError, 3 on any other failure, with the error on stderr. A
    failure that is neither a ValueError nor a RuntimeError is a bug, so
    its traceback is printed in full."""

    @functools.wraps(command)
    def run(*args, **kwargs) -> int:
        try:
            command(*args, **kwargs)
        except ConfigError as err:
            print(f"config error: {err}", file=sys.stderr)
            return EXIT_CONFIG
        except (ValueError, RuntimeError) as err:
            print(f"runtime error: {err}", file=sys.stderr)
            return EXIT_RUNTIME
        except Exception:
            traceback.print_exc()
            return EXIT_RUNTIME
        return EXIT_OK

    return run


@_exit_code
def cmd_run(config_path: str, out_dir: str, no_timing: bool = False) -> None:
    """Run one experiment; write rounds.csv, summary.json, config_echo.txt."""
    cfg = load_config(config_path)
    clients, global_val, theta0 = set_up(cfg)
    _, history = run_rounds(cfg, clients, global_val, theta0)
    out = _prepare_out_dir(out_dir)
    write_rounds_csv(history, out / "rounds.csv", include_timing=not no_timing)
    _write_json(out / "summary.json", _summary_payload(cfg, history, clients))
    _write(out / "config_echo.txt", serialize_config(cfg))
    for rec in history:  # only once the files are written, so a failure prints one line
        if rec.solver_residual >= cfg.meta.tol:
            print(f"warning: round {rec.round}: {cfg.aggregator_mode} solve stopped after "
                  f"{rec.solver_iters} iterations with residual {rec.solver_residual:.3g} "
                  f">= meta.tol {cfg.meta.tol:.3g}", file=sys.stderr)


@_exit_code
def cmd_compare(config_a: str, config_b: str, out_dir: str) -> None:
    """Run two data-matched configs; write compare.csv and compare_summary.json."""
    cfg_a = load_config(config_a)
    cfg_b = load_config(config_b)
    summary = compare_runs(cfg_a, cfg_b)
    out = _prepare_out_dir(out_dir)
    write_compare_csv(summary, out / "compare.csv")
    diff = summary.terminal_accuracy_diff
    winner = "a" if diff > 0 else "b" if diff < 0 else "tie"
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


@_exit_code
def cmd_diagnose(config_path: str, out_dir: str) -> None:
    """Probe fixed-point, convexity, and divergence diagnostics on a
    seeded one-round instance; write diagnostics.json."""
    cfg = load_config(config_path)
    clients, global_val, theta0 = set_up(cfg)
    # The probe weights by the closed form whatever the config's mode,
    # so its cohort carries the features that form weights.
    closed = replace(cfg, aggregator_mode="metafl_closed")
    cohort = collect_reports(closed, clients, theta0, 1)
    try:
        errors = composite_errors(cohort.val_loss, cohort.features, cfg.meta.c)
        weights = softmax_neg(errors, cfg.meta.alpha)
    except ValueError as err:
        raise RuntimeError(f"round 1, aggregation: {err}") from err
    contraction, kl, m, bound = _theory(cfg, cfg.meta, errors, clients)
    gap = jensen_gap(cfg.spec, cohort.thetas, weights, global_val)
    _write_json(
        _prepare_out_dir(out_dir) / "diagnostics.json",
        {
            "contraction_estimate": contraction,
            "jensen_gap": gap,
            "kl_diagnostic": kl,
            "generalization_bound": bound,
            "eta": cfg.meta.eta,
            "tau": cfg.meta.resolved_tau(),
            "m": m,
            "log_h": cfg.log_h,
        },
    )


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
