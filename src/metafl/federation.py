"""Round-loop orchestration: local training, the round's cohort,
aggregation, meta-parameter adaptation, and per-round record keeping.

set_up gives a config's client splits, server holdout and initial
parameters. run_experiment, every CLI command and compare_runs start
from it; compare_runs sets up once and runs both arms on that data.
The client splits are the (train, val) pair of datagen.Segments: each
side is one dataset of every client's rows, in client order, plus each
client's row count, and every step reads a client as a row segment.

Every round trains all clients from the current global parameters and
collects one Cohort: the trained parameters as a [K, P] matrix plus the
validation losses and, when weighted, the [K, 5] meta-feature matrix,
row k for client k. The round then computes the composite errors E
once, optionally re-tunes alpha on the server-held validation split,
aggregates, and broadcasts.
Meta-features are extracted only when they can move a weight: the mode
is not fedavg and some meta.c coefficient is nonzero. Even then only the
weighted columns are computed: the probe trains only for data_complexity,
and the 1x and 1.5x extra epochs, one train_cohort call of two copies of
the cohort, only for lr_sensitivity.
The cohort trains in lockstep (models.train_cohort): each client draws
the same shuffles as it would alone and does the same arithmetic on its
own batches, grouped with the other clients on batches of one length
into stacked steps; clients of one split size share one shuffle draw.
Nothing is reduced across clients, so every client's parameters are
bitwise those of training it alone. The cohort is evaluated the same
way (models.cohort_losses): clients whose validation splits have one
length share one stacked forward pass, and each client's loss is
bitwise the one models.evaluate gives it alone. Every loss the round
reads comes from the one forward pass and cross-entropy of models.
Any fault in setting up the data is a ConfigError; a malformed CSV pool's
names data.csv_path and the row.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .aggregator import (
    AGGREGATOR_MODES,
    AggregationOutcome,
    MetaParams,
    adapt_meta_params,
    aggregate,
    fedavg_weights,
    meta_agg,
)
from .datagen import (
    ClientDataset,
    ConfigError,
    PartitionConfig,
    Segments,
    inject_label_noise,
    label_distribution,
    load_csv,
    make_blobs,
    partition_dirichlet,
)
from .metafeatures import composite_errors, extract
from .models import (
    ClientError,
    ModelSpec,
    TrainConfig,
    _check_nonnegative,
    cohort_losses,
    evaluate,
    init_params,
    train_cohort,
)
from .numerics import ParamVector, WeightVector, derive_seed, make_rng

__all__ = [
    "DataConfig",
    "ExperimentConfig",
    "RoundRecord",
    "Cohort",
    "ComparisonSummary",
    "build_federation",
    "set_up",
    "collect_reports",
    "run_rounds",
    "run_experiment",
    "shares_data_setup",
    "compare_runs",
    "rounds_to_target",
    "kl_divergence_diagnostic",
]


@dataclass(frozen=True)
class DataConfig:
    """Where the sample pool comes from: synthetic blobs or a CSV file."""

    n_samples: int = 400
    spread: float = 0.5
    global_val_fraction: float = 0.2
    csv_path: str | None = None

    def __post_init__(self):
        if self.n_samples < 2:
            raise ValueError("n_samples must be >= 2")
        if not np.isfinite(self.spread) or self.spread <= 0.0:
            raise ValueError("spread must be finite and positive")
        if not 0.0 < self.global_val_fraction < 1.0:
            raise ValueError("global_val_fraction must lie in (0, 1)")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run depends on; run_experiment is pure in this value."""

    spec: ModelSpec
    partition: PartitionConfig
    train: TrainConfig
    meta: MetaParams
    data: DataConfig = field(default_factory=DataConfig)
    rounds: int = 1
    aggregator_mode: str = "metafl_closed"
    alpha_grid: tuple[float, ...] = ()
    seed: int = 0
    target_accuracy: float = 0.9
    log_h: float = 1.0

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.aggregator_mode not in AGGREGATOR_MODES:
            raise ValueError(
                f"aggregator must be one of {AGGREGATOR_MODES}, got {self.aggregator_mode!r}"
            )
        grid = tuple(float(a) for a in self.alpha_grid)
        if any(
            not np.isfinite(a) or a < 0.0 or (a > 0.0 and not np.isfinite(1.0 / a)) for a in grid
        ):
            raise ValueError("alpha_grid entries must be finite and >= 0, with a finite 1/alpha")
        if len(grid) == 1:
            raise ValueError("alpha_grid needs 0 or 2+ entries; set one alpha with meta.alpha")
        if not 0.0 < self.target_accuracy <= 1.0:
            raise ValueError("target_accuracy must lie in (0, 1]")
        if not np.isfinite(self.log_h) or self.log_h < 0.0:
            raise ValueError("log_h must be finite and >= 0")
        if not np.isfinite(2.0 * self.log_h):  # the generalization bound's term
            raise ValueError("diagnostics.log_h * 2 must be finite")
        if not all(np.isfinite(self.meta.eta * replace(self.meta, alpha=a).resolved_tau())
                   for a in (self.meta.alpha, *grid)):  # the contraction estimate's step
            raise ValueError("meta.eta * tau must be finite for meta.alpha and every "
                             "alpha_grid entry, with tau = 1/alpha")
        if self.meta.eta == 0.0 and self.aggregator_mode in ("metafl_mirror", "metafl_projected"):
            raise ValueError(f"meta.eta must be > 0 for aggregator {self.aggregator_mode}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.meta.c.c[4] != 0.0 and not np.isfinite(1.5 * float(self.train.learning_rate)):
            raise ValueError("train.learning_rate * 1.5 must be finite while meta.c weights "
                             "lr_sensitivity")
        object.__setattr__(self, "alpha_grid", grid)

    @property
    def searches_alpha(self) -> bool:
        """Each round re-tunes alpha: a weighted mode with an alpha_grid."""
        return self.aggregator_mode != "fedavg" and bool(self.alpha_grid)


@dataclass(frozen=True)
class RoundRecord:
    """Observables of one federation round. solver_iters and
    solver_residual are the weight solve's, 0 when no iterative solve ran."""

    round: int
    weights: WeightVector
    alpha_used: float
    global_val_loss: float
    global_val_accuracy: float
    per_client_val_loss: tuple[float, ...]
    phi_value: float
    solver_iters: int
    solver_residual: float
    wall_ms: int


@dataclass(frozen=True, eq=False)
class Cohort:
    """One round's trained cohort, row k for client k: parameters thetas
    [K, P], validation losses val_loss [K], and the meta-feature matrix
    features [K, len(FEATURE_FIELDS)], or None when no coefficient weights
    it. The fields hold read-only views."""

    thetas: np.ndarray
    val_loss: np.ndarray
    features: np.ndarray | None = None

    def __post_init__(self):
        k = len(self.thetas)
        if self.thetas.ndim != 2 or k < 1 or self.val_loss.shape != (k,):
            raise ValueError("need thetas [K, P] with K >= 1, and val_loss [K]")
        for name in ("thetas", "val_loss", "features"):
            arr = getattr(self, name)
            if arr is not None:
                view = arr.view()
                view.flags.writeable = False
                object.__setattr__(self, name, view)


@dataclass(frozen=True)
class ComparisonSummary:
    """Paired per-round metrics of two runs differing only in aggregation.

    rows hold (round, loss_a, acc_a, loss_b, acc_b). The shared target
    accuracy is run B's terminal accuracy (B is the baseline by
    convention); rounds_to_target_* is None when never reached.
    """

    rows: tuple[tuple[int, float, float, float, float], ...]
    target_accuracy: float
    rounds_to_target_a: int | None
    rounds_to_target_b: int | None
    terminal_accuracy_a: float
    terminal_accuracy_b: float
    terminal_accuracy_diff: float
    mean_accuracy_diff: float


def build_federation(cfg: ExperimentConfig) -> tuple[tuple[Segments, Segments], ClientDataset]:
    """Materialize the client (train, val) sides and the server's IID holdout.

    The holdout is drawn before partitioning, and the rest of the pool is
    partitioned by its labels alone: each side gathers its rows straight
    from the pool, so the rest is never copied as a dataset. Label noise
    corrupts the marked clients' train splits only, so client validation
    losses honestly reflect the damage. Any fault in drawing the pool, the
    holdout or the partition raises one ConfigError, naming data.csv_path
    when the pool is a CSV file.
    """
    spec, data, part = cfg.spec, cfg.data, cfg.partition
    source = (f"invalid data set-up (synthetic pool, data.n_samples = {data.n_samples}, "
              f"data.spread = {data.spread}): ")
    try:
        if data.csv_path is not None:
            source = f"invalid value for key 'data.csv_path' ({data.csv_path}): "
            pool = load_csv(data.csv_path, spec.num_classes)
            if pool.dim != spec.input_dim:
                raise ValueError(
                    f"csv feature dim {pool.dim} does not match model input_dim {spec.input_dim}"
                )
        else:
            pool = make_blobs(
                spec.num_classes, spec.input_dim, data.n_samples, data.spread, cfg.seed
            )
        rng = make_rng([cfg.seed, 1])
        order = rng.permutation(pool.n)
        n_holdout = max(1, int(round(data.global_val_fraction * pool.n)))
        if n_holdout >= pool.n:
            raise ValueError("global validation holdout would consume every sample")
        global_val = pool.subset(order[:n_holdout])
        rest = order[n_holdout:]
        labels = pool.labels[rest]
        train_rows, val_rows = partition_dirichlet(labels, part)
    except ValueError as err:
        raise ConfigError(f"{source}{err}") from None
    for k in sorted(part.noise_clients):
        rows = train_rows[k]
        labels[rows] = inject_label_noise(
            labels[rows], part.label_noise_rate, derive_seed(part.seed, k, 11), spec.num_classes
        )

    def side(split: list[np.ndarray]) -> Segments:
        rows = np.concatenate(split)
        n = np.array([r.size for r in split])
        return Segments(ClientDataset._wrap(pool.features[rest[rows]], labels[rows]), n)

    return (side(train_rows), side(val_rows)), global_val


def set_up(
    cfg: ExperimentConfig,
) -> tuple[tuple[Segments, Segments], ClientDataset, ParamVector]:
    """(clients, global_val, theta0): the config's federation and its
    initial global parameters, the arguments run_rounds takes after cfg."""
    clients, global_val = build_federation(cfg)
    return clients, global_val, init_params(cfg.spec, derive_seed(cfg.seed, 2))


def collect_reports(
    cfg: ExperimentConfig,
    clients: tuple[Segments, Segments],
    theta: ParamVector,
    round_index: int,
) -> Cohort:
    """Train, evaluate, and profile every client for one round.

    All clients share the round's shuffle seed, so identical clients
    produce identical rows. The cohort trains in one train_cohort call
    and, when some meta.c coefficient is nonzero and the mode is not
    fedavg, is profiled in one extract call; otherwise features is None.
    A failure names the round and the first failing client in client-id
    order of its phase; a meta-features failure, extra epochs included, says so.
    """
    spec = cfg.spec
    round_train = replace(cfg.train, seed=derive_seed(cfg.train.seed, round_index))
    with_meta = cfg.aggregator_mode != "fedavg" and cfg.meta.c.uses_features
    train, val = clients
    starts = np.broadcast_to(theta.coords, (len(train.n), theta.dim))
    try:
        thetas = train_cohort(spec, starts, train, round_train)
        try:
            features = (extract(spec, theta, thetas, clients, round_train, cfg.meta.c.c)
                        if with_meta else None)
        except ClientError as err:
            raise ClientError(err.index, f"meta-features: {err}") from err
        val_loss = cohort_losses(spec, thetas, val)
        _check_nonnegative("val_loss", val_loss[:, None])
    except ClientError as err:
        raise RuntimeError(f"round {round_index}, client {err.index}: {err}") from err
    return Cohort(thetas=thetas, val_loss=val_loss, features=features)


def run_rounds(
    cfg: ExperimentConfig,
    clients: tuple[Segments, Segments],
    global_val: ClientDataset,
    theta: ParamVector,
) -> tuple[ParamVector, list[RoundRecord]]:
    """Execute cfg.rounds federation rounds from the given global state."""
    spec = cfg.spec
    mp = cfg.meta
    fedavg = cfg.aggregator_mode == "fedavg"
    history: list[RoundRecord] = []
    for t in range(1, cfg.rounds + 1):
        started = time.perf_counter()
        cohort = collect_reports(cfg, clients, theta, t)
        try:
            if fedavg:
                weights = fedavg_weights(clients[0].n)
                theta_g = aggregate(cohort.thetas, weights, 0.0)
                outcome = AggregationOutcome(theta_g, weights, 0.0, 0, 0.0)
            else:
                errors = composite_errors(cohort.val_loss, cohort.features, mp.c)
                if cfg.searches_alpha:
                    mp = adapt_meta_params(
                        mp, cfg.alpha_grid, cohort.thetas, errors, spec, global_val
                    )
                outcome = meta_agg(cohort.thetas, errors, mp, cfg.aggregator_mode)
        except ValueError as err:
            raise RuntimeError(f"round {t}, aggregation: {err}") from err
        try:
            server_perf = evaluate(spec, outcome.theta_g, global_val)
        except ValueError as err:
            raise RuntimeError(f"round {t}, server evaluation: {err}") from err
        history.append(
            RoundRecord(
                round=t,
                weights=outcome.weights,
                alpha_used=0.0 if fedavg else mp.alpha,
                global_val_loss=server_perf.val_loss,
                global_val_accuracy=server_perf.val_accuracy,
                per_client_val_loss=tuple(cohort.val_loss.tolist()),
                phi_value=outcome.phi_value,
                solver_iters=outcome.solver_iters,
                solver_residual=outcome.solver_residual,
                wall_ms=int((time.perf_counter() - started) * 1000.0),
            )
        )
        theta = outcome.theta_g
    return theta, history


def run_experiment(cfg: ExperimentConfig) -> tuple[ParamVector, list[RoundRecord]]:
    """Set up the federation and run all rounds."""
    return run_rounds(cfg, *set_up(cfg))


def shares_data_setup(a: ExperimentConfig, b: ExperimentConfig) -> bool:
    """True when two configs differ at most in how they aggregate."""
    return (
        a.spec == b.spec
        and a.partition == b.partition
        and a.train == b.train
        and a.data == b.data
        and a.seed == b.seed
        and a.rounds == b.rounds
    )


def rounds_to_target(history: Sequence[RoundRecord], target: float) -> int | None:
    """First round whose server accuracy reaches target; None if none does."""
    for rec in history:
        if rec.global_val_accuracy >= target:
            return rec.round
    return None


def compare_runs(cfg_a: ExperimentConfig, cfg_b: ExperimentConfig) -> ComparisonSummary:
    """Run two configs on one federation and pair their round metrics."""
    if not shares_data_setup(cfg_a, cfg_b):
        raise ConfigError("configs must share data setup")
    fed = set_up(cfg_a)
    _, hist_a = run_rounds(cfg_a, *fed)
    _, hist_b = run_rounds(cfg_b, *fed)
    rows = tuple(
        (ra.round, ra.global_val_loss, ra.global_val_accuracy,
         rb.global_val_loss, rb.global_val_accuracy)
        for ra, rb in zip(hist_a, hist_b)
    )
    terminal_a = hist_a[-1].global_val_accuracy
    terminal_b = hist_b[-1].global_val_accuracy
    target = terminal_b
    diffs = [ra.global_val_accuracy - rb.global_val_accuracy for ra, rb in zip(hist_a, hist_b)]
    return ComparisonSummary(
        rows=rows,
        target_accuracy=target,
        rounds_to_target_a=rounds_to_target(hist_a, target),
        rounds_to_target_b=rounds_to_target(hist_b, target),
        terminal_accuracy_a=terminal_a,
        terminal_accuracy_b=terminal_b,
        terminal_accuracy_diff=terminal_a - terminal_b,
        mean_accuracy_diff=float(np.mean(diffs)),
    )


def kl_divergence_diagnostic(side: Segments, num_classes: int) -> float:
    """Mean KL divergence of a side's client label distributions from their average.

    Uses the 0 * ln(0/q) = 0 convention and clamps zero denominators at
    1e-12.
    """
    dists = label_distribution(side, num_classes)
    avg = dists.mean(axis=0)
    total = 0.0
    for p in dists:
        nz = p > 0.0
        total += float((p[nz] * np.log(p[nz] / np.maximum(avg[nz], 1e-12))).sum())
    return total / len(dists)
