"""Deterministic federated-learning simulator with a meta-feature-driven
aggregation optimizer and a FedAvg baseline."""

from .aggregator import (
    AggregationOutcome,
    MetaParams,
    adapt_meta_params,
    aggregate,
    contraction_estimate,
    fedavg_weights,
    generalization_bound,
    jensen_gap,
    meta_agg,
    phi_gradient,
    phi_objective,
    weights_iterative,
)
from .datagen import (
    ClientDataset,
    PartitionConfig,
    Segments,
    inject_label_noise,
    label_distribution,
    load_csv,
    make_blobs,
    partition_dirichlet,
)
from .federation import (
    Cohort,
    ComparisonSummary,
    DataConfig,
    ExperimentConfig,
    RoundRecord,
    build_federation,
    compare_runs,
    kl_divergence_diagnostic,
    run_experiment,
    set_up,
)
from .metafeatures import (
    CompositeErrorConfig,
    composite_errors,
    extract,
)
from .models import (
    ModelSpec,
    PerformanceMetrics,
    TrainConfig,
    cohort_losses,
    evaluate,
    init_params,
    local_loss,
    train_cohort,
    train_local,
)
from .numerics import (
    ParamVector,
    WeightVector,
    make_rng,
    project_simplex,
    softmax_neg,
    weighted_sum,
)

__version__ = "0.1.0"
