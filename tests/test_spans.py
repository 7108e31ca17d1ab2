"""The benchmark's span tracer (flbench/spans.py) against the program.

The tracer wraps the metafl functions it names by attribute and fails to
install when one of them is gone, so a deleted or renamed function would
otherwise surface only when the benchmark runs traced."""

import importlib
import importlib.util
import sys
from pathlib import Path

from metafl import federation
from metafl.aggregator import MetaParams
from metafl.datagen import PartitionConfig
from metafl.federation import DataConfig, ExperimentConfig, set_up
from metafl.metafeatures import CompositeErrorConfig
from metafl.models import ModelSpec, TrainConfig

SPANS_PATH = Path(__file__).resolve().parents[1] / "flbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("flbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def metafl_bindings() -> dict:
    """Every (module, attribute) of the loaded metafl modules -> the id of
    its value."""
    return {
        (name, attr): id(value)
        for name, module in list(sys.modules.items())
        if name == "metafl" or name.startswith("metafl.")
        for attr, value in vars(module).items()
    }


def test_tracer_wraps_every_traced_function_and_restores_it():
    spans = load_spans()
    for layer, names in spans.TRACED.items():
        module = importlib.import_module(f"metafl.{layer}")
        missing = [name for name in names if not callable(getattr(module, name, None))]
        assert not missing, f"metafl.{layer} lacks traced {missing}"

    # a projected solve with a grid, weighted features and a noisy client,
    # so set-up and one round reach every traced layer below the CLI
    cfg = ExperimentConfig(
        spec=ModelSpec(input_dim=2, hidden_dim=3, num_classes=2),
        partition=PartitionConfig(num_clients=3, dirichlet_beta=5.0, seed=3, label_noise_rate=0.2,
                                  noise_clients=frozenset({0})),
        train=TrainConfig(learning_rate=0.1, epochs=1, batch_size=16, seed=4),
        meta=MetaParams(alpha=1.0, c=CompositeErrorConfig(c=(0.1, 0.0, 0.0, 0.0, 0.0))),
        data=DataConfig(n_samples=120, spread=0.5),
        rounds=1,
        aggregator_mode="metafl_projected",
        alpha_grid=(0.0, 1.0, 5.0),
        seed=11,
    )
    before = metafl_bindings()
    original = federation.run_rounds
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert federation.run_rounds is not original
        _, history = federation.run_rounds(cfg, *set_up(cfg))
    finally:
        tracer.uninstall()
    assert metafl_bindings() == before
    assert len(history) == 1
    called = {rec[spans.NAME] for rec in tracer.spans}
    for span in ("federation.run_rounds", "federation.collect_reports",
                 "aggregator.adapt_meta_params", "aggregator.weights_iterative",
                 "metafeatures.extract", "models.evaluate", "datagen.make_blobs"):
        assert span in called
