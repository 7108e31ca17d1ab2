"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured numbers. Run with `pytest -s` to see
the lines stream; they are also embedded in assertion messages.
"""

import json
import time

import numpy as np

from metafl.aggregator import (
    MetaParams,
    aggregate,
    fedavg_weights,
    jensen_gap,
    meta_agg,
    weights_iterative,
)
from metafl.cli import PRESETS, build_config, main
from metafl.datagen import PartitionConfig, make_blobs
from metafl.federation import (
    DataConfig,
    ExperimentConfig,
    build_federation,
    collect_reports,
    compare_runs,
    run_experiment,
)
from metafl.metafeatures import composite_errors
from metafl.models import ModelSpec, TrainConfig, init_params, param_count
from metafl.numerics import ParamVector, WeightVector, make_rng, project_simplex, softmax_neg
from testkit import _mirror_step, finite_diff_grad, loss_and_grad, phi_gradient


def verdict(cid: str, ok: bool, detail: str):
    line = f"[{cid}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line, flush=True)
    assert ok, line


def test_c1_solver_closed_form_equivalence():
    """Mirror descent and the softmax closed form agree to 1e-6 in sup norm."""
    rng = make_rng(101)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        k = int(rng.integers(2, 33))
        errors = rng.uniform(0.0, 1.0, size=k)
        alpha = float(rng.choice([0.5, 1.0, 2.0]))
        mp = MetaParams(alpha=alpha, eta=0.1, tol=1e-10, max_iters=500)
        solved, _, _ = weights_iterative(errors, mp, "mirror")
        closed = softmax_neg(errors, alpha)
        worst = max(worst, float(np.abs(solved.weights - closed.weights).max()))
    elapsed = time.perf_counter() - started
    verdict(
        "C1 solver equivalence",
        worst < 1e-6 and elapsed < 10.0,
        f"worst sup-norm gap {worst:.2e} (tol 1e-6), runtime {elapsed:.2f}s (< 10s)",
    )


def test_c2_simplex_invariants_everywhere():
    """Every weight-producing operation yields w >= 0 summing to 1 +- 1e-9."""
    rng = make_rng(202)
    produced: list[WeightVector] = []
    for _ in range(40):
        k = int(rng.integers(1, 20))
        values = rng.uniform(-5.0, 5.0, size=k)
        produced.append(softmax_neg(values, float(rng.uniform(0, 50))))
        produced.append(project_simplex(rng.normal(size=k) * 2.0))
        produced.append(fedavg_weights(rng.integers(1, 100, size=k)))
        errors = rng.uniform(0.0, 1.0, size=k)
        mp = MetaParams(alpha=float(rng.choice([0.5, 1.0, 2.0])), eta=0.1)
        produced.append(weights_iterative(errors, mp, "mirror")[0])
        produced.append(weights_iterative(errors, mp, "projected")[0])
        produced.append(softmax_neg(errors, 1.0))
    for mode in ("metafl_closed", "metafl_mirror", "metafl_projected"):
        thetas, errors = rng.normal(size=(6, 4)), rng.uniform(0.05, 1.0, size=6)
        produced.append(meta_agg(thetas, errors, MetaParams(alpha=1.0), mode).weights)
    _, history = run_experiment(
        ExperimentConfig(
            spec=ModelSpec(input_dim=2, hidden_dim=0, num_classes=2),
            partition=PartitionConfig(num_clients=3, dirichlet_beta=2.0, seed=1),
            train=TrainConfig(learning_rate=0.1, epochs=1, seed=2),
            meta=MetaParams(alpha=1.0),
            data=DataConfig(n_samples=150, spread=0.5),
            rounds=3,
            aggregator_mode="metafl_mirror",
            seed=3,
        )
    )
    produced.extend(rec.weights for rec in history)
    violations = sum(
        1
        for w in produced
        if np.any(w.weights < 0.0) or abs(float(w.weights.sum()) - 1.0) > 1e-9
    )
    verdict(
        "C2 simplex invariants",
        violations == 0,
        f"{len(produced)} weight vectors checked, {violations} violations",
    )


def test_c3_gradient_correctness():
    """Analytic gradients match central finite differences to 1e-5 relative."""
    rng = make_rng(303)
    worst = 0.0
    # 60 interior instances of the weighting objective
    for _ in range(60):
        k = int(rng.integers(2, 10))
        w = WeightVector(rng.dirichlet(np.full(k, 5.0)))
        errors = rng.uniform(0.0, 1.0, size=k)
        tau = float(rng.uniform(0.2, 2.0))
        grad = phi_gradient(w, errors, tau)
        fd = finite_diff_grad(
            lambda x: float(x @ errors + tau * np.sum(x * np.log(x))), w.weights, 1e-7
        )
        worst = max(worst, float(np.max(np.abs(grad - fd) / np.maximum(np.abs(fd), 1.0))))
    # 40 local-model instances (relu's kink excluded; tanh is smooth)
    specs = [
        ModelSpec(input_dim=4, hidden_dim=0, num_classes=3),
        ModelSpec(input_dim=3, hidden_dim=3, num_classes=2, activation="tanh"),
    ]
    for i in range(40):
        spec = specs[i % 2]
        assert param_count(spec) <= 30
        data = make_blobs(spec.num_classes, spec.input_dim, 20, 0.8, int(rng.integers(10_000)))
        theta = rng.normal(scale=0.7, size=param_count(spec))
        l2 = float(rng.choice([0.0, 0.2]))
        _, grad = loss_and_grad(spec, ParamVector(theta), data, l2)
        fd = finite_diff_grad(
            lambda th: loss_and_grad(spec, ParamVector(th), data, l2)[0], theta, 1e-6
        )
        worst = max(worst, float(np.max(np.abs(grad - fd) / np.maximum(np.abs(fd), 1.0))))
    verdict(
        "C3 gradient correctness",
        worst < 1e-5,
        f"100 instances, worst relative error {worst:.2e} (tol 1e-5)",
    )


def test_c4_fixed_point_convergence():
    """eta=0.1, alpha=1 (so tau=1): convergence within 500 iterations with
    a geometric residual envelope residual(t+10) <= 0.9 residual(t) after
    burn-in 5."""
    rng = make_rng(404)
    mp = MetaParams(alpha=1.0, eta=0.1, tol=1e-10, max_iters=500)
    max_iters_seen = 0
    envelope_ok = True
    for _ in range(200):
        k = int(rng.integers(2, 33))
        errors = rng.uniform(0.0, 1.0, size=k)
        _, iters, residual = weights_iterative(errors, mp, "mirror")
        max_iters_seen = max(max_iters_seen, iters)
        if not (iters < mp.max_iters and residual < mp.tol):
            envelope_ok = False
            break
        w = np.full(k, 1.0 / k)
        residuals = []
        while True:
            w_next = _mirror_step(w, errors, 1.0, 0.1)
            r = float(np.abs(w_next - w).max())
            residuals.append(r)
            w = w_next
            if r < 1e-13 or len(residuals) >= 500:
                break
        for t in range(5, len(residuals) - 10):
            if residuals[t] > 1e-13 and residuals[t + 10] > 0.9 * residuals[t]:
                envelope_ok = False
                break
    verdict(
        "C4 fixed-point behavior",
        envelope_ok and max_iters_seen < 500,
        f"max iterations {max_iters_seen} (< 500), geometric envelope held: {envelope_ok}",
    )


def test_c5_convexity_gap():
    """jensen_gap >= -1e-9 for convex (hidden_dim=0) losses; 0 for equal params."""
    rng = make_rng(505)
    spec = ModelSpec(input_dim=3, hidden_dim=0, num_classes=3)
    data = make_blobs(3, 3, 50, 1.0, 9)
    worst = np.inf
    for _ in range(100):
        k = int(rng.integers(2, 7))
        thetas = rng.normal(size=(k, param_count(spec)))
        w = softmax_neg(rng.uniform(0, 1, size=k), 1.0)
        worst = min(worst, jensen_gap(spec, thetas, w, data))
    shared = np.tile(rng.normal(size=param_count(spec)), (3, 1))
    zero_gap = jensen_gap(spec, shared, WeightVector([0.2, 0.3, 0.5]), data)
    verdict(
        "C5 convexity gap",
        worst >= -1e-9 and zero_gap == 0.0,
        f"minimum gap {worst:.3e} (>= -1e-9), identical-parameter gap {zero_gap}",
    )


def test_c6_fedavg_embedding():
    """Errors of -ln n_k (up to a shift) at alpha=1 reproduce FedAvg exactly."""
    rng = make_rng(606)
    worst_w = 0.0
    worst_theta = 0.0
    for _ in range(50):
        k = int(rng.integers(2, 12))
        counts = rng.integers(1, 300, size=k)
        thetas = rng.normal(size=(k, 5))
        errors = np.log(counts.max() / counts)
        out = meta_agg(thetas, errors, MetaParams(alpha=1.0, lam=0.0), "metafl_closed")
        fa_w = fedavg_weights(counts)
        fa_theta = aggregate(thetas, fa_w, 0.0)
        worst_w = max(worst_w, float(np.abs(out.weights.weights - fa_w.weights).max()))
        worst_theta = max(worst_theta, float(np.abs(out.theta_g.coords - fa_theta.coords).max()))
    verdict(
        "C6 fedavg embedding",
        worst_w < 1e-12 and worst_theta < 1e-12,
        f"worst weight gap {worst_w:.2e}, worst aggregate gap {worst_theta:.2e} (tol 1e-12)",
    )


def test_c7_directional_efficiency():
    """preset_noisy_clients, 5 seeds: the adaptive aggregator matches or
    beats FedAvg terminal accuracy and reaches its terminal level early."""
    started = time.perf_counter()
    diffs = []
    reach = []
    for seed in range(5):
        cfg_meta = build_config(PRESETS["preset_noisy_clients"], seed_override=seed)
        cfg_avg = build_config(PRESETS["preset_noisy_clients_fedavg"], seed_override=seed)
        summary = compare_runs(cfg_meta, cfg_avg)
        diffs.append(summary.terminal_accuracy_diff)
        reach.append(summary.rounds_to_target_a)
    elapsed = time.perf_counter() - started
    rounds_total = build_config(PRESETS["preset_noisy_clients"]).rounds
    all_reached = all(r is not None for r in reach)
    mean_reach = float(np.mean([r for r in reach if r is not None])) if all_reached else np.inf
    ok = (
        float(np.mean(diffs)) >= 0.0
        and all_reached
        and mean_reach <= rounds_total
        and elapsed < 120.0
    )
    verdict(
        "C7 directional efficiency",
        ok,
        f"mean terminal-accuracy edge {np.mean(diffs):+.4f} (>= 0), "
        f"mean rounds-to-baseline {mean_reach:.1f} (<= {rounds_total}), "
        f"runtime {elapsed:.1f}s (< 120s)",
    )


def test_c8_adaptability_trend():
    """preset_iid: round-5 accuracy beats round-1 by >= 5 points, 5/5 seeds."""
    gains = []
    for seed in range(5):
        cfg = build_config(PRESETS["preset_iid"], seed_override=seed)
        _, history = run_experiment(cfg)
        gains.append(history[4].global_val_accuracy - history[0].global_val_accuracy)
    ok = all(g >= 0.05 for g in gains)
    verdict(
        "C8 adaptability trend",
        ok,
        "round-5 minus round-1 accuracy per seed: "
        + ", ".join(f"{g:+.3f}" for g in gains)
        + " (each >= 0.05)",
    )


def test_c9_scalability_smoke():
    """K=50 finishes fast, lands within 3 accuracy points of K=10 on the
    same total data, and the aggregation step scales linearly in K."""

    def config_for(k: int) -> ExperimentConfig:
        return ExperimentConfig(
            spec=ModelSpec(input_dim=16, hidden_dim=0, num_classes=3),
            partition=PartitionConfig(num_clients=k, dirichlet_beta=1e6, seed=5),
            train=TrainConfig(learning_rate=0.5, epochs=3, batch_size=16, seed=6),
            meta=MetaParams(alpha=1.0),
            data=DataConfig(n_samples=4000, spread=0.4),
            rounds=5,
            aggregator_mode="metafl_closed",
            seed=2024,
        )

    started = time.perf_counter()
    accuracy = {}
    for k in (10, 50):
        _, history = run_experiment(config_for(k))
        accuracy[k] = history[-1].global_val_accuracy
    elapsed = time.perf_counter() - started

    agg_time = {}
    for k in (10, 50):
        cfg = config_for(k)
        clients, _ = build_federation(cfg)
        theta0 = init_params(cfg.spec, 1)
        cohort = collect_reports(cfg, clients, theta0, 1)

        def aggregation_step():
            errors = composite_errors(cohort.val_loss, cohort.features, cfg.meta.c)
            meta_agg(cohort.thetas, errors, cfg.meta, "metafl_closed")

        aggregation_step()  # warm-up
        reps = 200
        t0 = time.perf_counter()
        for _ in range(reps):
            aggregation_step()
        agg_time[k] = (time.perf_counter() - t0) / reps
    ratio = agg_time[50] / agg_time[10]
    gap = abs(accuracy[50] - accuracy[10])
    ok = elapsed < 300.0 and gap <= 0.03 and ratio <= 6.0
    verdict(
        "C9 scalability smoke",
        ok,
        f"K=10 acc {accuracy[10]:.3f} vs K=50 acc {accuracy[50]:.3f} "
        f"(gap {gap:.3f} <= 0.03), aggregation cost ratio {ratio:.2f}x (<= 6x), "
        f"runtime {elapsed:.1f}s (< 300s)",
    )


def test_c10_cli_determinism(tmp_path, monkeypatch):
    """`metafl run` twice with --no-timing produces byte-identical outputs."""
    monkeypatch.delenv("METAFL_SEED", raising=False)
    cfg_path = tmp_path / "exp.txt"
    cfg_path.write_text(
        "seed = 5\n"
        "rounds = 3\n"
        "alpha_grid = 0,1,5\n"
        "data.n_samples = 200\n"
        "partition.num_clients = 3\n"
        "partition.dirichlet_beta = 2.0\n"
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    code_a = main(["run", str(cfg_path), "-o", str(out_a), "--no-timing"])
    code_b = main(["run", str(cfg_path), "-o", str(out_b), "--no-timing"])
    rounds_same = (out_a / "rounds.csv").read_bytes() == (out_b / "rounds.csv").read_bytes()
    summary_same = (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()
    # sanity: the summary parses and carries the pinned schema
    payload = json.loads((out_a / "summary.json").read_text())
    ok = code_a == 0 and code_b == 0 and rounds_same and summary_same and "terminal_accuracy" in payload
    verdict(
        "C10 determinism",
        ok,
        f"exit codes ({code_a}, {code_b}), rounds.csv identical: {rounds_same}, "
        f"summary.json identical: {summary_same}",
    )
