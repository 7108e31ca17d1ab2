"""Command-line front end: config parsing, outputs, exit codes."""

import json
import os
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metafl import aggregator, cli, federation
from metafl.aggregator import AGGREGATOR_MODES, MetaParams
from metafl.cli import (
    _KEYS,
    PRESETS,
    ConfigError,
    _parse_raw,
    build_config,
    cmd_compare,
    cmd_diagnose,
    cmd_run,
    load_config,
    main,
    serialize_config,
)
from metafl.datagen import PartitionConfig, make_blobs
from metafl.federation import DataConfig, ExperimentConfig, set_up
from metafl.metafeatures import CompositeErrorConfig
from metafl.models import ACTIVATIONS, ClientError, ModelSpec, TrainConfig, train_cohort
from metafl.numerics import derive_seed
from cli_contract import CASES, COMMANDS, CONFIG_ERRORS, DIVERGE_AT_1_5X, MINIMAL, check
from testkit import save_csv

SMALL = """
# small deterministic experiment
seed = 7
rounds = 2
aggregator = metafl_closed
model.input_dim = 2
data.n_samples = 120
partition.num_clients = 2
partition.dirichlet_beta = 5.0
train.learning_rate = 0.1
"""


#: The pinned key set of summary.json.
SUMMARY_KEYS = {
    "terminal_accuracy",
    "terminal_loss",
    "rounds_to_target",
    "weights_final",
    "alpha_final",
    "contraction_estimate",
    "kl_diagnostic",
    "generalization_bound",
}

FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=1e-6, max_value=1e6)
NONNEGATIVE = st.floats(min_value=0.0, max_value=1e6)
# 0, or 1/alpha and eta * (1/alpha) finite for any eta up to 1e6
ALPHAS = st.just(0.0) | st.floats(min_value=1e-300, max_value=1e6)
OPEN_UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
SEEDS = st.integers(0, 2**64 - 1)


@st.composite
def experiment_configs(draw):
    """Valid configs that set every config key, optional ones included."""
    k = draw(st.integers(1, 20))
    mode = draw(st.sampled_from(AGGREGATOR_MODES))
    iterative = mode in ("metafl_mirror", "metafl_projected")  # these need eta > 0
    return ExperimentConfig(
        spec=ModelSpec(
            input_dim=draw(st.integers(1, 64)),
            hidden_dim=draw(st.integers(0, 64)),
            num_classes=draw(st.integers(2, 10)),
            activation=draw(st.sampled_from(ACTIVATIONS)),
        ),
        data=DataConfig(
            n_samples=draw(st.integers(2, 10**6)),
            spread=draw(POSITIVE),
            global_val_fraction=draw(OPEN_UNIT),
            csv_path=draw(st.none() | st.text("ab./_-", min_size=1, max_size=8)),
        ),
        partition=PartitionConfig(
            num_clients=k,
            dirichlet_beta=draw(POSITIVE),
            val_fraction=draw(OPEN_UNIT),
            noise_clients=draw(st.frozensets(st.integers(0, k - 1))),
            label_noise_rate=draw(st.floats(0.0, 1.0, exclude_max=True)),
            seed=draw(SEEDS),
        ),
        train=TrainConfig(
            learning_rate=draw(POSITIVE),
            epochs=draw(st.integers(0, 10)),
            batch_size=draw(st.integers(1, 512)),
            seed=draw(SEEDS),
            l2=draw(NONNEGATIVE),
        ),
        meta=MetaParams(
            alpha=draw(ALPHAS),
            lam=draw(NONNEGATIVE),
            eta=draw(POSITIVE if iterative else NONNEGATIVE),
            max_iters=draw(st.integers(1, 1000)),
            tol=draw(OPEN_UNIT),
            c=CompositeErrorConfig(
                c=draw(st.tuples(*[FINITE] * 5)), normalize=draw(st.booleans())
            ),
        ),
        rounds=draw(st.integers(1, 100)),
        aggregator_mode=mode,
        alpha_grid=tuple(draw(st.just([]) | st.lists(ALPHAS, min_size=2, max_size=5))),
        seed=draw(SEEDS),
        target_accuracy=draw(st.floats(0.0, 1.0, exclude_min=True)),
        log_h=draw(NONNEGATIVE),
    )


@st.composite
def config_texts(draw):
    """Echoes of valid configs with values replaced, lines dropped and junk added."""
    lines = serialize_config(draw(experiment_configs())).splitlines()
    bad = st.one_of(st.integers(-3, 3).map(str), st.floats().map(repr), st.text(max_size=6))
    for i in draw(st.lists(st.integers(0, len(lines) - 1), max_size=3)):
        lines[i] = lines[i].partition("=")[0] + "= " + draw(bad)
    dropped = draw(st.sets(st.integers(0, len(lines) - 1), max_size=2))
    lines = [line for i, line in enumerate(lines) if i not in dropped]
    return "\n".join(draw(st.permutations(lines + draw(st.lists(st.text(), max_size=1)))))


@pytest.fixture(autouse=True)
def no_seed_env(monkeypatch):
    monkeypatch.delenv("METAFL_SEED", raising=False)


def write(tmp_path, text, name="cfg.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConfigParsing:
    def test_minimal_config(self, tmp_path):
        cfg = load_config(write(tmp_path, MINIMAL))
        assert cfg.rounds == 2
        assert cfg.partition.num_clients == 2

    def test_missing_rounds(self, tmp_path):
        with pytest.raises(ConfigError, match="rounds"):
            load_config(write(tmp_path, "partition.num_clients = 2\n"))

    def test_unknown_key(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key 'modle.input_dim'"):
            load_config(write(tmp_path, MINIMAL + "modle.input_dim = 3\n"))

    def test_bad_value_names_key(self, tmp_path):
        with pytest.raises(ConfigError, match="train.learning_rate"):
            load_config(write(tmp_path, MINIMAL + "train.learning_rate = fast\n"))

    def test_invalid_section_value(self, tmp_path):
        with pytest.raises(ConfigError, match="model"):
            load_config(write(tmp_path, MINIMAL + "model.num_classes = 1\n"))

    def test_duplicate_key(self, tmp_path):
        with pytest.raises(ConfigError, match="duplicate"):
            load_config(write(tmp_path, MINIMAL + "rounds = 3\n"))

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config("/nonexistent/config.txt")

    def test_comments_and_blanks_ignored(self, tmp_path):
        cfg = load_config(write(tmp_path, "# top\n\n" + MINIMAL + "\n# tail\n"))
        assert cfg.rounds == 2

    def test_echo_round_trips(self, tmp_path):
        cfg = load_config(write(tmp_path, SMALL))
        echoed = load_config(write(tmp_path, serialize_config(cfg), "echo.txt"))
        assert echoed == cfg

    def test_seed_env_override(self, tmp_path, monkeypatch):
        path = write(tmp_path, SMALL)
        monkeypatch.setenv("METAFL_SEED", "99")
        assert load_config(path).seed == 99
        monkeypatch.setenv("METAFL_SEED", "abc")
        with pytest.raises(ConfigError, match="METAFL_SEED"):
            load_config(path)
        monkeypatch.setenv("METAFL_SEED", "-1")
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            load_config(path)

    def test_presets_all_build(self):
        for name in PRESETS:
            cfg = load_config(name)
            assert cfg.rounds >= 1

    @settings(max_examples=200, deadline=None)
    @given(cfg=experiment_configs())
    def test_echo_round_trips_random_configs(self, cfg):
        assert build_config(_parse_raw(serialize_config(cfg))) == cfg

    @settings(max_examples=200, deadline=None)
    @given(
        text=st.text() | config_texts(),
        seed_env=st.none()
        | st.integers(-3, 3).map(str)
        | st.text("0123456789-+ x", max_size=3),
    )
    def test_fuzzed_text_is_config_or_config_error(self, tmp_path_factory, text, seed_env):
        path = tmp_path_factory.getbasetemp() / "fuzzed.cfg"
        path.write_text(text, encoding="utf-8")
        with pytest.MonkeyPatch.context() as patch:
            if seed_env is not None:
                patch.setenv("METAFL_SEED", seed_env)
            try:
                cfg = load_config(str(path))
            except ConfigError:
                return
        assert build_config(_parse_raw(serialize_config(cfg))) == cfg

    def test_readme_config_block_matches_keys(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
        shown = {}  # key -> (uncommented, value)
        for line in block.splitlines():
            match = re.match(r"(#\s*)?([\w.]+)\s*=\s*(.*?)\s*(#.*)?$", line)
            if match:
                shown[match[2]] = (match[1] is None, match[3])
        assert set(shown) == {row.key for row in _KEYS}
        required = {key: shown[key][1] for key in ("rounds", "partition.num_clients")}
        defaults = {
            key: value
            for key, (uncommented, value) in shown.items()
            if uncommented and key not in required and value != "<seed-derived>"
        }
        assert build_config({**required, **defaults}) == build_config(required)


class TestCmdRun:
    @pytest.mark.parametrize(
        "name", ["missing_rounds", "fewer_samples_than_clients", *CONFIG_ERRORS]
    )
    def test_config_error_exit_2(self, tmp_path, name):
        check(CASES[name], tmp_path)

    def test_minimal_run(self, tmp_path):
        out = tmp_path / "out"
        assert cmd_run(write(tmp_path, MINIMAL), str(out)) == 0
        rows = (out / "rounds.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 2  # header + T data rows
        header = rows[0].split(",")
        assert header[:5] == [
            "round", "alpha_used", "global_val_loss", "global_val_accuracy", "phi_value",
        ]
        assert "w_0" in header and "w_1" in header
        assert "client_val_loss_1" in header
        assert header[-1] == "wall_ms"

    def test_rerun_bytes_identical(self, tmp_path):
        path = write(tmp_path, SMALL)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cmd_run(path, str(out_a), no_timing=True) == 0
        assert cmd_run(path, str(out_b), no_timing=True) == 0
        for name in ("rounds.csv", "summary.json", "config_echo.txt"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_no_timing_drops_column(self, tmp_path):
        path = write(tmp_path, MINIMAL)
        out = tmp_path / "out"
        assert cmd_run(path, str(out), no_timing=True) == 0
        assert "wall_ms" not in (out / "rounds.csv").read_text()

    def test_summary_schema(self, tmp_path):
        out = tmp_path / "out"
        assert cmd_run(write(tmp_path, SMALL), str(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary) == SUMMARY_KEYS
        assert len(summary["weights_final"]) == 2

    def test_csv_cells_are_full_precision(self, tmp_path):
        out = tmp_path / "out"
        assert cmd_run(write(tmp_path, SMALL), str(out)) == 0
        rows = (out / "rounds.csv").read_text().strip().splitlines()
        header = rows[0].split(",")
        cells = rows[1].split(",")
        loss = float(cells[header.index("global_val_loss")])
        # a 17-significant-digit decimal round-trips float64 exactly
        assert format(loss, ".17g") == cells[header.index("global_val_loss")]

    def test_config_echo_round_trips(self, tmp_path):
        path = write(tmp_path, SMALL)
        out = tmp_path / "out"
        assert cmd_run(path, str(out)) == 0
        echoed = load_config(str(out / "config_echo.txt"))
        assert echoed == load_config(path)

    def test_relative_csv_path_is_beside_config(self, tmp_path, monkeypatch):
        pool = make_blobs(2, 2, 60, 0.5, 3)
        (tmp_path / "dir").mkdir()
        save_csv(pool, str(tmp_path / "dir" / "pool.csv"))
        write(tmp_path / "dir", MINIMAL + "data.csv_path = pool.csv\n")
        monkeypatch.chdir(tmp_path)
        assert main(["run", "dir/cfg.txt", "-o", "out", "--no-timing"]) == 0
        echoed = load_config("out/config_echo.txt")
        assert os.path.isabs(echoed.data.csv_path)
        assert os.path.samefile(echoed.data.csv_path, tmp_path / "dir" / "pool.csv")
        assert echoed == load_config("dir/cfg.txt")

    def test_runtime_failure_exit_3(self, tmp_path):
        check(CASES["ridge_overflow"], tmp_path)

    @pytest.mark.parametrize(
        "name",
        ["training_diverges_two_clients", "update_norm_overflows", "validation_logits_overflow"],
        ids=["training", "meta-features", "scoring"],
    )
    def test_divergence_writes_one_line(self, tmp_path, name):
        check(CASES[name], tmp_path)

    def test_extra_epoch_divergence_fails_only_when_weighted(self, tmp_path):
        """At this rate, found by bisection, the round and its extra epoch
        at 1x stay finite and only the 1.5x epoch diverges, for client 2 of
        4: member 6 of the one 2K-member call. Its row fails the run only
        when lr_sensitivity, the column it feeds, is weighted: the contract
        rows extra_epoch_weighted and extra_epoch_unweighted."""
        cfg = load_config(write(tmp_path, DIVERGE_AT_1_5X))
        (train, _), _, theta = set_up(cfg)
        round_train = replace(cfg.train, seed=derive_seed(cfg.train.seed, 1))
        thetas = train_cohort(cfg.spec, np.tile(theta.coords, (4, 1)), train, round_train)
        rates = np.repeat([1.0, 1.5], 4) * cfg.train.learning_rate
        with pytest.raises(ClientError) as info:
            train_cohort(cfg.spec, np.tile(thetas, (2, 1)), train, replace(round_train, epochs=1),
                         rates)
        assert info.value.index == 6
        train_cohort(cfg.spec, thetas, train, replace(round_train, epochs=1))  # the 1x half alone

    @pytest.mark.parametrize("name", ["holdout_overflows", "holdout_overflows_grid"],
                             ids=["fixed", "grid"])
    def test_server_evaluation_overflow_writes_one_line(self, tmp_path, name):
        check(CASES[name], tmp_path)

    def test_huge_alpha_weights_the_least_loss(self, tmp_path):
        # -alpha * E overflows; the closed form's limit is all weight on the
        # client with the least loss (meta.c = 0, so E is the loss)
        header, row = (check(CASES["huge_alpha"], tmp_path) / "rounds.csv").read_text().splitlines()
        cells = dict(zip(header.split(","), map(float, row.split(","))))
        losses = [cells[f"client_val_loss_{k}"] for k in range(4)]
        weights = [cells[f"w_{k}"] for k in range(4)]
        assert weights == [float(k == int(np.argmin(losses))) for k in range(4)]

    def test_projected_step_too_large_exit_3(self, tmp_path):
        check(CASES["projected_step_too_large"], tmp_path)

    @pytest.mark.parametrize("name", ["bad_label", "non_numeric", "ragged", "dim_mismatch"])
    def test_malformed_csv_pool_exit_2(self, tmp_path, name):
        check(CASES[f"csv_{name}"], tmp_path)

    def test_programming_error_prints_traceback(self, tmp_path, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise TypeError("unsupported operand")

        monkeypatch.setattr(federation, "meta_agg", broken)
        cfg = load_config("preset_iid")
        with pytest.raises(TypeError, match="unsupported operand"):
            federation.run_experiment(cfg)
        assert cmd_run("preset_iid", str(tmp_path / "out")) == 3
        err = capsys.readouterr().err
        assert err.startswith("Traceback (most recent call last):")
        assert err.rstrip().endswith("TypeError: unsupported operand")
        assert "runtime error" not in err

    def test_summary_contraction_keeps_tau_without_search(self, tmp_path):
        # one alpha and no grid: summary.json's contraction is diagnose's
        # |1 - eta * tau| = 0.95 at tau = 1/alpha = 0.5
        cfg = "rounds = 2\npartition.num_clients = 4\naggregator = metafl_mirror\nmeta.alpha = 2\n"
        path = write(tmp_path, cfg)
        assert cmd_run(path, str(tmp_path / "run"), no_timing=True) == 0
        assert cmd_diagnose(path, str(tmp_path / "diag")) == 0
        run = json.loads((tmp_path / "run" / "summary.json").read_text())
        diag = json.loads((tmp_path / "diag" / "diagnostics.json").read_text())
        assert run["contraction_estimate"] == diag["contraction_estimate"]
        assert run["contraction_estimate"] == pytest.approx(0.95)

    def test_preset_by_name(self, tmp_path):
        out = tmp_path / "out"
        assert cmd_run("preset_iid", str(out)) == 0
        rows = (out / "rounds.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 10

    def test_converged_run_writes_nothing_to_stderr(self, tmp_path, capsys):
        assert cmd_run("preset_iid", str(tmp_path / "out"), no_timing=True) == 0
        assert capsys.readouterr().err == ""

    def test_unconverged_solve_warns_once_per_round(self, tmp_path, capsys):
        text = SMALL.replace("metafl_closed", "metafl_projected") + "meta.max_iters = 1\n"
        out = tmp_path / "out"
        assert cmd_run(write(tmp_path, text), str(out), no_timing=True) == 0
        lines = capsys.readouterr().err.splitlines()
        assert [line.split(":")[:2] for line in lines] == [
            ["warning", " round 1"], ["warning", " round 2"],
        ]
        assert all("metafl_projected solve stopped after 1 iterations" in line for line in lines)
        assert all(">= meta.tol 1e-10" in line for line in lines)
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary) == SUMMARY_KEYS


class TestCmdCompare:
    def test_same_file_twice(self, tmp_path):
        path = write(tmp_path, SMALL)
        out = tmp_path / "out"
        assert cmd_compare(path, path, str(out)) == 0
        rows = (out / "compare.csv").read_text().strip().splitlines()
        header = rows[0].split(",")
        assert "rounds_to_target_a" in header and "rounds_to_target_b" in header
        for row in rows[1:]:
            cells = dict(zip(header, row.split(",")))
            assert float(cells["accuracy_diff"]) == 0.0
        summary = json.loads((out / "compare_summary.json").read_text())
        assert summary["winner"] == "tie"

    def test_different_seeds_rejected(self, tmp_path):
        check(CASES["different_seeds"], tmp_path)

    def test_preset_pair_schema(self, tmp_path):
        out = tmp_path / "out"
        assert cmd_compare("preset_iid", "preset_iid_fedavg", str(out)) == 0
        header = (out / "compare.csv").read_text().splitlines()[0].split(",")
        assert "rounds_to_target_a" in header and "rounds_to_target_b" in header


class TestCmdDiagnose:
    def test_diagnostics_payload(self, tmp_path):
        cfg = (
            "rounds = 1\n"
            "seed = 3\n"
            "partition.num_clients = 4\n"
            "partition.dirichlet_beta = 1000000.0\n"
            "data.n_samples = 400\n"
            "meta.eta = 0.0\n"
        )
        out = tmp_path / "out"
        assert cmd_diagnose(write(tmp_path, cfg), str(out)) == 0
        payload = json.loads((out / "diagnostics.json").read_text())
        assert payload["contraction_estimate"] == 1.0  # eta = 0 is the identity map
        assert payload["kl_diagnostic"] < 0.05  # IID partition
        assert payload["jensen_gap"] >= -1e-9  # convex hidden_dim=0 loss
        assert payload["generalization_bound"] > 0.0

    def test_overflowing_holdout_writes_one_line(self, tmp_path):
        check(CASES["holdout_overflows_diagnose"], tmp_path)

    def test_default_eta_contracts(self, tmp_path):
        cfg = MINIMAL + "data.n_samples = 200\n"
        out = tmp_path / "out"
        assert cmd_diagnose(write(tmp_path, cfg), str(out)) == 0
        payload = json.loads((out / "diagnostics.json").read_text())
        assert payload["contraction_estimate"] < 1.0

    def test_fedavg_config_weights_features_like_closed(self, tmp_path):
        # diagnose aggregates in closed form whatever the mode, so a fedavg
        # config's nonzero meta.c must still reach the composite errors
        cfg = MINIMAL + "data.n_samples = 200\nmeta.c = 0,1,0,2,0\n"
        payloads = []
        for mode in ("fedavg", "metafl_closed"):
            path = write(tmp_path, cfg + f"aggregator = {mode}\n", f"{mode}.txt")
            assert cmd_diagnose(path, str(tmp_path / mode)) == 0
            payloads.append((tmp_path / mode / "diagnostics.json").read_bytes())
        assert payloads[0] == payloads[1]

    def test_computes_no_aggregate(self, tmp_path, monkeypatch):
        # diagnose writes the closed-form weights' Jensen gap, which needs
        # the weights and the plain weighted mean, never the shrunk aggregate
        def broken(*args, **kwargs):
            raise RuntimeError("aggregate called")

        monkeypatch.setattr(aggregator, "aggregate", broken)
        assert cmd_diagnose(write(tmp_path, MINIMAL), str(tmp_path / "out")) == 0


@pytest.mark.parametrize("command", [cmd_run, cmd_diagnose])
def test_builds_federation_once(tmp_path, monkeypatch, command):
    calls = []
    original = federation.build_federation
    monkeypatch.setattr(
        federation, "build_federation", lambda cfg: calls.append(cfg) or original(cfg)
    )
    assert command(write(tmp_path, MINIMAL), str(tmp_path / "out")) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("command", COMMANDS)
def test_data_setup_fault_leaves_no_output_dir(tmp_path, command):
    check(CASES[f"too_few_samples_{command}"], tmp_path)


@pytest.mark.parametrize("command", COMMANDS)
def test_runtime_failure_leaves_no_output_dir(tmp_path, command):
    check(CASES[f"training_diverges_{command}"], tmp_path)


def test_unwritable_output_is_config_error(tmp_path):
    check(CASES["unwritable_output"], tmp_path)


@pytest.mark.parametrize("command, name", [(cmd_run, "summary.json"),
                                           (cmd_diagnose, "diagnostics.json")])
def test_non_finite_json_value_leaves_no_output_dir(tmp_path, monkeypatch, capsys, command, name):
    # JSON has no Infinity; the config rules keep it out, and this is the backstop
    monkeypatch.setattr(cli, "contraction_estimate", lambda errors, mp: float("inf"))
    out = tmp_path / "out"
    assert command(write(tmp_path, MINIMAL), str(out)) == 3
    assert capsys.readouterr().err == (
        f"runtime error: {name}: a value is not finite, which JSON cannot hold\n")
    assert not out.exists()


class TestMain:
    def test_dispatch_run(self, tmp_path):
        path = write(tmp_path, MINIMAL)
        assert main(["run", path, "-o", str(tmp_path / "out"), "--no-timing"]) == 0

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0


@pytest.mark.parametrize("name", CASES)
def test_contract_case(tmp_path, name):
    """Every row of the CLI failure contract, through cli.main in process."""
    check(CASES[name], tmp_path)
