"""Command-line front end: config parsing, outputs, exit codes."""

import json

import pytest

from metafl.cli import (
    PRESETS,
    ConfigError,
    cmd_compare,
    cmd_diagnose,
    cmd_run,
    load_config,
    main,
    serialize_config,
)

MINIMAL = "rounds = 2\npartition.num_clients = 2\n"

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

    def test_presets_all_build(self):
        for name in PRESETS:
            cfg = load_config(name)
            assert cfg.rounds >= 1


class TestCmdRun:
    def test_missing_rounds_exit_2(self, tmp_path, capsys):
        code = cmd_run(write(tmp_path, "partition.num_clients = 2\n"), str(tmp_path / "out"))
        assert code == 2
        assert "rounds" in capsys.readouterr().err

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
        assert set(summary) == {
            "terminal_accuracy",
            "terminal_loss",
            "rounds_to_target",
            "weights_final",
            "alpha_final",
            "contraction_estimate",
            "kl_diagnostic",
            "generalization_bound",
        }
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

    def test_runtime_failure_exit_3(self, tmp_path, capsys):
        bad_csv = tmp_path / "bad.csv"
        bad_csv.write_text("1.0,2.0,3.0,0\n0.5,1.5,2.5,1\n")  # 3 features, model wants 2
        cfg = MINIMAL + f"data.csv_path = {bad_csv}\n"
        code = cmd_run(write(tmp_path, cfg), str(tmp_path / "out"))
        assert code == 3
        assert "runtime error" in capsys.readouterr().err

    def test_preset_by_name(self, tmp_path):
        out = tmp_path / "out"
        assert cmd_run("preset_iid", str(out)) == 0
        rows = (out / "rounds.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 10


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

    def test_different_seeds_rejected(self, tmp_path, capsys):
        a = write(tmp_path, SMALL, "a.txt")
        b = write(tmp_path, SMALL.replace("seed = 7", "seed = 8"), "b.txt")
        assert cmd_compare(a, b, str(tmp_path / "out")) == 2
        assert "share data setup" in capsys.readouterr().err

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


class TestMain:
    def test_dispatch_run(self, tmp_path):
        path = write(tmp_path, MINIMAL)
        assert main(["run", path, "-o", str(tmp_path / "out"), "--no-timing"]) == 0

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0
