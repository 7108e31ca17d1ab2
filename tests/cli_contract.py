"""The contract of the metafl command line, as one table of cases.

A failure exits 2 or 3 and prints exactly one line, `config error: ` or
`runtime error: ` and a message that the case's pattern matches in full
(so no traceback or numpy warning), and leaves the output path as it
found it. A success exits 0 with nothing on stderr. A pattern's `{dir}`
stands for the directory that holds the case's files. The goldens are
rows too (`GOLDENS`, checked by `check_golden`): each exits 0 with an
empty stderr and writes the files under tests/golden/<case>/ byte for
byte. tests/test_cli.py and tests/test_golden.py check every row in
process; `python tests/cli_contract.py` checks every row through the
installed `metafl` script, and exits 1 if one fails. It imports only
the standard library, numpy and metafl.
"""

from __future__ import annotations

import contextlib
import errno
import io
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from typing import Callable, NamedTuple

from metafl.cli import PRESETS, main
from metafl.datagen import make_blobs

PREFIX = {2: "config error: ", 3: "runtime error: "}
GOLDEN = Path(__file__).parent / "golden"
FEATURES_CFG = str(GOLDEN / "metafl_features.cfg")
RUN_FILES = ("rounds.csv", "summary.json", "config_echo.txt")


class Case(NamedTuple):
    """A command (run, diagnose, or compare of the config with b.txt if
    the case has that file, else with itself) on a config text, with
    further files beside the config (a path ending in / is a directory),
    and the exit code and message pattern it must give."""

    name: str
    command: str
    config: str
    code: int
    line: str = ""
    files: dict[str, str] = {}


def _overflowing_pool() -> str:
    """A CSV pool whose row 7, which seed 3 puts in the server holdout,
    holds features of 1e308: they overflow any model's logits."""
    pool = make_blobs(2, 2, 200, 0.5, 1)
    rows = pool.features.tolist()
    rows[7] = [1e308] * len(rows[7])
    return "".join(",".join(map(repr, [*x, y])) + "\n" for x, y in zip(rows, pool.labels.tolist()))


MINIMAL = "rounds = 2\npartition.num_clients = 2\n"
ONE_ROUND = "rounds = 1\npartition.num_clients = 4\n"
DIVERGES = ONE_ROUND + "model.hidden_dim = 4\ntrain.learning_rate = 1e306\n"
#: A rate at which only the extra 1.5x meta-feature epoch diverges, for client 2.
DIVERGE_AT_1_5X = ONE_ROUND + "model.hidden_dim = 4\ntrain.learning_rate = 4e39\n"
HOLDOUT = "seed = 3\nrounds = 1\npartition.num_clients = 2\ndata.csv_path = pool.csv\n"
HOLDOUT_POOL = {"pool.csv": _overflowing_pool()}
SECTION = r"invalid '{}\.\*' section: "
CSV_KEY = r"invalid value for key 'data\.csv_path' \({}\): "
POOL_CSV = CSV_KEY.format(r"{dir}/pool\.csv")
IS_A_DIRECTORY = re.escape(os.strerror(errno.EISDIR))
POOL = r"invalid data set-up \(synthetic pool, data\.n_samples = {}, data\.spread = {}\): "
POSITIVE = " must be finite and positive"
FINITE_RATE = "learning_rate" + POSITIVE
SEED = "seed must be >= 0"
RATE = r"train\.learning_rate \* 1\.5 must be finite while meta\.c weights lr_sensitivity"
STEP = (r"meta\.eta \* tau must be finite for meta\.alpha and every alpha_grid entry, "
        r"with tau = 1/alpha")
LOG_H = r"diagnostics\.log_h \* 2 must be finite"
#: One client whose ridge step overflows the holdout losses' sum, not its rows' losses.
LOSS_SUM_OVERFLOWS = ("rounds = 2\npartition.num_clients = 1\ntrain.l2 = 1.7e308\n"
                      "model.activation = tanh\ndata.global_val_fraction = 0.99\n"
                      "model.num_classes = 5\n")
DIVERGED = "round 1, client 0: training diverged to non-finite parameters in epoch {}"
COMMANDS = ("run", "diagnose", "compare")

#: run's config errors on MINIMAL plus some lines: (the lines, the message pattern).
CONFIG_ERRORS = {
    "negative_seed": ("seed = -3", SEED),
    "negative_partition_seed": ("partition.seed = -4", SECTION.format("partition") + SEED),
    "negative_train_seed": ("train.seed = -1", SECTION.format("train") + SEED),
    "nan_learning_rate": ("train.learning_rate = nan", SECTION.format("train") + FINITE_RATE),
    "inf_learning_rate": ("train.learning_rate = inf", SECTION.format("train") + FINITE_RATE),
    "nan_l2": ("train.l2 = nan", SECTION.format("train") + "l2 must be finite and >= 0"),
    "inf_spread": ("data.spread = inf", SECTION.format("data") + "spread" + POSITIVE),
    "nan_dirichlet_beta": ("partition.dirichlet_beta = nan",
                           SECTION.format("partition") + "dirichlet_beta" + POSITIVE),
    "nan_log_h": ("diagnostics.log_h = nan", "log_h must be finite and >= 0"),
    "inf_log_h": ("diagnostics.log_h = inf", "log_h must be finite and >= 0"),
    "inf_tau": ("meta.tau = inf", r"unknown key 'meta\.tau'"),
    "empty_csv_path": ("data.csv_path =", CSV_KEY.format("") + "missing file: "),
    "missing_csv_path": ("data.csv_path = nope.csv",
                         CSV_KEY.format(r"{dir}/nope\.csv") + r"missing file: {dir}/nope\.csv"),
    "csv_path_is_directory": ("data.csv_path = .", CSV_KEY.format(r"{dir}/\.")
                              + r"cannot read file {dir}/\.: " + IS_A_DIRECTORY),
    "fewer_samples_than_classes": ("data.n_samples = 3\nmodel.num_classes = 5",
                                   POOL.format(3, 0.5) + "need at least one sample per class"),
    "holdout_takes_every_sample": ("data.n_samples = 4\ndata.global_val_fraction = 0.9",
                                   POOL.format(4, 0.5)
                                   + "global validation holdout would consume every sample"),
    "unknown_aggregator": ("aggregator = metafl_newton",
                           r"aggregator must be one of \('metafl_closed', 'metafl_mirror', "
                           r"'metafl_projected', 'fedavg'\), got 'metafl_newton'"),
    "subnormal_alpha_grid": ("alpha_grid = 0,5e-324",
                             "alpha_grid entries must be finite and >= 0, with a finite 1/alpha"),
    "one_entry_alpha_grid": ("alpha_grid = 5",
                             r"alpha_grid needs 0 or 2\+ entries; set one alpha with meta\.alpha"),
    "subnormal_alpha": ("meta.alpha = 5e-324",
                        SECTION.format("meta") + "alpha must be 0 or have a finite 1/alpha"),
    "zero_eta_mirror": ("aggregator = metafl_mirror\nmeta.alpha = 5\nmeta.eta = 0",
                        r"meta\.eta must be > 0 for aggregator metafl_mirror"),
    "zero_eta_projected": ("aggregator = metafl_projected\nmeta.alpha = 5\nmeta.eta = 0",
                           r"meta\.eta must be > 0 for aggregator metafl_projected"),
    "overflowing_spread": ("data.spread = 1.7e308", POOL.format(400, r"1\.7e\+308")
                           + "features contain non-finite values"),
    "overflowing_extra_epoch_rate": (
        "train.epochs = 0\ntrain.learning_rate = 1.5e308\nmeta.c = 0,0,0,0,1", RATE),
    # the contraction estimate |1 - eta * tau| and the bound's 2 * log_h would be Infinity
    "overflowing_contraction_step": ("meta.alpha = 1e-300\nmeta.eta = 1e10", STEP),
    "overflowing_contraction_step_grid": ("alpha_grid = 0,1e-300\nmeta.eta = 1e10", STEP),
    "overflowing_log_h": ("diagnostics.log_h = 1.7e308", LOG_H),
}

CASES = {case.name: case for case in (
    Case("missing_rounds", "run", "partition.num_clients = 2\n", 2,
         "missing required key 'rounds'"),
    *(Case(name, "run", f"{MINIMAL}{lines}\n", 2, line)
      for name, (lines, line) in CONFIG_ERRORS.items()),
    # diagnose weights meta.c whatever the mode
    Case("overflowing_extra_epoch_rate_diagnose", "diagnose", MINIMAL + "aggregator = fedavg\n"
         + CONFIG_ERRORS["overflowing_extra_epoch_rate"][0], 2, RATE),
    # the second row's unconverged solves must not warn before its write fails
    *(Case(f"unwritable_output{name}", "run", MINIMAL + lines, 2,
           r"cannot write {dir}/out/rounds\.csv: " + IS_A_DIRECTORY, {"out/rounds.csv/": ""})
      for name, lines in [("", ""),
                          ("_unconverged", "aggregator = metafl_projected\nmeta.max_iters = 1\n")]),
    Case("fewer_samples_than_clients", "run",
         "rounds = 2\npartition.num_clients = 50\ndata.n_samples = 20\n", 2,
         POOL.format(20, 0.5) + r"infeasible \(n < K\): 16 samples for 50 clients"),
    *(Case(f"too_few_samples_{command}", command,
           "rounds = 1\npartition.num_clients = 50\ndata.n_samples = 20\n", 2,
           POOL.format(20, 0.5) + r"infeasible \(n < K\): 16 samples for 50 clients")
      for command in COMMANDS),
    *(Case(f"csv_{name}", "run", MINIMAL + "data.csv_path = pool.csv\n", 2, POOL_CSV + line,
           {"pool.csv": pool})
      for name, pool, line in [
          ("bad_label", "1.0,2.0,0\n1.0,2.0,7\n", r"row 2: label 7 out of range \[0, 2\)"),
          ("non_numeric", "1.0,2.0,0\n1.0,x,1\n", "row 2: non-numeric cell 'x' in column 1"),
          ("ragged", "1.0,2.0,0\n1.0,1\n", "row 2: ragged row with 2 cells, expected 3"),
          ("dim_mismatch", "1.0,2.0,3.0,0\n0.5,1.5,2.5,1\n",
           "csv feature dim 3 does not match model input_dim 2"),
      ]),
    *(Case(f"training_diverges_{command}", command, DIVERGES, 3, DIVERGED.format(1))
      for command in COMMANDS),
    Case("training_diverges_two_clients", "run",
         MINIMAL + "model.hidden_dim = 4\ntrain.learning_rate = 1e306\n", 3, DIVERGED.format(1)),
    # a step of 1e300 on the ridge term overflows the parameters
    Case("ridge_overflow", "run", MINIMAL + "train.learning_rate = 1e300\ntrain.l2 = 1\n", 3,
         DIVERGED.format(1)),
    # a smaller step overflows the parameters only in the last of three epochs
    Case("ridge_overflow_third_epoch", "run",
         MINIMAL + "train.epochs = 3\ntrain.learning_rate = 1e30\ntrain.l2 = 1\n", 3,
         DIVERGED.format(3)),
    # the update norm overflows; it fails the run only when weighted
    Case("update_norm_overflows", "run",
         MINIMAL + "meta.c = 0,0,1,1,0\ntrain.learning_rate = 1e300\n", 3,
         "round 1, client 0: meta-features: meta-features must be finite"),
    # training stays finite, but its weights overflow the validation logits
    Case("validation_logits_overflow", "run", DIVERGES.replace("1e306", "1e60"), 3,
         "round 1, client 2: val_loss must be finite"),
    Case("extra_epoch_weighted", "run", DIVERGE_AT_1_5X + "meta.c = 0,0,0,0,1\n", 3,
         "round 1, client 2: meta-features: training diverged to non-finite parameters "
         "in epoch 1"),
    Case("extra_epoch_unweighted", "run", DIVERGE_AT_1_5X + "meta.c = 0,0,1,1,0\n", 0),
    *(Case(f"holdout_overflows{name}", "run", HOLDOUT + grid, 3,
           "round 1, server evaluation: val_loss must be finite", HOLDOUT_POOL)
      for name, grid in [("", ""), ("_grid", "alpha_grid = 0,1,5\n")]),
    Case("holdout_overflows_diagnose", "diagnose", HOLDOUT, 3,
         "jensen_gap: a holdout loss is not finite", HOLDOUT_POOL),
    # each row's loss is finite, but their mean overflows: no numpy warning
    Case("holdout_loss_sum_overflows", "run", LOSS_SUM_OVERFLOWS + "alpha_grid = 0,1\n", 3,
         "round 1, server evaluation: val_loss must be finite"),
    Case("holdout_loss_sum_overflows_diagnose", "diagnose", LOSS_SUM_OVERFLOWS, 3,
         "jensen_gap: a holdout loss is not finite"),
    Case("overflowing_log_h_diagnose", "diagnose", MINIMAL + CONFIG_ERRORS["overflowing_log_h"][0]
         + "\n", 2, LOG_H),
    # the projected step's targets lie where the simplex projection rounds away
    Case("projected_step_too_large", "run",
         MINIMAL + "aggregator = metafl_projected\nmeta.eta = 1e300\n", 3,
         "round 1, aggregation: entries too large to project onto the simplex in float64"),
    Case("mirror_step_overflows", "run",
         ONE_ROUND + "aggregator = metafl_mirror\nmeta.eta = 1e308\nmeta.alpha = 1\n", 3,
         "round 1, aggregation: divergence in mirror solver at iteration 2"),
    *(Case(f"composite_error_overflows_{command}", command,
           "rounds = 1\npartition.num_clients = 2\nmeta.c = 1.7e308,1.7e308,0,0,0\n", 3,
           "round 1, aggregation: non-finite error metric") for command in ("run", "diagnose")),
    # -alpha * E overflows; the closed form's limit is no failure
    Case("huge_alpha", "run", ONE_ROUND + "model.num_classes = 8\nmodel.input_dim = 4\n"
         "data.n_samples = 400\ntrain.epochs = 0\nmeta.alpha = 1.7e308\n", 0),
    Case("different_seeds", "compare", "seed = 7\n" + MINIMAL, 2, "configs must share data setup",
         {"b.txt": "seed = 8\n" + MINIMAL}),
)}


#: The goldens, as rows of the contract: case name -> (the command's
#: arguments without -o, the files that tests/golden/<case>/ pins).
GOLDENS = {
    **{name: (["run", name, "--no-timing"], RUN_FILES) for name in PRESETS},
    "compare_noisy": (["compare", "preset_noisy_clients", "preset_noisy_clients_fedavg"],
                      ("compare.csv", "compare_summary.json")),
    "diagnose_iid": (["diagnose", "preset_iid"], ("diagnostics.json",)),
    "diagnose_features": (["diagnose", FEATURES_CFG], ("diagnostics.json",)),
    "metafl_features": (["run", FEATURES_CFG, "--no-timing"], RUN_FILES),
}


def in_process(argv: list[str]) -> tuple[int, str]:
    """cli.main's exit code and stderr, with each warning it raises
    printed there too, as the console script prints it."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    shown = (warnings.formatwarning(w.message, w.category, w.filename, w.lineno) for w in caught)
    return code, err.getvalue() + "".join(shown)


def console(argv: list[str]) -> tuple[int, str]:
    """The installed metafl script's exit code and stderr."""
    env = {key: value for key, value in os.environ.items() if key != "METAFL_SEED"}
    done = subprocess.run(["metafl", *argv], capture_output=True, text=True, env=env)
    return done.returncode, done.stderr


def _tree(path: Path) -> list[str] | None:
    return sorted(map(str, path.rglob("*"))) if path.exists() else None


def check(case: Case, workdir: Path,
          run: Callable[[list[str]], tuple[int, str]] = in_process) -> Path:
    """Write the case's files into the empty directory workdir, run its
    command through run (argv -> exit code, stderr) with the output path
    workdir/out, and assert the contract. Returns the output path."""
    for name, text in {"cfg.txt": case.config, **case.files}.items():
        path = workdir / name
        path.parent.mkdir(parents=True, exist_ok=True)
        if name.endswith("/"):
            path.mkdir()
        else:
            path.write_text(text, encoding="utf-8")
    config, out = str(workdir / "cfg.txt"), workdir / "out"
    second = str(workdir / "b.txt") if "b.txt" in case.files else config
    configs = [config, second] if case.command == "compare" else [config]
    before = _tree(out)
    code, err = run([case.command, *configs, "-o", str(out)])
    shown = f"{case.name}: exit {code}, stderr:\n{err}"
    assert code == case.code, shown
    if code == 0:
        assert err == "", shown
    else:
        line = re.escape(PREFIX[code]) + case.line.replace("{dir}", re.escape(str(workdir)))
        assert len(err.splitlines()) == 1 and re.fullmatch(line, err.rstrip("\n")), shown
        assert _tree(out) == before, f"{case.name}: the output path changed from {before}"
    return out


def check_golden(name: str, out: Path,
                 run: Callable[[list[str]], tuple[int, str]] = in_process) -> None:
    """Run the golden case's command through run with the output path
    out; it must exit 0 with nothing on stderr and write every pinned
    file byte for byte."""
    argv, files = GOLDENS[name]
    code, err = run([*argv, "-o", str(out)])
    assert (code, err) == (0, ""), f"{name}: exit {code}, stderr:\n{err}"
    for file in files:
        got = (out / file).read_bytes()
        assert got == (GOLDEN / name / file).read_bytes(), f"{name}/{file} moved"


if __name__ == "__main__":
    failed = 0
    rows = [(check, case) for case in CASES.values()] + [(check_golden, name) for name in GOLDENS]
    for check_row, row in rows:
        with tempfile.TemporaryDirectory() as workdir:
            try:
                check_row(row, Path(workdir), console)
            except AssertionError as err:
                failed += 1
                print(f"FAIL {err}")
    print(f"{len(rows) - failed} of {len(rows)} cases hold")
    sys.exit(1 if failed else 0)
