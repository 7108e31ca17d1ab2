"""Golden outputs: the files every command writes, byte for byte.

The files under tests/golden/ pin the --no-timing outputs of all six
presets, a compare run, and a run and a diagnose of one small config
that weights the meta-features, plus a diagnose of preset_iid; each run
case pins all three files that `metafl run` writes. A refactor must
leave them unchanged.
Re-bless them only for a change that is meant to move the outputs, and
say why in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

import os
from pathlib import Path

import pytest

from metafl.cli import PRESETS, main

GOLDEN = Path(__file__).parent / "golden"
FEATURES_CFG = GOLDEN / "metafl_features.cfg"
RUN_FILES = ("rounds.csv", "summary.json", "config_echo.txt")

#: case name -> (CLI arguments without -o, files compared)
CASES = {
    **{name: (["run", name, "--no-timing"], RUN_FILES) for name in PRESETS},
    "compare_noisy": (
        ["compare", "preset_noisy_clients", "preset_noisy_clients_fedavg"],
        ("compare.csv", "compare_summary.json"),
    ),
    "diagnose_iid": (["diagnose", "preset_iid"], ("diagnostics.json",)),
    "diagnose_features": (["diagnose", str(FEATURES_CFG)], ("diagnostics.json",)),
    "metafl_features": (["run", str(FEATURES_CFG), "--no-timing"], RUN_FILES),
}


def write_case(name: str, out: Path) -> None:
    argv, _ = CASES[name]
    assert main(argv + ["-o", str(out)]) == 0


@pytest.fixture(autouse=True)
def no_seed_env(monkeypatch):
    monkeypatch.delenv("METAFL_SEED", raising=False)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_outputs(name, tmp_path):
    write_case(name, tmp_path)
    for fname in CASES[name][1]:
        got = (tmp_path / fname).read_bytes()
        assert got == (GOLDEN / name / fname).read_bytes(), f"{name}/{fname} moved"


if __name__ == "__main__":
    os.environ.pop("METAFL_SEED", None)
    for case in CASES:
        target = GOLDEN / case
        target.mkdir(parents=True, exist_ok=True)
        write_case(case, target)
        for extra in set(os.listdir(target)) - set(CASES[case][1]):
            (target / extra).unlink()
        print(f"blessed {case}")
