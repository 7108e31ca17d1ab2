"""Golden outputs: the files every command writes, byte for byte.

The goldens are the rows of `GOLDENS` in tests/cli_contract.py: each
row names a command and the files under tests/golden/<row>/ that it
must write byte for byte. This checks each row in process. A refactor
must leave them unchanged.
Re-bless them only for a change that is meant to move the outputs, and
say why in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

import os

import pytest

from cli_contract import GOLDEN, GOLDENS, check_golden
from metafl.cli import main


@pytest.fixture(autouse=True)
def no_seed_env(monkeypatch):
    monkeypatch.delenv("METAFL_SEED", raising=False)


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_golden_outputs(name, tmp_path):
    check_golden(name, tmp_path)


if __name__ == "__main__":
    os.environ.pop("METAFL_SEED", None)
    for name, (argv, files) in GOLDENS.items():
        target = GOLDEN / name
        target.mkdir(parents=True, exist_ok=True)
        assert main([*argv, "-o", str(target)]) == 0
        for extra in set(os.listdir(target)) - set(files):
            (target / extra).unlink()
        print(f"blessed {name}")
