"""The command-line studies: exit codes and the Monte Carlo z-gate."""

import configparser
import math
from pathlib import Path

import pytest

from poissonpert.battery import CheckRow, z_gate
from poissonpert.cli import EXIT_CHECK, main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


class TestZGate:
    def test_finite_stderr_gates_at_three_sigma(self):
        assert z_gate(0.3, 0.1)
        assert not z_gate(0.31, 0.1)

    def test_budget_widens_the_gate(self):
        assert z_gate(0.35, 0.1, budget=0.05)

    @pytest.mark.parametrize("se", [math.inf, math.nan])
    def test_unusable_stderr_fails(self, se):
        assert not z_gate(0.0, se)
        assert not CheckRow("z", 1.0, 1.0, se, "z").passed


class TestDerivStudy:
    def test_single_sample_fails_instead_of_passing_on_infinite_stderr(self, tmp_path):
        # one sample is one chunk: the batch-means stderr is inf, which every
        # 3-sigma bound used to accept
        cfg = configparser.ConfigParser()
        cfg.read(CONFIGS / "deriv_pivotal.ini")
        cfg.set("deriv", "lambda_file", str(CONFIGS / cfg.get("deriv", "lambda_file")))
        cfg.set("mc", "samples", "1")
        path = tmp_path / "deriv.ini"
        with path.open("w") as fh:
            cfg.write(fh)
        out = tmp_path / "out"
        assert main(["deriv", "--config", str(path), "--out", str(out)]) == EXIT_CHECK
        summary = (out / "deriv_summary.txt").read_text()
        assert "pivotal:" in summary and "stderr inf [FAIL]" in summary
        assert "[pass]" not in summary
