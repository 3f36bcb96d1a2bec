"""Regression pins against the in-repo golden files."""

import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from scbsim.numerics import exponential_integral_ei, lower_incomplete_gamma_regularized

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "golden"


def test_table2_command_matches_golden_file():
    # the subprocess imports scbsim from src/, as conftest.py does for this process
    pythonpath = [str(ROOT / "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    proc = subprocess.run(
        [sys.executable, "-m", "scbsim.cli", "table2"],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath))),
    )
    assert proc.stdout == (GOLDEN / "table2.csv").read_text()


def test_special_function_golden_values():
    with open(GOLDEN / "special_functions.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    for row in rows:
        args = [float(a) for a in row["args"].split(",")]
        expected = float(row["value"])
        if row["function"] == "regularized_gamma":
            got = lower_incomplete_gamma_regularized(*args)
        elif row["function"] == "exponential_integral_ei":
            got = exponential_integral_ei(*args)
        elif row["function"] == "integral_x_exp_over_1px":
            got = math.e * exponential_integral_ei(-args[0]) + 1.0
        elif row["function"] == "integral_exp_over_1px":
            got = -math.exp(args[0]) * exponential_integral_ei(-args[0])
        else:
            pytest.fail(f"unknown golden entry {row['function']}")
        assert got == pytest.approx(expected, rel=1e-14), row
