"""The benchmark's traced replays must reproduce the shipped pipelines exactly.

``perfbench/replay.py`` repeats the engine's per-chunk calls with a span
around each layer, and rebuilds the ``analytic`` CSV call by call.  A traced
benchmark run fails unless the replays match ``run_trials`` bit for bit and
the ``analytic`` CSV byte for byte.  Running them here catches an engine or
``analytic`` change that breaks those gates without a benchmark run.
"""

from pathlib import Path

import pytest

from scbsim import cli
from scbsim.montecarlo import run_trials

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
BASE = ROOT / "configs" / "baseline.cfg"


@pytest.fixture()
def replay(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import replay
    return replay


TALL_M3 = {"M": 3, "L": 4, "N": 96, "d_user": ((160.0, 80.0),) * 3,   # mc_tall_m3
           "d_direct": ((200.0, 100.0),) * 3}


@pytest.mark.parametrize("updates", [{}, {"resolution_bits": 3},
                                     {"cancellation_mode": "per-symbol"},
                                     {"N": 256, "resolution_bits": 3},   # mc_wide_3bit
                                     TALL_M3, {**TALL_M3, "cancellation_mode": "per-symbol"}])
def test_replay_point_matches_run_trials(baseline_cfg, replay, updates):
    cfg = baseline_cfg.with_updates(trials=2100, **updates)   # one full and one partial chunk
    replayed = replay.replay_point(replay.Tracer(), cfg)
    assert replay.same_batch(replayed, run_trials(cfg, threads=2))


def test_replay_analytic_matches_analytic_command(baseline_cfg, replay, tmp_path):
    """The traced closed_form run fails unless this replay equals the analytic CSV."""
    metrics = ("OP_user", "OP_pair", "OP_oma", "ER_user")
    out = tmp_path / "analytic.csv"
    assert cli.main(["analytic", "--config", str(BASE), "--out", str(out),
                     "--sweep", "tx_power_dbm=-10:50:5", "--metrics", ",".join(metrics)]) == 0
    var, values = cli.parse_sweep("tx_power_dbm=-10:50:5")
    replayed = replay.replay_analytic(baseline_cfg, var, values, metrics)
    assert replayed.encode() == out.read_bytes()
