"""The benchmark's traced replays must reproduce the shipped pipelines exactly.

``perfbench/replay.py`` repeats the engine's per-chunk calls with a span
around each layer, and rebuilds the ``analytic`` CSV call by call.  A traced
benchmark run fails unless the replays match ``run_trials`` bit for bit and
the ``analytic`` CSV byte for byte.  Running them here catches an engine or
``analytic`` change that breaks those gates without a benchmark run.
"""

from pathlib import Path

import pytest

from scbsim import cli, numerics
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


def test_recorded_special_function_counts(baseline_cfg, replay, tmp_path):
    """The traced closed_form run gates the calls recorded_special_functions counts
    against computed counts: per replay_analytic point, one gamma call per OP_user
    and OP_oma row and per OP_pair factor (12 at M = K = 2) and one E1 call per
    ER_user row (2); one gamma call per gamma_cdf element.  The recorder rebinds
    module globals, so a local alias of either function would hide calls from it.
    The shipped analytic, recorded the same way, shares each user's OP between
    OP_user and OP_pair: 8 gamma calls per point."""
    metrics = ("OP_user", "OP_pair", "OP_oma", "ER_user")
    sweep = "tx_power_dbm=-10,20,50"
    var, values = cli.parse_sweep(sweep)
    users = baseline_cfg.M * baseline_cfg.K
    with replay.recorded_special_functions() as calls:
        replay.replay_analytic(baseline_cfg, var, values, metrics)
    assert {name: len(args) for name, args in calls.items()} == {
        "numerics.gamma": 3 * users * len(values), "numerics.e1": baseline_cfg.M * len(values)}
    with replay.recorded_special_functions() as calls:
        assert cli.main(["analytic", "--config", str(BASE), "--out", str(tmp_path / "an.csv"),
                         "--sweep", sweep, "--metrics", ",".join(metrics)]) == 0
    assert {name: len(args) for name, args in calls.items()} == {
        "numerics.gamma": 2 * users * len(values), "numerics.e1": baseline_cfg.M * len(values)}
    x = [[0.5, 2.0, 7.0], [-1.0, 0.0, 30.0]]
    with replay.recorded_special_functions() as calls:
        numerics.gamma_cdf(x, 2)
    assert calls == {"numerics.gamma": [(2, 0.5), (2, 2.0), (2, 7.0), (2, 0.0), (2, 0.0),
                                        (2, 30.0)],
                     "numerics.e1": []}
