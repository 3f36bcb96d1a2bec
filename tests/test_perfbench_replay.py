"""The benchmark's traced replay must reproduce run_trials bit for bit.

``perfbench/replay.py`` repeats the engine's per-chunk calls with a span
around each layer, and a traced benchmark run fails unless the replay matches
``run_trials``.  Running it here catches an engine change that breaks that
gate without a benchmark run.
"""

from pathlib import Path

import pytest

from scbsim.montecarlo import run_trials

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture()
def replay(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import replay
    return replay


@pytest.mark.parametrize("updates", [{}, {"resolution_bits": 3},
                                     {"cancellation_mode": "per-symbol"}])
def test_replay_point_matches_run_trials(baseline_cfg, replay, updates):
    cfg = baseline_cfg.with_updates(trials=2100, **updates)   # one full and one partial chunk
    replayed = replay.replay_point(replay.Tracer(), cfg)
    assert replay.same_batch(replayed, run_trials(cfg, threads=2))
