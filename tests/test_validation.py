import numpy as np
import pytest

from scbsim import montecarlo as mc
from scbsim import validation
from scbsim.analytics import InfeasibleRatesError
from scbsim.channel import assemble_batch

TRIALS = mc.CHUNK + 52
FAILING_TRIAL = mc.CHUNK + 40   # in the short second chunk, so the salvage reruns 52 trials


def test_channel_statistics_draws_chunk_by_chunk(baseline_cfg, monkeypatch):
    """Check 03 asks for at most mc.CHUNK trials at a time, and the gains it tests are
    user (0, 0)'s sum_l |w[0, 0, l, 0]|^2 over the whole sample, byte for byte."""
    draw = mc.draw_chunk_normals
    asked, samples = [], []

    def spy_draw(cfg, start, count, out=None):
        asked.append(count)
        return draw(cfg, start, count, out)

    def spy_ks(sample, cdf):
        samples.append(sample.copy())
        return ks_statistic(sample, cdf)

    ks_statistic = validation.ks_statistic
    monkeypatch.setattr(mc, "draw_chunk_normals", spy_draw)
    monkeypatch.setattr(validation, "ks_statistic", spy_ks)
    draws = 2 * mc.CHUNK + 100
    assert validation.check_channel_statistics(baseline_cfg, draws).passed
    assert max(asked) <= mc.CHUNK and sum(asked) == 3 * draws
    for L, got in zip((1, 2, 4), samples, strict=True):
        sub = baseline_cfg.with_updates(L=L, N=4, master_seed=baseline_cfg.master_seed + L)
        w, _, _ = assemble_batch(sub, draw(sub, 0, draws))
        assert got.tobytes() == np.square(np.abs(w[:, 0, 0, :, 0])).sum(axis=-1).tobytes()


def test_residue_check_covers_the_per_symbol_rank_bound(baseline_cfg):
    """Check 08 sizes its exact-cancellation variants by the engine's rank bound, which is
    M*K*L*(M-1) rows in per-symbol mode: at M = 3 that is twice the aggregate count."""
    cfg = baseline_cfg.with_updates(M=3, d_user=((160.0, 80.0),) * 3,
                                    d_direct=((200.0, 100.0),) * 3,
                                    cancellation_mode="per-symbol")
    detail = validation.check_residue(cfg, 200, 200, threads=1).detail
    worst = float(detail.split("max ideal residual = ")[1].split()[0])
    assert worst <= 1e-10, detail


def test_failed_trial_moves_no_validation_number(baseline_cfg, fail_trial, monkeypatch):
    """A salvaged trial's placeholder outcomes enter no number of checks 07 and 08:
    the details stay the same when those placeholders are replaced by wild values."""
    def details():
        return [validation.check_high_snr_slopes(baseline_cfg, TRIALS, threads=1).detail,
                validation.check_residue(baseline_cfg, TRIALS, TRIALS, threads=1).detail]

    fail_trial(FAILING_TRIAL)
    zeroed = details()

    real = mc.link_stage
    failures = []

    def poisoned(cfg, surfaces):
        batch = real(cfg, surfaces)
        bad = batch.failed
        failures.append(int(bad.sum()))
        batch.rate[bad] = 1e3 + cfg.tx_power_dbm   # a different value at every power
        batch.outage[bad] = True
        batch.residue[bad] = 1e3
        return batch

    monkeypatch.setattr(mc, "link_stage", poisoned)
    assert details() == zeroed
    assert set(failures) == {1}


def test_diversity_check_fails_when_the_simulated_fit_is_impossible(baseline_cfg):
    """Too few trials for two simulated outage values below the fit cap: the check
    FAILs and names the L value, instead of raising out of validate."""
    result = validation.check_diversity_order(baseline_cfg, 256, 1)
    assert result.status == validation.FAIL
    assert result.detail.startswith("L=1: closed 0.999, simulated fit failed (need at least "
                                    "two points with outage below 0.01); L=2: ")


def test_closed_form_checks_raise_on_infeasible_rates(baseline_cfg):
    """Where the allocation cannot sustain the target rates, a check has no closed form
    to compare, and says so rather than comparing a missing value."""
    cfg = baseline_cfg.with_updates(target_rate=(1.4, 1.5))
    with pytest.raises(InfeasibleRatesError, match="cannot sustain the target rates"):
        validation.check_noma_vs_oma(cfg)
    with pytest.raises(InfeasibleRatesError, match="cannot sustain the target rates"):
        validation.check_op_vs_closed_form(cfg, 2000, powers_dbm=(30.0,), threads=1)
