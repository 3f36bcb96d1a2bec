import math

import numpy as np
import pytest

from scbsim.analytics import ClosedFormInputs, op_closed_form
from scbsim.montecarlo import (
    CHUNK,
    SweepSpec,
    estimate,
    estimates_from_batch,
    run_sweep,
    run_trial,
    run_trials,
    splitmix64,
    sweep_config,
    trial_key,
    trial_rng,
)


@pytest.fixture(scope="module")
def fast_cfg(baseline_cfg):
    return baseline_cfg.with_updates(N=16, tx_power_dbm=0.0, trials=4000)


def test_trial_key_frozen_values():
    # pinned so the documented cross-language derivation cannot drift
    assert splitmix64(0) == 16294208416658607535
    assert trial_key(0, 0) == 12035550249420947055
    assert trial_key(12345, 0) == 8814202233882078983
    assert trial_key(12345, 1) == 1440032734657043752
    assert trial_key(2 ** 64 - 1, 2 ** 32) == 7289086089401116507


def test_trial_streams_are_distinct():
    keys = {trial_key(99, i) for i in range(10000)}
    assert len(keys) == 10000


def test_run_trial_deterministic(fast_cfg):
    a = run_trial(fast_cfg, 3)
    b = run_trial(fast_cfg, 3)
    assert np.array_equal(a.eff_gain, b.eff_gain)
    assert np.array_equal(a.sinr, b.sinr, equal_nan=True)
    c = run_trial(fast_cfg.with_updates(master_seed=1), 3)
    assert not np.array_equal(a.eff_gain, c.eff_gain)


def test_run_trial_matches_batch_row(fast_cfg):
    batch = run_trials(fast_cfg, 8, threads=1)
    for t in (0, 5):
        single = run_trial(fast_cfg, t)
        assert np.allclose(single.eff_gain, batch.eff_gain[t], rtol=1e-12)
        assert np.allclose(single.rate, batch.rate[t], rtol=1e-10)
        assert np.allclose(single.residue, batch.residue[t], rtol=1e-6, atol=1e-28)
        assert np.array_equal(single.outage, batch.outage[t])
        assert np.array_equal(single.oma_outage, batch.oma_outage[t])


def test_thread_count_does_not_change_results(fast_cfg):
    trials = CHUNK + 123   # force a partial chunk
    batches = [run_trials(fast_cfg, trials, threads=t) for t in (1, 2, 8)]
    for other in batches[1:]:
        for field in ("outage", "rate", "oma_rate", "residue", "eff_gain",
                      "feasible", "residual_rel"):
            assert np.array_equal(getattr(batches[0], field), getattr(other, field))


def test_ideal_solver_residuals_negligible(fast_cfg):
    batch = run_trials(fast_cfg, 2000, threads=1)
    assert batch.residual_rel.max() <= 1e-10
    assert batch.failures == 0
    # residues are solver noise, many orders below the interference scale
    assert batch.residue.max() < 1e-25


def test_run_trial_diagnostics(fast_cfg):
    m = run_trial(fast_cfg, 0)
    assert m.exact_sinr.shape == (2, 2)
    assert np.isfinite(m.exact_sinr).all()
    assert np.isnan(m.sinr[0, 0, 1])       # above-diagonal stages undefined
    assert np.isfinite(m.sinr[0, 1, 0])
    assert m.rate[0, 1] == pytest.approx(math.log2(1 + m.sinr[0, 1, 1]), rel=1e-12)


def test_estimate_requires_trials(fast_cfg):
    with pytest.raises(ValueError):
        estimate(fast_cfg, "OP_user", trials=50)
    with pytest.raises(ValueError):
        estimate(fast_cfg, "bogus", trials=500)


def test_estimator_result_fields(fast_cfg):
    res = estimate(fast_cfg, "OP_user", trials=500, threads=1)
    assert len(res) == 4
    for r in res:
        assert r.trials == 500
        assert r.ci_low == pytest.approx(r.estimate - 1.96 * r.stderr)
        assert r.ci_high == pytest.approx(r.estimate + 1.96 * r.stderr)
        assert r.fingerprint


def test_proportion_and_mean_stderr(fast_cfg):
    batch = run_trials(fast_cfg, 2000, threads=1)
    op = estimates_from_batch(fast_cfg, batch, "OP_user")[0]
    phat = batch.outage[:, 0, 0].mean()
    assert op.estimate == pytest.approx(phat)
    assert op.stderr == pytest.approx(math.sqrt(phat * (1 - phat) / 2000))
    er = estimates_from_batch(fast_cfg, batch, "ER_user")[0]
    sample = batch.rate[:, 0, 0]
    assert er.estimate == pytest.approx(sample.mean())
    assert er.stderr == pytest.approx(sample.std(ddof=1) / math.sqrt(2000))


def test_op_pair_is_product_with_delta_stderr(fast_cfg):
    batch = run_trials(fast_cfg, 4000, threads=1)
    users = estimates_from_batch(fast_cfg, batch, "OP_user")
    pair = [r for r in estimates_from_batch(fast_cfg, batch, "OP_pair") if r.m == 0][0]
    u = [r for r in users if r.m == 0]
    assert pair.estimate == pytest.approx(u[0].estimate * u[1].estimate)
    var = (u[1].estimate * u[0].stderr) ** 2 + (u[0].estimate * u[1].stderr) ** 2
    assert pair.stderr == pytest.approx(math.sqrt(var))


def test_se_and_ee_estimates(fast_cfg):
    batch = run_trials(fast_cfg, 2000, threads=1)
    se = [r for r in estimates_from_batch(fast_cfg, batch, "SE") if r.m == 0][0]
    assert se.estimate == pytest.approx(batch.rate[:, 0, :].sum(axis=1).mean())
    ee = [r for r in estimates_from_batch(fast_cfg, batch, "EE") if r.m == 0][0]
    pm = fast_cfg.power_model
    denom = (pm.p_bs_watt + 2 * pm.p_user_watt
             + fast_cfg.tx_power_watt * pm.amp_factor + fast_cfg.N * pm.p_ris_watt)
    assert ee.estimate == pytest.approx(se.estimate / denom)
    assert ee.stderr == pytest.approx(se.stderr / denom)


def test_feasibility_rate_and_conditioning(fast_cfg):
    batch = run_trials(fast_cfg, 2000, threads=1)
    rate = estimates_from_batch(fast_cfg, batch, "feasibility_rate")[0]
    assert rate.m is None and rate.k is None
    assert 0.0 <= rate.estimate <= 1.0
    conditioned = estimates_from_batch(fast_cfg, batch, "OP_user", feasible_only=True)
    assert conditioned[0].trials == int(batch.feasible.sum())


def test_ci_coverage_calibration():
    """Normal-approximation CI covers a Bernoulli(0.1) mean 93-97% of the time."""
    rng = np.random.default_rng(2026)
    n, reps, hits = 1000, 200, 0
    for _ in range(reps):
        sample = rng.random(n) < 0.1
        phat = sample.mean()
        se = math.sqrt(phat * (1 - phat) / n)
        hits += (phat - 1.96 * se) <= 0.1 <= (phat + 1.96 * se)
    assert 0.93 <= hits / reps <= 0.97


def test_zero_target_rates_give_zero_outage(fast_cfg):
    cfg = fast_cfg.with_updates(target_rate=(0.0, 0.0))
    res = estimate(cfg, "OP_user", trials=500, threads=1)
    assert all(r.estimate == 0.0 and r.stderr == 0.0 for r in res)


def test_huge_target_rates_give_certain_outage(fast_cfg):
    cfg = fast_cfg.with_updates(target_rate=(60.0, 60.0), tx_power_dbm=30.0)
    res = estimate(cfg, "OP_user", trials=500, threads=1)
    assert all(r.estimate == 1.0 for r in res)


def test_single_cluster_matches_closed_form(baseline_cfg):
    cfg = baseline_cfg.with_updates(
        M=1, N=8, d_user=((160.0, 80.0),), d_direct=((200.0, 100.0),),
        tx_power_dbm=-3.0, master_seed=7)
    batch = run_trials(cfg, 40000, threads=1)
    assert batch.residue.max() == 0.0    # nothing to cancel
    for k in (0, 1):
        closed = op_closed_form(ClosedFormInputs.from_config(cfg, 0, k), k)
        mc = batch.outage[:, 0, k].mean()
        se = math.sqrt(max(closed * (1 - closed), 1e-9) / 40000)
        assert abs(mc - closed) <= 3.5 * se


def test_sweep_config_casts_integers(fast_cfg):
    assert sweep_config(fast_cfg, "N", 24.0).N == 24
    assert sweep_config(fast_cfg, "resolution_bits", 3.0).resolution_bits == 3
    assert sweep_config(fast_cfg, "tx_power_dbm", 12.0).tx_power_dbm == 12.0


def test_sweep_config_rejects_non_integral_integers(fast_cfg):
    for var in ("N", "L", "M", "K", "resolution_bits", "trials"):
        with pytest.raises(ValueError, match="integer"):
            sweep_config(fast_cfg, var, 40.7)
    # recorded as a per-point failure, not silently truncated to N=16
    spec = SweepSpec(variable="N", values=(16.5, 16.0), metrics=("OP_user",))
    rows, failures = run_sweep(fast_cfg.with_updates(trials=500), spec, threads=1)
    assert [v for v, _ in failures] == [16.5]
    assert {v for v, _ in rows} == {16.0}


def test_run_sweep_order_and_failures(fast_cfg):
    spec = SweepSpec(variable="tx_power_dbm", values=(0.0, 10.0), metrics=("OP_user",))
    rows, failures = run_sweep(fast_cfg.with_updates(trials=500), spec, threads=1)
    assert not failures
    assert [v for v, _ in rows] == [0.0] * 4 + [10.0] * 4
    # invalid sweep value is recorded, the sweep continues
    bad = SweepSpec(variable="N", values=(0.0, 16.0), metrics=("OP_user",))
    rows, failures = run_sweep(fast_cfg.with_updates(trials=500), bad, threads=1)
    assert len(failures) == 1 and failures[0][0] == 0.0
    assert {v for v, _ in rows} == {16.0}


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(variable="tx_power_dbm", values=(), metrics=("OP_user",))
    with pytest.raises(ValueError):
        SweepSpec(variable="tx_power_dbm", values=(1.0,), metrics=("nope",))
    with pytest.raises(ValueError):
        SweepSpec(variable="tx_power_dbm", values=(float("nan"),), metrics=("SE",))


def test_quantized_runs_have_residue(fast_cfg):
    cfg = fast_cfg.with_updates(resolution_bits=3, tx_power_dbm=30.0)
    batch = run_trials(cfg, 1000, threads=1)
    assert batch.residue.mean() > 1e-15
    res = estimates_from_batch(cfg, batch, "residue_mean")
    assert all(r.estimate > 0 for r in res)


def test_outage_floor_decreases_with_resolution(baseline_cfg):
    floors = {}
    for bits in (3, 6):
        cfg = baseline_cfg.with_updates(tx_power_dbm=40.0, resolution_bits=bits)
        batch = run_trials(cfg, 4000, threads=1)
        floors[bits] = batch.outage.mean(axis=0)
    assert (floors[6] <= floors[3]).all()
    assert floors[6].max() < 0.1 < floors[3].max()


def test_per_symbol_mode_end_to_end(baseline_cfg):
    """Per-symbol cancellation zeroes interfering coefficients exactly.

    The aggregate-style residue stays positive there: it also sums the
    reflected desired column, which the per-symbol design never constrains.
    """
    from scbsim.channel import draw_realization
    from scbsim.montecarlo import trial_rng
    from scbsim.pathloss import compute_gains

    cfg = baseline_cfg.with_updates(cancellation_mode="per-symbol", N=20,
                                    tx_power_dbm=0.0)
    batch = run_trials(cfg, 1000, threads=1)
    assert batch.residual_rel.max() <= 1e-10   # N >= M*K*L*(M-1) = 8
    assert batch.residue.min() > 0

    # residue identity: exactly the reflected desired-column power
    t = 7
    single = run_trial(cfg, t)
    assert np.allclose(single.eff_gain, batch.eff_gain[t], rtol=1e-12)
    ch = draw_realization(cfg, trial_rng(cfg.master_seed, t))
    gains = compute_gains(cfg)
    from scbsim.beamforming import build_effective_matrix, solve_passive
    pb = solve_passive(build_effective_matrix(ch, gains, "per-symbol"))
    for m in range(2):
        for k in range(2):
            mixed = ch.g[m, k] @ (pb.phi[:, None] * ch.h)
            desired_col = gains.l_reflect[m, k] * np.square(
                np.abs(mixed[:, m])).sum()
            assert batch.residue[t, m, k] == pytest.approx(desired_col, rel=1e-8)


def test_anomalous_scenario_end_to_end(baseline_cfg):
    cfg = baseline_cfg.with_updates(ris_scenario="anomalous", tx_power_dbm=0.0)
    batch = run_trials(cfg, 2000, threads=1)
    assert batch.residual_rel.max() <= 1e-10
    # sum-distance law leaves more reflected power than the product law here,
    # so amplitude feasibility should be at least as common
    base = run_trials(baseline_cfg.with_updates(tx_power_dbm=0.0), 2000, threads=1)
    assert batch.feasible.mean() >= base.feasible.mean()
    for k in (0, 1):
        closed = op_closed_form(ClosedFormInputs.from_config(cfg, 0, k), k)
        mc_op = batch.outage[:, 0, k].mean()
        se = math.sqrt(max(closed * (1 - closed), 1e-9) / 2000)
        assert abs(mc_op - closed) <= 3.5 * se


def test_feasibility_rate_monitoring(baseline_cfg):
    """Monitored, not asserted hard: amplitude feasibility by Rician factor.

    Strong LoS drives the cancellation matrix toward rank one while the
    direct-link target stays Rayleigh, so the minimum-norm amplitudes blow up
    and feasibility collapses; moderate factors with generous N behave well.
    """
    table_geo = dict(d_user=((80.0, 80.0), (80.0, 80.0)),
                     d_direct=((100.0, 100.0), (100.0, 100.0)))
    rates = {}
    for k_factor in (3.0, 100.0):
        cfg = baseline_cfg.with_updates(rician_k1=k_factor, rician_k2=k_factor,
                                        **table_geo)
        batch = run_trials(cfg, 2000, threads=1)
        rates[k_factor] = batch.feasible.mean()
    print(f"[monitor] feasibility rate by Rician factor (N=40): {rates}")
    assert rates[3.0] > 0.5
    assert all(0.0 <= v <= 1.0 for v in rates.values())
