import math

import numpy as np
import pytest

from scbsim.analytics import ClosedFormInputs, PowerFreeTerms, op_closed_form
from scbsim.beamforming import build_matrix_batch, build_target_batch, solve_passive_batch
from scbsim.channel import assemble_batch, empty_fading, normals_per_trial
from scbsim.cli import parse_sweep
from scbsim.linkmetrics import sinr_sic
from scbsim.montecarlo import (
    BLOCK_BYTES,
    CHUNK,
    METRICS,
    SurfaceBatch,
    _surface_chunk,
    block_trials,
    draw_chunk_normals,
    estimates_from_batch,
    link_stage,
    run_trials,
    splitmix64,
    surface_stage,
    sweep_config,
    trial_key,
    trial_keys,
    trial_rng,
)
from scbsim.pathloss import compute_gains

OUTCOMES = ("outage", "rate", "oma_outage", "oma_rate", "residue", "eff_gain",
            "feasible", "residual_rel")
BATCH_FIELDS = OUTCOMES + ("failed",)


def rows_of(batch, rows=slice(None), fields=BATCH_FIELDS):
    """{field: (dtype, shape, bytes)} of a batch's per-trial arrays on the given rows."""
    return {name: (a.dtype, a.shape, a.tobytes())
            for name in fields for a in [getattr(batch, name)[rows]]}


@pytest.fixture(scope="module")
def fast_cfg(baseline_cfg):
    return baseline_cfg.with_updates(N=16, tx_power_dbm=0.0, trials=4000)


@pytest.fixture(scope="module")
def wide_cfg(baseline_cfg):
    """N=256: a block is a small fraction of a chunk."""
    cfg = baseline_cfg.with_updates(N=256, tx_power_dbm=20.0)
    assert 1 < block_trials(cfg) < CHUNK // 8
    return cfg


def test_trial_key_frozen_values():
    # pinned so the documented cross-language derivation cannot drift
    assert splitmix64(0) == 16294208416658607535
    assert trial_key(0, 0) == 12035550249420947055
    assert trial_key(12345, 0) == 8814202233882078983
    assert trial_key(12345, 1) == 1440032734657043752
    assert trial_key(2 ** 64 - 1, 2 ** 32) == 7289086089401116507


def test_trial_stream_frozen_values():
    # pinned so the documented SFC64 state words and their order cannot drift
    assert trial_rng(0, 0).standard_normal(3).tolist() == [
        -0.07087122945300256, -0.6321906845736442, 1.1880080634766341]
    assert trial_rng(12345, 1).standard_normal(3).tolist() == [
        0.05803527962318624, -0.7205501634044048, 1.755306584428279]


def sfc64_reference(a, b, c, counter, count):
    """The first count outputs of SFC64 from state words (a, b, c, counter), in
    Python integers mod 2^64."""
    mask = (1 << 64) - 1
    out = []
    for _ in range(count):
        tmp = (a + b + counter) & mask
        counter += 1
        a, b = b ^ (b >> 11), (c + (c << 3)) & mask
        c = (((c << 24) | (c >> 40)) + tmp) & mask
        out.append(tmp)
    return out


@pytest.mark.parametrize("seed,trial", [(0, 0), (12345, 1), (2 ** 64 - 1, 2 ** 32)])
def test_trial_stream_state_is_the_documented_words(seed, trial):
    """A trial's raw SFC64 outputs follow from a = trial_key, b = splitmix64(a),
    c = splitmix64(b) and counter = 1, with no warm-up."""
    a = trial_key(seed, trial)
    want = sfc64_reference(a, splitmix64(a), splitmix64(splitmix64(a)), 1, 8)
    assert trial_rng(seed, trial).bit_generator.random_raw(8).tolist() == want


@pytest.mark.parametrize("seed", [0, 12345, 2 ** 64 - 1])
def test_first_normals_of_consecutive_trials_are_standard(fast_cfg, seed):
    """The first normal after each state write, over 8192 consecutive trials,
    passes a KS test against N(0, 1): the draw most exposed to weak seeding."""
    stats = pytest.importorskip("scipy.stats")
    flat = draw_chunk_normals(fast_cfg.with_updates(master_seed=seed), 0, 8192)
    for column in (0, 1):
        assert stats.kstest(flat[:, column], "norm").pvalue > 1e-3, column


@pytest.mark.parametrize("seed", [0, 12345, 2 ** 64 - 1])
def test_consecutive_trials_are_uncorrelated(fast_cfg, seed):
    """Row i and row i + 1 show no lag-1 correlation beyond 4 SE, in the first
    normal alone and pooled over every normal of the rows.  For independent
    standard normals the sample mean of x * y has SE 1 / sqrt(pairs)."""
    flat = draw_chunk_normals(fast_cfg.with_updates(master_seed=seed), 0, 4096)
    products = flat[:-1] * flat[1:]
    for sample in (products[:, 0], products.ravel()):
        assert abs(sample.mean()) <= 4.0 / math.sqrt(sample.size)


@pytest.mark.parametrize("seed", [0, 12345, 2 ** 64 - 1])
def test_trial_keys_match_scalar_reference(seed):
    keys = trial_keys(seed, 0, 4096)
    assert keys.dtype == np.uint64
    assert keys.tolist() == [trial_key(seed, i) for i in range(4096)]


def test_trial_streams_are_distinct():
    keys = {trial_key(99, i) for i in range(10000)}
    assert len(keys) == 10000


def test_draw_chunk_normals_matches_trial_streams(fast_cfg):
    """Row i of a chunk is bit for bit trial (start + i)'s own SFC64 stream."""
    start = 5
    n = normals_per_trial(fast_cfg)
    flat = draw_chunk_normals(fast_cfg, start, CHUNK + 1)
    assert flat.shape == (CHUNK + 1, n)
    for i in (0, CHUNK - 1, CHUNK):
        want = trial_rng(fast_cfg.master_seed, start + i).standard_normal(n)
        assert flat[i].tobytes() == want.tobytes()
    # another master seed draws another block for the same trial index
    other = draw_chunk_normals(fast_cfg.with_updates(master_seed=1), start, 1)
    assert not np.array_equal(other[0], flat[0])


def test_one_trial_chunk_matches_batch_row(fast_cfg):
    """A one-trial surface chunk, as the salvage path runs it, plus the link stage is that row."""
    for updates in ({}, {"cancellation_mode": "per-symbol"}, {"resolution_bits": 3}):
        cfg = fast_cfg.with_updates(**updates)
        gains = compute_gains(cfg)
        batch = run_trials(cfg, CHUNK + 1, threads=2)
        for t in (0, CHUNK - 1, CHUNK):
            one = SurfaceBatch(*_surface_chunk(cfg, gains, t, 1),
                               failed=np.zeros(1, dtype=bool), cfg=cfg)
            assert rows_of(link_stage(cfg, one)) == rows_of(batch, slice(t, t + 1))


@pytest.mark.parametrize("updates", [{}, {"cancellation_mode": "per-symbol"},
                                     {"resolution_bits": 3}],
                         ids=["ideal", "per-symbol", "bits=3"])
def test_block_boundary_rows_match_one_trial_chunks(wide_cfg, updates):
    """Rows on both sides of every kind of block boundary equal a one-trial chunk."""
    cfg = wide_cfg.with_updates(**updates)
    gains = compute_gains(cfg)
    block = block_trials(cfg)
    trials = CHUNK + block + 7     # the second chunk ends in a partial block
    batch = run_trials(cfg, trials, threads=2)
    for t in (0, block - 1, block, CHUNK - 1, CHUNK, CHUNK + block, trials - 1):
        one = SurfaceBatch(*_surface_chunk(cfg, gains, t, 1),
                           failed=np.zeros(1, dtype=bool), cfg=cfg)
        assert rows_of(link_stage(cfg, one)) == rows_of(batch, slice(t, t + 1)), t


def test_block_trials_sized_by_bytes(baseline_cfg, wide_cfg):
    # criterion 05's L=1 system: a whole chunk fits one block
    assert block_trials(baseline_cfg.with_updates(L=1, N=8)) == CHUNK
    block = block_trials(wide_cfg)
    assert block * 8 * normals_per_trial(wide_cfg) <= BLOCK_BYTES
    assert (block + 1) * 8 * normals_per_trial(wide_cfg) > BLOCK_BYTES
    assert block_trials(baseline_cfg.with_updates(N=10 ** 6)) == 1


@pytest.mark.parametrize("updates", [{}, {"cancellation_mode": "per-symbol"},
                                     {"M": 1, "d_user": ((160.0, 80.0),),
                                      "d_direct": ((200.0, 100.0),)}],
                         ids=["aggregate", "per-symbol", "M=1"])
def test_out_buffers_are_filled_and_returned(baseline_cfg, updates):
    """Each layer's out= fills and returns the given buffers with the bytes it would allocate."""
    cfg = baseline_cfg.with_updates(**updates)
    gains = compute_gains(cfg)
    count = 5
    flat = draw_chunk_normals(cfg, 3, count)
    buf = np.full((count + 2, normals_per_trial(cfg)), np.nan)
    assert draw_chunk_normals(cfg, 3, count, out=buf[:count]).base is buf
    assert buf[:count].tobytes() == flat.tobytes()

    fading = assemble_batch(cfg, flat)
    given = empty_fading(cfg, count)
    got = assemble_batch(cfg, flat, out=given)
    for a, b, want in zip(got, given, fading):
        assert a is b and a.tobytes() == want.tobytes()

    w, h, g = fading
    want = build_matrix_batch(h, g, gains.l_reflect, cfg.cancellation_mode)
    given = np.full(want.shape, np.nan, dtype=np.complex128)
    got = build_matrix_batch(h, g, gains.l_reflect, cfg.cancellation_mode, out=given)
    assert got is given and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("updates", [{}, {"resolution_bits": 3},
                                     {"cancellation_mode": "per-symbol"}],
                         ids=["ideal", "bits=3", "per-symbol"])
def test_link_stage_over_shared_surfaces_matches_run_trials(baseline_cfg, updates):
    """One surface batch serves every power: each point equals its own run_trials."""
    cfg = baseline_cfg.with_updates(**updates)
    surfaces = surface_stage(cfg, CHUNK + 52, threads=2)
    for p_dbm in (0.0, 20.0, 40.0):
        point = sweep_config(cfg, "tx_power_dbm", p_dbm)
        shared, own = link_stage(point, surfaces), run_trials(point, CHUNK + 52, threads=2)
        assert rows_of(shared) == rows_of(own)
        assert shared.fingerprint == own.fingerprint
        for metric in METRICS:
            for feasible_only in (False, True):
                assert (estimates_from_batch(point, shared, metric, feasible_only)
                        == estimates_from_batch(point, own, metric, feasible_only))


def test_link_stage_rejects_surfaces_of_another_config(fast_cfg):
    surfaces = surface_stage(fast_cfg, 100, threads=1)
    link_stage(fast_cfg.with_updates(bandwidth_hz=1e6, noise_dbm_override=-90.0,
                                     trials=7), surfaces)
    with pytest.raises(ValueError, match="another config"):
        link_stage(fast_cfg.with_updates(N=24), surfaces)


FAILING_TRIAL = 5000   # in the third chunk of 6000 trials


def test_salvage_marks_only_the_failing_trial(baseline_cfg, fail_trial):
    clean = surface_stage(baseline_cfg, 6000, threads=2)
    fail_trial(FAILING_TRIAL)
    rest = np.arange(6000) != FAILING_TRIAL
    want = link_stage(baseline_cfg, clean)
    for threads in (1, 2):
        batch = run_trials(baseline_cfg, 6000, threads=threads)
        assert np.flatnonzero(batch.failed).tolist() == [FAILING_TRIAL]
        assert rows_of(batch, rest, OUTCOMES) == rows_of(want, rest, OUTCOMES)
        for name in OUTCOMES:
            assert not getattr(batch, name)[FAILING_TRIAL].any(), name

    # a power sweep over the shared surfaces: the failed trial stays out at every point
    surfaces = surface_stage(baseline_cfg, 6000, threads=2)
    for p_dbm in (0.0, 20.0, 40.0):
        point = sweep_config(baseline_cfg, "tx_power_dbm", p_dbm)
        batch = link_stage(point, surfaces)
        want = link_stage(point, clean)
        assert rows_of(batch, rest, OUTCOMES) == rows_of(want, rest, OUTCOMES)
        for name in ("outage", "rate", "oma_outage", "oma_rate"):
            assert not getattr(batch, name)[FAILING_TRIAL].any(), (p_dbm, name)
        for metric in METRICS:
            assert {r.trials for r in estimates_from_batch(point, batch, metric)} == {5999}


def test_salvage_in_a_middle_block(wide_cfg, fail_trial):
    """The salvaged chunk's one-trial reruns equal the blocked run on every other trial."""
    failing = 2 * block_trials(wide_cfg) + 3   # the third of five blocks
    trials = 5 * block_trials(wide_cfg)
    clean = run_trials(wide_cfg, trials, threads=2)
    fail_trial(failing)
    rest = np.arange(trials) != failing
    for threads in (1, 2):
        batch = run_trials(wide_cfg, trials, threads=threads)
        assert np.flatnonzero(batch.failed).tolist() == [failing]
        assert rows_of(batch, rest, OUTCOMES) == rows_of(clean, rest, OUTCOMES)


def test_thread_count_does_not_change_results(fast_cfg, wide_cfg):
    trials = CHUNK + 123   # force a partial chunk
    for cfg in (fast_cfg, wide_cfg):
        batches = [run_trials(cfg, trials, threads=t) for t in (1, 2, 8)]
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


def test_batch_rate_is_own_stage_rate(fast_cfg):
    """batch.rate is the unconditional log2(1 + SINR_kk), also for trials in outage."""
    batch = run_trials(fast_cfg, 500, threads=1)
    gains = compute_gains(fast_cfg)
    for m in range(fast_cfg.M):
        for k in range(fast_cfg.K):
            sinr = sinr_sic(batch.eff_gain[:, m, k], batch.residue[:, m, k],
                            gains.l_direct[m, k], fast_cfg.tx_power_watt,
                            fast_cfg.power_alloc, k, fast_cfg.noise_watt, fast_cfg.L)
            assert batch.rate[:, m, k].tobytes() == np.log2(1.0 + sinr).tobytes()
    assert batch.outage.any() and (batch.rate[batch.outage] > 0).all()


def test_estimate_requires_trials(fast_cfg):
    with pytest.raises(ValueError):
        run_trials(fast_cfg, 0)
    batch = run_trials(fast_cfg, 500, threads=1)
    with pytest.raises(ValueError):
        estimates_from_batch(fast_cfg, batch, "bogus")


def test_estimator_result_fields(fast_cfg):
    res = estimates_from_batch(fast_cfg, run_trials(fast_cfg, 500, threads=1), "OP_user")
    assert len(res) == 4
    for r in res:
        assert r.trials == 500
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


def test_op_pair_is_joint_outage_proportion(fast_cfg):
    """OP_pair is the fraction of trials in which both users of the cluster are in
    outage, with its binomial SE."""
    cfg = fast_cfg.with_updates(tx_power_dbm=-10.0)
    batch = run_trials(cfg, 4000, threads=1)
    for pair in estimates_from_batch(cfg, batch, "OP_pair"):
        both = batch.outage[:, pair.m, :].all(axis=1)
        assert 0 < both.sum() < batch.outage[:, pair.m, :].any(axis=1).sum()
        assert pair.estimate == both.mean()
        assert pair.stderr == pytest.approx(math.sqrt(both.mean() * (1 - both.mean()) / 4000))


def test_op_pair_matches_closed_form_on_an_ideal_surface(baseline_cfg):
    """On an ideal surface the residue is zero and the users' gains independent, so
    the joint outage rate estimates the product of the users' closed-form OP."""
    cfg = baseline_cfg.with_updates(tx_power_dbm=-10.0)
    batch = run_trials(cfg, 8192, threads=2)
    closed_forms = PowerFreeTerms.from_config(cfg).closed_forms(
        cfg.tx_power_watt, cfg.noise_watt, ("OP_pair",))
    for pair in estimates_from_batch(cfg, batch, "OP_pair"):
        closed = closed_forms[pair.m]["OP_pair", None]
        assert 0.02 < closed < 0.2   # outage events are frequent here
        assert abs(pair.estimate - closed) <= 3.0 * pair.stderr, (pair.m, closed)


def test_se_and_ee_estimates(fast_cfg):
    batch = run_trials(fast_cfg, 2000, threads=1)
    se = [r for r in estimates_from_batch(fast_cfg, batch, "SE") if r.m == 0][0]
    assert se.estimate == pytest.approx(batch.rate[:, 0, :].sum(axis=1).mean())
    ee = [r for r in estimates_from_batch(fast_cfg, batch, "EE") if r.m == 0][0]
    denom = (fast_cfg.p_bs_watt + 2 * fast_cfg.p_user_watt
             + fast_cfg.tx_power_watt * fast_cfg.amp_factor + fast_cfg.N * fast_cfg.p_ris_watt)
    assert ee.estimate == pytest.approx(se.estimate / denom)
    assert ee.stderr == pytest.approx(se.stderr / denom)


def test_feasibility_rate_and_conditioning(fast_cfg):
    batch = run_trials(fast_cfg, 2000, threads=1)
    rate = estimates_from_batch(fast_cfg, batch, "feasibility_rate")[0]
    assert rate.m is None and rate.k is None
    assert 0.0 <= rate.estimate <= 1.0
    conditioned = estimates_from_batch(fast_cfg, batch, "OP_user", feasible_only=True)
    assert conditioned[0].trials == int(batch.feasible.sum())


def test_feasibility_rate_needs_no_feasible_trial(baseline_cfg):
    """The feasibility filter conditions the user and cluster metrics only: with no
    feasible trial the feasibility rate is 0, and a filtered metric has no sample."""
    cfg = baseline_cfg.with_updates(N=8)
    batch = run_trials(cfg, 500, threads=1)
    assert not batch.feasible.any() and not batch.failed.any()
    for feasible_only in (False, True):
        (rate,) = estimates_from_batch(cfg, batch, "feasibility_rate", feasible_only)
        assert (rate.estimate, rate.stderr, rate.trials) == (0.0, 0.0, 500)
    for metric in ("OP_user", "OP_pair"):
        with pytest.raises(ValueError, match="no usable trials"):
            estimates_from_batch(cfg, batch, metric, feasible_only=True)


def test_every_trial_failed_names_the_failed_trials(baseline_cfg, monkeypatch):
    """With every trial failed, no filter is to blame: the error names the failed
    trials, with or without --feasible-only and for the unfiltered feasibility rate."""
    def failing_chunk(cfg, gains, start, count, out=None):
        raise np.linalg.LinAlgError("injected failure")

    monkeypatch.setattr("scbsim.montecarlo._surface_chunk", failing_chunk)
    batch = run_trials(baseline_cfg, 4, threads=1)
    assert batch.failed.all()
    for metric in ("feasibility_rate", "OP_user", "OP_pair"):
        for feasible_only in (False, True):
            with pytest.raises(ValueError, match=f"^all 4 trials failed numerically; "
                                                 f"no {metric} estimate$"):
                estimates_from_batch(baseline_cfg, batch, metric, feasible_only)


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
    res = estimates_from_batch(cfg, run_trials(cfg, 500, threads=1), "OP_user")
    assert all(r.estimate == 0.0 and r.stderr == 0.0 for r in res)


def test_huge_target_rates_give_certain_outage(fast_cfg):
    cfg = fast_cfg.with_updates(target_rate=(60.0, 60.0), tx_power_dbm=30.0)
    res = estimates_from_batch(cfg, run_trials(cfg, 500, threads=1), "OP_user")
    assert all(r.estimate == 1.0 for r in res)


def clean_run(cfg):
    """3000 trials (a full and a partial chunk) that must finish without a failed trial."""
    batch = run_trials(cfg, 3000, threads=2)
    assert batch.failures == 0
    for name in ("rate", "oma_rate", "residue", "eff_gain", "residual_rel"):
        assert np.isfinite(getattr(batch, name)).all(), name
    return batch


def test_single_user_clusters(baseline_cfg):
    """K=1: no superposition, so the NOMA rate is the OMA rate up to the solver residue."""
    batch = clean_run(baseline_cfg.with_updates(
        K=1, d_user=((80.0,), (80.0,)), d_direct=((100.0,), (100.0,)),
        power_alloc=(1.0,), target_rate=(1.0,)))
    assert batch.residual_rel.max() <= 1e-10
    assert np.allclose(batch.rate, batch.oma_rate, rtol=1e-9, atol=0.0)


def test_one_bit_surface(baseline_cfg):
    batch = clean_run(baseline_cfg.with_updates(resolution_bits=1))
    assert batch.residue.min() > 0.0
    assert 0.0 < batch.outage.mean() < 1.0


def test_too_few_elements_leave_inconsistent_systems(baseline_cfg):
    """N=4 is below the rank bound: cancellation is a least-squares fit, not exact."""
    batch = clean_run(baseline_cfg.with_updates(N=4))
    assert 0.5 < batch.residual_rel.max() <= 1.0
    assert batch.feasible.mean() < 0.05
    assert batch.residue.min() > 0.0


@pytest.mark.parametrize("p_dbm,op", [(100.0, 0.0), (-100.0, 1.0)])
def test_extreme_powers_pin_outage(baseline_cfg, p_dbm, op):
    batch = clean_run(baseline_cfg.with_updates(tx_power_dbm=p_dbm))
    assert (batch.outage.mean(axis=0) == op).all()


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
    assert sweep_config(fast_cfg, "master_seed", 7.0).master_seed == 7


def test_sweep_config_rejects_non_integral_integers(fast_cfg):
    for var in ("N", "L", "M", "K", "resolution_bits", "trials", "master_seed"):
        with pytest.raises(ValueError, match="integer"):
            sweep_config(fast_cfg, var, 40.7)


def test_sweep_spec_validation(fast_cfg):
    # a sweep is rejected before any work: no values, non-finite values, unknown metrics
    with pytest.raises(ValueError):
        parse_sweep("tx_power_dbm=")
    with pytest.raises(ValueError):
        parse_sweep("tx_power_dbm=nan")
    batch = run_trials(fast_cfg, 100, threads=1)
    with pytest.raises(ValueError):
        estimates_from_batch(fast_cfg, batch, "nope")


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
    cfg = baseline_cfg.with_updates(cancellation_mode="per-symbol", N=20,
                                    tx_power_dbm=0.0)
    batch = run_trials(cfg, 1000, threads=1)
    assert batch.residual_rel.max() <= 1e-10   # N >= M*K*L*(M-1) = 8
    assert batch.residue.min() > 0

    # residue identity: exactly the reflected desired-column power
    t = 7
    w, h, g = assemble_batch(cfg, draw_chunk_normals(cfg, t, 1))
    gains = compute_gains(cfg)
    phi, _, _, _ = solve_passive_batch(
        build_matrix_batch(h, g, gains.l_reflect, "per-symbol"),
        build_target_batch(w, gains.l_direct, "per-symbol"))
    for m in range(2):
        for k in range(2):
            mixed = g[0, m, k] @ (phi[0][:, None] * h[0])
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
