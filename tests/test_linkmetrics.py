import math

import numpy as np
import pytest

from scbsim.beamforming import (
    build_matrix_batch,
    build_target_batch,
    desired_columns,
    solve_passive_batch,
)
from scbsim.channel import assemble_batch, normals_per_trial
from scbsim.linkmetrics import oma_snr, sic_chain, sinr_sic
from scbsim.numerics import gamma_cdf, ks_critical, ks_statistic
from scbsim.pathloss import compute_gains
from scbsim.scenario import PER_SYMBOL, dbm_to_watt

NOISE = dbm_to_watt(-94.0)


def drawn_trial(cfg, seed):
    """One trial's (w, h, g), the phi solving its cancellation system, and consistency."""
    w, h, g = assemble_batch(cfg, np.random.default_rng(seed).standard_normal(
        (1, normals_per_trial(cfg))))
    gains = compute_gains(cfg)
    phi, _, _, consistent = solve_passive_batch(
        build_matrix_batch(h, g, gains.l_reflect, cfg.cancellation_mode),
        build_target_batch(w, gains.l_direct, cfg.cancellation_mode))
    return w[0], h[0], g[0], phi[0], bool(consistent[0])


def test_effective_gain_uses_desired_column():
    w = np.zeros((1, 2, 1, 2, 2), complex)
    w[0, 1, 0, :, 1] = [3.0, 4.0]       # desired column of cluster 1
    w[0, 1, 0, :, 0] = [100.0, 100.0]   # interfering column must not count
    eff = np.square(np.abs(desired_columns(w))).sum(axis=-1)
    assert eff[0, 1, 0] == pytest.approx(25.0)


@pytest.mark.parametrize("L", [1, 2, 4])
def test_effective_gain_is_gamma_distributed(L):
    rng = np.random.default_rng(20 + L)
    w = (rng.standard_normal((100000, L)) + 1j * rng.standard_normal((100000, L))) / np.sqrt(2)
    eff = np.square(np.abs(w)).sum(axis=1)
    assert ks_statistic(eff, lambda x: gamma_cdf(x, L)) < ks_critical(100000, 0.01)


def test_sinr_last_user_has_no_intra_interference():
    got = sinr_sic(2.0, 0.0, 1e-7, 1.0, (0.6, 0.4), 1, NOISE, 2)
    assert got == pytest.approx(2.0 * 1e-7 * 0.4 / (2 * NOISE), rel=1e-12)


def test_sinr_frozen_value():
    # g=1, Lb=1e-7, p=1 W, alloc=0.4, L=2, sigma^2 at -94 dBm
    assert sinr_sic(1.0, 0.0, 1e-7, 1.0, (0.6, 0.4), 1, NOISE, 2) == pytest.approx(
        50237.72863019165, rel=1e-12)


def test_sinr_far_user_saturates_at_allocation_ratio():
    high_p = sinr_sic(1.0, 0.0, 1e-7, 1e12, (0.6, 0.4), 0, NOISE, 2)
    assert high_p == pytest.approx(0.6 / 0.4, rel=1e-6)


def test_sinr_nonideal_reduces_and_saturates():
    base = sinr_sic(1.0, 0.0, 1e-7, 1.0, (0.6, 0.4), 1, NOISE, 2)
    with_res = sinr_sic(1.0, 1e-9, 1e-7, 1.0, (0.6, 0.4), 1, NOISE, 2)
    assert with_res < base
    assert sinr_sic(1.0, 2e-9, 1e-7, 1.0, (0.6, 0.4), 1, NOISE, 2) < with_res
    ceiling = sinr_sic(1.0, 1e-9, 1e-7, 1e15, (0.6, 0.4), 1, NOISE, 2)
    assert ceiling == pytest.approx(1e-7 * 0.4 / 1e-9, rel=1e-4)


def test_sic_chain_far_user_single_stage():
    out, rate = sic_chain(1.0, 0.0, 1e-7, 1.0, (0.6, 0.4), (1.0, 1.5), 0, NOISE, 2)
    s = sinr_sic(1.0, 0.0, 1e-7, 1.0, (0.6, 0.4), 0, NOISE, 2)
    assert out == (math.log2(1 + s) <= 1.0)


def test_sic_chain_zero_targets_never_outage():
    out, rate = sic_chain(0.01, 0.0, 1e-7, 1e-6, (0.6, 0.4), (0.0, 0.0), 1, NOISE, 2)
    assert not out and rate > 0


def test_sic_chain_deterministic_noise_free_limit():
    # near user, vanishing noise: stage 0 needs alloc ratio 1.5 above 2^R0 - 1
    tiny = 1e-300
    out_ok, _ = sic_chain(1.0, 0.0, 1e-7, 1.0, (0.6, 0.4), (1.0, 0.0), 1, tiny, 2)
    out_bad, rate = sic_chain(1.0, 0.0, 1e-7, 1.0, (0.6, 0.4), (1.4, 0.0), 1, tiny, 2)
    assert not out_ok
    # the rate is the own stage's, whether or not an earlier stage failed
    own = sinr_sic(1.0, 0.0, 1e-7, 1.0, (0.6, 0.4), 1, tiny, 2)
    assert out_bad and rate == np.log2(1.0 + own) > 0


def test_sic_chain_vectorizes():
    eff = np.array([1e-5, 1.0, 50.0])
    out, rate = sic_chain(eff, 0.0, 1e-7, 1.0, (0.6, 0.4), (1.0, 1.5), 1, NOISE, 2)
    assert out.shape == (3,) and rate.shape == (3,)
    assert out[0] and not out[2]
    own = sinr_sic(eff, 0.0, 1e-7, 1.0, (0.6, 0.4), 1, NOISE, 2)
    assert rate.tobytes() == np.log2(1.0 + own).tobytes()
    assert (rate > 0).all()


def test_oma_threshold_and_identity():
    # K=2, R=1: outage iff snr <= 3
    for eff, expect in ((3.001, False), (2.999, True)):
        snr, out = oma_snr(eff, 1.0, 1.0, 1.0 / 2.0, 2, 2, 1.0)
        assert snr == pytest.approx(eff)
        assert bool(out) is expect
    # OMA SNR equals the last NOMA user's SINR divided by its allocation
    eff, lb, p = 1.7, 1e-7, 2.0
    snr, _ = oma_snr(eff, lb, p, NOISE, 2, 2, 1.0)
    noma = sinr_sic(eff, 0.0, lb, p, (0.6, 0.4), 1, NOISE, 2)
    assert snr == pytest.approx(noma / 0.4, rel=1e-12)


def test_oma_single_user_reduces_to_noma():
    eff = 0.8
    snr, out = oma_snr(eff, 1e-7, 1.0, NOISE, 2, 1, 1.0)
    noma = sinr_sic(eff, 0.0, 1e-7, 1.0, (1.0,), 0, NOISE, 2)
    assert snr == pytest.approx(noma, rel=1e-12)
    assert out == (math.log2(1 + noma) <= 1.0)


def test_exact_sinr_per_symbol_cancellation(baseline_cfg):
    cfg = baseline_cfg.with_updates(cancellation_mode=PER_SYMBOL, N=24)
    w, h, g, phi, consistent = drawn_trial(cfg, 31)
    gains = compute_gains(cfg)
    assert consistent
    for m in range(2):
        for k in range(2):
            # the per-TX combined interference coefficients are zeroed
            mixed = g[m, k] @ (phi[:, None] * h)
            comb = (np.sqrt(gains.l_reflect[m, k]) * mixed
                    + np.sqrt(gains.l_direct[m, k]) * w[m, k]).sum(axis=0)
            inter = np.square(np.abs(np.delete(comb, m))).sum()
            assert inter <= 1e-16 * np.square(np.abs(comb[m]))
