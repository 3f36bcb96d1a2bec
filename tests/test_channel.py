import numpy as np
import pytest

from scbsim.channel import assemble_batch, normals_per_trial, rician_mix
from scbsim.montecarlo import draw_chunk_normals
from scbsim.numerics import ks_critical, ks_statistic


def rng(seed=0):
    return np.random.default_rng(seed)


def fading(cfg, trials, seed):
    """(w, h, g) of ``trials`` independent trials through assemble_batch."""
    return assemble_batch(cfg, rng(seed).standard_normal((trials, normals_per_trial(cfg))))


def unit_exponential_ks(power):
    return ks_statistic(power, lambda x: 1.0 - np.exp(-x)) < ks_critical(power.size, alpha=0.01)


def test_rayleigh_power_moments(baseline_cfg):
    # the direct links W are Rayleigh: 16 entries per trial at N=1
    w, _, _ = fading(baseline_cfg.with_updates(N=1), 62500, 1)
    power = np.square(np.abs(w))
    assert power.size == 1_000_000
    assert power.mean() == pytest.approx(1.0, abs=0.005)
    assert power.var() == pytest.approx(1.0, abs=0.01)


def test_rayleigh_power_is_unit_exponential(baseline_cfg):
    w, _, _ = fading(baseline_cfg.with_updates(N=1), 6250, 2)
    assert unit_exponential_ks(np.square(np.abs(w)).ravel())


def test_rician_large_factor_collapses_to_los(baseline_cfg):
    cfg = baseline_cfg.with_updates(N=50, rician_k1=1e6, rician_k2=1e6)
    _, h, g = fading(cfg, 1, 3)
    for z in (h, g):
        dev = np.abs(z - 1.0)
        assert dev.mean() < 1.2e-3
        assert dev.max() < 5e-3
    _, h, g = fading(cfg.with_updates(rician_k1=1e12, rician_k2=1e12), 1, 3)
    assert np.abs(h - 1.0).max() < 5e-6
    assert np.abs(g - 1.0).max() < 5e-6


def test_rician_zero_factor_is_rayleigh(baseline_cfg):
    # configs require a positive factor; 1e-12 leaves a 1e-6 LoS term
    assert rician_mix(0.0) == (0.0, 1.0)
    cfg = baseline_cfg.with_updates(N=50, rician_k1=1e-12, rician_k2=1e-12)
    _, h, g = fading(cfg, 250, 4)
    assert unit_exponential_ks(np.square(np.abs(h)).ravel())
    assert unit_exponential_ks(np.square(np.abs(g)).ravel())


def test_rician_unit_mean_power(baseline_cfg):
    _, h, g = fading(baseline_cfg.with_updates(N=50, rician_k1=3.0, rician_k2=3.0), 2500, 5)
    assert np.square(np.abs(h)).mean() == pytest.approx(1.0, abs=0.01)
    assert np.square(np.abs(g)).mean() == pytest.approx(1.0, abs=0.01)


def test_rician_rejects_negative_factor():
    with pytest.raises(ValueError):
        rician_mix(-0.5)


def test_realization_shapes(baseline_cfg):
    cfg = baseline_cfg.with_updates(N=8)
    w, h, g = fading(cfg, 3, 7)
    assert h.shape == (3, 8, 2)
    assert w.shape == (3, 2, 2, 2, 2)
    assert g.shape == (3, 2, 2, 2, 8)
    assert np.isfinite(w).all() and np.isfinite(h).all() and np.isfinite(g).all()
    one = assemble_batch(cfg, draw_chunk_normals(cfg, 0, 1))
    assert [x.shape for x in one] == [(1, 2, 2, 2, 2), (1, 8, 2), (1, 2, 2, 2, 8)]


def test_realization_deterministic(baseline_cfg):
    a = assemble_batch(baseline_cfg, draw_chunk_normals(baseline_cfg, 11, 2))
    b = assemble_batch(baseline_cfg, draw_chunk_normals(baseline_cfg, 11, 2))
    for x, y in zip(a, b):
        assert x.tobytes() == y.tobytes()
    other = baseline_cfg.with_updates(master_seed=1)
    c = assemble_batch(other, draw_chunk_normals(other, 11, 2))
    assert not np.array_equal(a[0], c[0])
    assert not np.array_equal(a[0][0], a[0][1])    # trials 11 and 12 differ


def test_assemble_batch_matches_single(baseline_cfg):
    n = normals_per_trial(baseline_cfg)
    flat = rng(13).standard_normal((3, n))
    w, h, g = assemble_batch(baseline_cfg, flat)
    for t in range(3):
        wt, ht, gt = assemble_batch(baseline_cfg, flat[t:t + 1])
        assert np.array_equal(w[t], wt[0])
        assert np.array_equal(h[t], ht[0])
        assert np.array_equal(g[t], gt[0])


def strided_reference(cfg, flat):
    """The documented layout, read with strided (real, imag) slices.

    Per trial: H (N x M), then for each (m, k) in lexicographic order
    W[m, k] (L x M) followed by G[m, k] (L x N), each block row-major.
    """
    M, K, L, N = cfg.M, cfg.K, cfg.L, cfg.N
    lead = flat.shape[:-1]
    z = (flat[..., 0::2] + 1j * flat[..., 1::2]) * (1.0 / np.sqrt(2.0))
    los1, nlos1 = rician_mix(cfg.rician_k1)
    los2, nlos2 = rician_mix(cfg.rician_k2)
    h = los1 + nlos1 * z[..., :N * M].reshape(lead + (N, M))
    per_user = L * M + L * N
    w_blocks, g_blocks = [], []
    for m in range(M):
        for k in range(K):
            off = N * M + (m * K + k) * per_user
            w_blocks.append(z[..., off:off + L * M].reshape(lead + (L, M)))
            g_blocks.append(z[..., off + L * M:off + per_user].reshape(lead + (L, N)))
    axis = len(lead)
    w = np.stack(w_blocks, axis=axis).reshape(lead + (M, K, L, M))
    g = los2 + nlos2 * np.stack(g_blocks, axis=axis).reshape(lead + (M, K, L, N))
    return w, h, g


@pytest.mark.parametrize("dims", [{}, {"N": 256, "resolution_bits": 3},
                                  {"M": 3, "L": 4, "N": 96}])
def test_assemble_batch_matches_strided_layout(baseline_cfg, dims):
    if "M" in dims:
        dims = dict(dims, d_user=((160.0, 80.0),) * 3, d_direct=((200.0, 100.0),) * 3)
    cfg = baseline_cfg.with_updates(**dims)
    flat = rng(15).standard_normal((5, normals_per_trial(cfg)))
    for block in (flat, flat[3:4]):
        got = assemble_batch(cfg, block)
        want = strided_reference(cfg, block)
        for x, y in zip(got, want):
            assert x.shape == y.shape and x.dtype == y.dtype
            assert x.tobytes() == y.tobytes()


def test_unit_mean_power_through_assembly(baseline_cfg):
    flat = rng(14).standard_normal((4000, normals_per_trial(baseline_cfg)))
    w, h, g = assemble_batch(baseline_cfg, flat)
    assert np.square(np.abs(w)).mean() == pytest.approx(1.0, abs=0.01)
    assert np.square(np.abs(h)).mean() == pytest.approx(1.0, abs=0.01)
    assert np.square(np.abs(g)).mean() == pytest.approx(1.0, abs=0.01)
