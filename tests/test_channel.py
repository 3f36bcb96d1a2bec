import numpy as np
import pytest

from scbsim.channel import (
    assemble_batch,
    rician_mix,
    draw_rayleigh_matrix,
    draw_realization,
    draw_rician_matrix,
    normals_per_trial,
)
from scbsim.numerics import ks_critical, ks_statistic


def rng(seed=0):
    return np.random.default_rng(seed)


def test_rayleigh_power_moments():
    z = draw_rayleigh_matrix(1000, 1000, rng(1))
    power = np.square(np.abs(z))
    assert power.mean() == pytest.approx(1.0, abs=0.005)
    assert power.var() == pytest.approx(1.0, abs=0.01)


def test_rayleigh_power_is_unit_exponential():
    power = np.square(np.abs(draw_rayleigh_matrix(100000, 1, rng(2)))).ravel()
    stat = ks_statistic(power, lambda x: 1.0 - np.exp(-x))
    assert stat < ks_critical(power.size, alpha=0.01)


def test_rician_large_factor_collapses_to_los():
    z = draw_rician_matrix(20, 20, 1e6, rng(3))
    dev = np.abs(z - 1.0)
    assert dev.mean() < 1.2e-3
    assert dev.max() < 5e-3
    z = draw_rician_matrix(20, 20, 1e12, rng(3))
    assert np.abs(z - 1.0).max() < 5e-6


def test_rician_zero_factor_is_rayleigh():
    power = np.square(np.abs(draw_rician_matrix(100000, 1, 0.0, rng(4)))).ravel()
    stat = ks_statistic(power, lambda x: 1.0 - np.exp(-x))
    assert stat < ks_critical(power.size, alpha=0.01)


def test_rician_unit_mean_power():
    z = draw_rician_matrix(1000, 1000, 3.0, rng(5))
    assert np.square(np.abs(z)).mean() == pytest.approx(1.0, abs=0.01)


def test_rician_rejects_negative_factor():
    with pytest.raises(ValueError):
        draw_rician_matrix(2, 2, -0.5, rng(6))


def test_realization_shapes(baseline_cfg):
    cfg = baseline_cfg.with_updates(N=8)
    ch = draw_realization(cfg, rng(7))
    assert ch.h.shape == (8, 2)
    assert ch.w.shape == (2, 2, 2, 2)
    assert ch.g.shape == (2, 2, 2, 8)
    assert np.isfinite(ch.w).all() and np.isfinite(ch.h).all() and np.isfinite(ch.g).all()


def test_realization_deterministic(baseline_cfg):
    a = draw_realization(baseline_cfg, rng(11))
    b = draw_realization(baseline_cfg, rng(11))
    assert np.array_equal(a.w, b.w)
    assert np.array_equal(a.h, b.h)
    assert np.array_equal(a.g, b.g)
    c = draw_realization(baseline_cfg, rng(12))
    assert not np.array_equal(a.w, c.w)


def test_assemble_batch_matches_single(baseline_cfg):
    n = normals_per_trial(baseline_cfg)
    flat = rng(13).standard_normal((3, n))
    w, h, g = assemble_batch(baseline_cfg, flat)
    for t in range(3):
        wt, ht, gt = assemble_batch(baseline_cfg, flat[t])
        assert np.array_equal(w[t], wt)
        assert np.array_equal(h[t], ht)
        assert np.array_equal(g[t], gt)


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
    for block in (flat, flat[3]):
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
