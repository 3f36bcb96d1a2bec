import numpy as np
import pytest

from scbsim.beamforming import (
    aggregate_residues,
    build_matrix_batch,
    build_target_batch,
    quantize_levels,
    quantize_surface,
    residues_batch,
    solve_passive_batch,
    sum_last_axis,
)
from scbsim.channel import assemble_batch, normals_per_trial
from scbsim.pathloss import LargeScaleGains, compute_gains
from scbsim.scenario import AGGREGATE, PER_SYMBOL

TWO_PI = 2.0 * np.pi


def unit_gains(M, K):
    return LargeScaleGains(l_direct=np.ones((M, K)), l_reflect=np.ones((M, K)))


def one_trial(w, h, g):
    """A stack of one trial from (M, K, L, M), (N, M) and (M, K, L, N) arrays."""
    return tuple(np.asarray(x, complex)[None] for x in (w, h, g))


def random_channel(rng, M, K, L, N):
    def cx(shape):
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)
    return one_trial(cx((M, K, L, M)), cx((N, M)), cx((M, K, L, N)))


def drawn_channel(cfg, seed, trials=1):
    flat = np.random.default_rng(seed).standard_normal((trials, normals_per_trial(cfg)))
    return assemble_batch(cfg, flat)


def system(w, h, g, gains, mode):
    return (build_matrix_batch(h, g, gains.l_reflect, mode),
            build_target_batch(w, gains.l_direct, mode))


def dense_residue(w, h, g, gains, phi, m, k):
    """Residue of user (m, k) of one trial, evaluated without row stacking."""
    M = h.shape[1]
    refl = np.sqrt(gains.l_reflect[m, k]) * (g[m, k] @ (phi * (h @ np.ones(M))))
    wbar = np.delete(w[m, k], m, axis=1)
    direct = np.sqrt(gains.l_direct[m, k]) * (wbar @ np.ones(M - 1))
    return float(np.square(np.abs(refl + direct)).sum())


# -- interference target -------------------------------------------------------

def test_target_single_interferer():
    w = np.zeros((2, 1, 1, 2), complex)
    w[0, 0, 0] = [1.5 + 0.5j, 2.0 - 1.0j]
    w[1, 0, 0] = [0.3, 0.7]
    gains = LargeScaleGains(l_direct=np.full((2, 1), 0.25), l_reflect=np.ones((2, 1)))
    w, _, _ = one_trial(w, np.zeros((4, 2)), np.zeros((2, 1, 1, 4)))
    b = build_target_batch(w, gains.l_direct, AGGREGATE)[0]
    # cluster 0 sees column 1, cluster 1 sees column 0; sqrt(0.25) = 0.5
    assert b[0] == pytest.approx(-0.5 * (2.0 - 1.0j))
    assert b[1] == pytest.approx(-0.5 * 0.3)


def test_target_all_ones_channels():
    M, K, L = 3, 2, 2
    w, _, _ = one_trial(np.ones((M, K, L, M)), np.ones((4, M)), np.ones((M, K, L, 4)))
    b = build_target_batch(w, unit_gains(M, K).l_direct, AGGREGATE)
    assert b.shape == (1, M * K * L)
    assert np.allclose(b, -(M - 1))


def test_row_counts_by_mode():
    rng = np.random.default_rng(0)
    for M, K, L in ((2, 2, 2), (3, 2, 2)):
        w, h, g = random_channel(rng, M, K, L, 8)
        for mode, rows in ((AGGREGATE, M * K * L), (PER_SYMBOL, M * K * L * (M - 1))):
            h_tilde, b = system(w, h, g, unit_gains(M, K), mode)
            assert h_tilde.shape == (1, rows, 8)
            assert b.shape == (1, rows)


def test_single_cluster_has_empty_system(baseline_cfg):
    cfg = baseline_cfg.with_updates(M=1, d_user=((160.0, 80.0),),
                                    d_direct=((200.0, 100.0),))
    w, h, g = drawn_channel(cfg, 5, trials=3)
    gains = compute_gains(cfg)
    for mode in (AGGREGATE, PER_SYMBOL):
        h_tilde, b = system(w, h, g, gains, mode)
        assert h_tilde.shape == (3, 0, cfg.N)
        assert b.shape == (3, 0)
        phi, resid, feasible, consistent = solve_passive_batch(h_tilde, b)
        assert phi.shape == (3, cfg.N) and np.all(phi == 0.0)
        assert np.all(resid == 0.0)
        assert feasible.all() and consistent.all()


# -- effective matrix ------------------------------------------------------------

def test_matrix_single_row_expansion():
    # N=1, L=K=1, M=2: single row sqrt(Lr) * g * (h_1 + h_2)
    h = np.array([[0.3 + 0.1j, -0.2 + 0.4j]])
    g = np.zeros((2, 1, 1, 1), complex)
    g[0, 0, 0, 0] = 1.5 - 0.5j
    g[1, 0, 0, 0] = 0.8
    gains = LargeScaleGains(l_direct=np.ones((2, 1)), l_reflect=np.full((2, 1), 0.04))
    _, h, g = one_trial(np.zeros((2, 1, 1, 2)), h, g)
    h_tilde = build_matrix_batch(h, g, gains.l_reflect, AGGREGATE)
    expected = 0.2 * (1.5 - 0.5j) * (h[0, 0, 0] + h[0, 0, 1])
    assert h_tilde[0, 0, 0] == pytest.approx(expected)


@pytest.mark.parametrize("M", [1, 2, 3])
def test_sum_last_axis_is_numpy_sum_bit_for_bit(M):
    """The sequential adds build_matrix_batch uses for h's M columns give the bytes
    of h.sum(axis=-1), signed zeros included."""
    rng = np.random.default_rng(40 + M)
    h = rng.standard_normal((50, 256, M)) + 1j * rng.standard_normal((50, 256, M))
    h[0, :3] = -0.0
    h[1, 0].real = -0.0
    assert sum_last_axis(h).tobytes() == h.sum(axis=-1).tobytes()


def test_matrix_all_ones_channels():
    M, K, L, N = 3, 1, 2, 5
    _, h, g = one_trial(np.ones((M, K, L, M)), np.ones((N, M)), np.ones((M, K, L, N)))
    h_tilde = build_matrix_batch(h, g, unit_gains(M, K).l_reflect, AGGREGATE)
    assert np.allclose(h_tilde, M)


def test_matrix_action_matches_dense_evaluation():
    """h_tilde @ phi must equal the per-user aggregate reflected signal."""
    rng = np.random.default_rng(7)
    M, K, L, N = 2, 2, 2, 9
    _, h, g = random_channel(rng, M, K, L, N)
    l_reflect = rng.random((M, K)) * 0.5 + 0.1
    h_tilde = build_matrix_batch(h, g, l_reflect, AGGREGATE)[0]
    phi = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    action = h_tilde @ phi
    rows = [(m, k, l) for m in range(M) for k in range(K) for l in range(L)]
    assert len(rows) == len(action)
    for row, (m, k, l) in enumerate(rows):
        dense = np.sqrt(l_reflect[m, k]) * (
            g[0, m, k] @ np.diag(phi) @ h[0] @ np.ones(M))[l]
        assert action[row] == pytest.approx(dense, rel=1e-12)


def test_per_symbol_matrix_action():
    rng = np.random.default_rng(8)
    M, K, L, N = 3, 1, 2, 14
    _, h, g = random_channel(rng, M, K, L, N)
    h_tilde = build_matrix_batch(h, g, unit_gains(M, K).l_reflect, PER_SYMBOL)[0]
    phi = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    action = h_tilde @ phi
    rows = [(m, k, l, mp) for m in range(M) for k in range(K) for l in range(L)
            for mp in range(M) if mp != m]
    assert len(rows) == len(action)
    for row, (m, k, l, mp) in enumerate(rows):
        dense = (g[0, m, k] @ np.diag(phi) @ h[0])[l, mp]
        assert action[row] == pytest.approx(dense, rel=1e-12)


# -- solve -------------------------------------------------------------------------

def test_solve_consistent_underdetermined(baseline_cfg):
    w, h, g = drawn_channel(baseline_cfg, 1, trials=4)
    h_tilde, b = system(w, h, g, compute_gains(baseline_cfg), AGGREGATE)
    phi, resid, feasible, consistent = solve_passive_batch(h_tilde, b)
    assert phi.shape == (4, baseline_cfg.N)
    assert (resid <= 1e-10 * np.linalg.norm(b, axis=-1)).all()
    assert consistent.all()
    assert np.array_equal(feasible, np.abs(phi).max(axis=-1) <= 1.0 + 1e-12)


def test_solve_below_rank_bound_is_flagged(baseline_cfg):
    cfg = baseline_cfg.with_updates(N=baseline_cfg.M * baseline_cfg.K * baseline_cfg.L - 1)
    w, h, g = drawn_channel(cfg, 2, trials=4)
    h_tilde, b = system(w, h, g, compute_gains(cfg), AGGREGATE)
    _, resid, _, consistent = solve_passive_batch(h_tilde, b)
    assert (resid > 0).all()
    assert not consistent.any()


# -- quantization --------------------------------------------------------------------

def test_quantize_one_bit_example():
    amp, ph = quantize_levels(np.array([0.9]), np.array([3.0]), bits=1)
    assert amp[0] == pytest.approx(0.5)
    assert ph[0] == pytest.approx(np.pi)


def test_quantize_two_bit_example():
    amp, ph = quantize_levels(np.array([0.6]), np.array([1.0]), bits=2)
    assert amp[0] == pytest.approx(0.5)
    assert ph[0] == pytest.approx(np.pi / 2)


def test_quantize_phase_wraparound():
    amp, ph = quantize_levels(np.array([0.4]), np.array([TWO_PI - 1e-6]), bits=1)
    assert ph[0] == 0.0


def test_quantize_ties_go_to_smaller_level():
    amp, _ = quantize_levels(np.array([0.25]), np.array([0.0]), bits=1)
    assert amp[0] == 0.0
    _, ph = quantize_levels(np.array([0.4]), np.array([np.pi / 4]), bits=2)
    assert ph[0] == 0.0


def test_quantize_levels_idempotent():
    rng = np.random.default_rng(11)
    amps = rng.random(500)
    phases = rng.random(500) * TWO_PI
    for bits in (1, 2, 3, 6):
        a1, p1 = quantize_levels(amps, phases, bits)
        a2, p2 = quantize_levels(a1, p1, bits)
        assert np.array_equal(a1, a2)
        assert np.array_equal(p1, p2)


def test_quantize_error_bound():
    rng = np.random.default_rng(12)
    amps = rng.random(2000)
    phases = rng.random(2000) * TWO_PI
    for bits in (1, 2, 4):
        T = 2 ** bits
        a, p = quantize_levels(amps, phases, bits)
        err = np.abs(a * np.exp(1j * p) - amps * np.exp(1j * phases))
        bound = 0.5 / T + (T - 1) / T * np.pi / T + (T - 1) / T ** 2
        assert err.max() <= bound + 1e-12


def test_quantize_surface_is_levels_times_phasor():
    """The phasor table gives the bytes of amp * exp(1j * phase) at the quantized levels."""
    rng = np.random.default_rng(13)
    phi = (rng.random((64, 48)) * 1.2) * np.exp(1j * (rng.random((64, 48)) * 4 * np.pi - 2 * np.pi))
    phi[0, :4] = (0.0, -1.0, 1j, -1e-300)   # zero, the branch cut, an axis, a signed tiny value
    for bits in (1, 2, 3, 6):
        amp, ph = quantize_levels(np.abs(phi), np.angle(phi), bits)
        want = amp * np.exp(1j * ph)
        got = quantize_surface(phi, bits)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), bits
    with pytest.raises(ValueError):
        quantize_surface(phi, 0)


# -- residue ---------------------------------------------------------------------------

def test_residue_zero_for_exact_solution(baseline_cfg):
    w, h, g = drawn_channel(baseline_cfg, 6, trials=3)
    gains = compute_gains(baseline_cfg)
    h_tilde, b = system(w, h, g, gains, AGGREGATE)
    phi, _, _, _ = solve_passive_batch(h_tilde, b)
    total_b = np.square(np.abs(b)).sum(axis=-1)
    assert (residues_batch(w, h, g, gains, phi) <= 1e-18 * total_b[:, None, None]).all()


def test_residue_with_zero_coefficients_is_direct_power(baseline_cfg):
    w, h, g = drawn_channel(baseline_cfg, 7)
    gains = compute_gains(baseline_cfg)
    got = residues_batch(w, h, g, gains, np.zeros((1, baseline_cfg.N), complex))
    for m in range(2):
        for k in range(2):
            wbar = np.delete(w[0, m, k], m, axis=1)
            expected = gains.l_direct[m, k] * np.square(
                np.abs(wbar @ np.ones(1))).sum()
            assert got[0, m, k] == pytest.approx(expected, rel=1e-12)


def test_block_consistency_for_arbitrary_phi(baseline_cfg):
    """Sum of per-user residues equals ||h_tilde phi - b||^2 in aggregate mode."""
    rng = np.random.default_rng(8)
    w, h, g = drawn_channel(baseline_cfg, 8)
    gains = compute_gains(baseline_cfg)
    h_tilde, b = system(w, h, g, gains, AGGREGATE)
    solved, _, _, _ = solve_passive_batch(h_tilde, b)
    for phi in (solved[0], rng.standard_normal(40) * np.exp(1j * rng.random(40))):
        total = residues_batch(w, h, g, gains, phi[None]).sum()
        direct = float(np.square(np.abs(h_tilde[0] @ phi - b[0])).sum())
        assert total == pytest.approx(direct, rel=1e-10, abs=1e-30)


def test_residues_batch_matches_single(baseline_cfg):
    rng = np.random.default_rng(9)
    gains = compute_gains(baseline_cfg)
    w, h, g = drawn_channel(baseline_cfg, 100, trials=3)
    phi = rng.standard_normal((3, 40)) + 1j * rng.standard_normal((3, 40))
    batch = residues_batch(w, h, g, gains, phi)
    for t in range(3):
        for m in range(2):
            for k in range(2):
                assert batch[t, m, k] == pytest.approx(
                    dense_residue(w[t], h[t], g[t], gains, phi[t], m, k), rel=1e-10)


def test_aggregate_residues_match_dense(baseline_cfg):
    """The engine's residues from the solved system, for a solved and a 3-bit phi."""
    w, h, g = drawn_channel(baseline_cfg, 10, trials=3)
    gains = compute_gains(baseline_cfg)
    h_tilde, b = system(w, h, g, gains, AGGREGATE)
    solved, _, _, _ = solve_passive_batch(h_tilde, b)
    for phi in (solved, quantize_surface(solved, 3)):
        got = aggregate_residues(h_tilde, b, phi, 2, 2)
        assert got.shape == (3, 2, 2)
        for t in range(3):
            for m in range(2):
                for k in range(2):
                    assert got[t, m, k] == pytest.approx(
                        dense_residue(w[t], h[t], g[t], gains, phi[t], m, k),
                        rel=1e-10, abs=1e-30)
        assert got.tobytes() == residues_batch(w, h, g, gains, phi).tobytes()


def test_aggregate_residues_single_cluster_are_zero(baseline_cfg):
    cfg = baseline_cfg.with_updates(M=1, d_user=baseline_cfg.d_user[:1],
                                    d_direct=baseline_cfg.d_direct[:1])
    w, h, g = drawn_channel(cfg, 11, trials=4)
    gains = compute_gains(cfg)
    h_tilde, b = system(w, h, g, gains, AGGREGATE)
    phi, _, _, _ = solve_passive_batch(h_tilde, b)
    for got in (aggregate_residues(h_tilde, b, phi, 1, cfg.K),
                residues_batch(w, h, g, gains, phi)):
        assert got.shape == (4, 1, cfg.K)
        assert got.tobytes() == np.zeros((4, 1, cfg.K)).tobytes()


def test_aggregate_build_in_place_of_g(baseline_cfg):
    """Writing the aggregate rows over g gives the bytes of a separate buffer."""
    w, h, g = drawn_channel(baseline_cfg, 12, trials=5)
    gains = compute_gains(baseline_cfg)
    want = build_matrix_batch(h, g, gains.l_reflect, AGGREGATE)
    T, M, K, L, N = g.shape
    got = build_matrix_batch(h, g, gains.l_reflect, AGGREGATE, out=g.reshape(T, M * K * L, N))
    assert np.shares_memory(got, g)
    assert got.tobytes() == want.tobytes()
