"""Small-scale fading generators.

Direct BS-user links are Rayleigh (each squared entry magnitude is unit-mean
exponential).  BS-RIS and RIS-user links are Rician with a deterministic
line-of-sight component fixed to the constant 1, so that for a large Rician
factor every entry tends to 1 + 0j.  All generators are normalized to
E[|entry|^2] = 1; large-scale effects live exclusively in the pathloss module.

A realization consumes a fixed number of standard normals carved from a
single flat draw in a documented order, which makes one realization a pure
function of the stream state and lets the Monte Carlo engine assemble whole
batches from per-trial streams without changing any value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_SQRT_HALF = 1.0 / np.sqrt(2.0)


@dataclass(frozen=True)
class ChannelRealization:
    """One random draw of every small-scale fading matrix.

    w: (M, K, L, M) complex, direct BS-user fading per (cluster, user)
    h: (N, M) complex, BS-RIS fading
    g: (M, K, L, N) complex, RIS-user fading per (cluster, user)
    """

    w: np.ndarray
    h: np.ndarray
    g: np.ndarray


def complex_normal(rng, shape):
    """I.i.d. circularly-symmetric complex Gaussians, zero mean, unit variance."""
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return (re + 1j * im) * _SQRT_HALF


def draw_rayleigh_matrix(rows, cols, rng):
    """Rayleigh fading matrix: |entry|^2 is unit-mean exponential."""
    if rows < 1 or cols < 1:
        raise ValueError("matrix dimensions must be >= 1")
    return complex_normal(rng, (rows, cols))


def rician_mix(k_factor):
    """LoS and scattered weights (sqrt(k/(k+1)), sqrt(1/(k+1)))."""
    if k_factor < 0:
        raise ValueError(f"Rician factor must be >= 0, got {k_factor}")
    return np.sqrt(k_factor / (k_factor + 1.0)), np.sqrt(1.0 / (k_factor + 1.0))


def draw_rician_matrix(rows, cols, k_factor, rng):
    """Rician fading matrix with all-ones LoS component; E[|entry|^2] = 1."""
    los, nlos = rician_mix(k_factor)
    return los + nlos * draw_rayleigh_matrix(rows, cols, rng)


def normals_per_trial(cfg):
    """Number of real standard normals one realization consumes."""
    n_complex = cfg.N * cfg.M + cfg.M * cfg.K * (cfg.L * cfg.M + cfg.L * cfg.N)
    return 2 * n_complex


def assemble_batch(cfg, flat):
    """Carve a (T, normals_per_trial) standard-normal block into fading arrays.

    Layout per trial: the flat vector is interpreted as interleaved
    (real, imag) pairs of complex Gaussians, consumed block-wise in the order
    [H, then W and G alternating over (m, k) in lexicographic order], each
    block row-major.  Returns (w, h, g) with a leading trial axis.
    """
    M, K, L, N = cfg.M, cfg.K, cfg.L, cfg.N
    flat = np.ascontiguousarray(flat, dtype=np.float64)
    squeeze = flat.ndim == 1
    if squeeze:
        flat = flat[None, :]
    T = flat.shape[0]
    z = flat.view(np.complex128)     # the interleaved pairs, without a copy

    # each block is scaled straight into its slot and the Rician mix is then
    # applied in place: the same operations in the same order as
    # los + nlos * (z * sqrt(1/2)), so the values are bit-identical
    h = np.empty((T, N, M), dtype=np.complex128)
    w = np.empty((T, M, K, L, M), dtype=np.complex128)
    g = np.empty((T, M, K, L, N), dtype=np.complex128)
    pos = N * M
    np.multiply(z[:, :pos].reshape(T, N, M), _SQRT_HALF, out=h)
    for m in range(M):
        for k in range(K):
            np.multiply(z[:, pos:pos + L * M].reshape(T, L, M), _SQRT_HALF, out=w[:, m, k])
            pos += L * M
            np.multiply(z[:, pos:pos + L * N].reshape(T, L, N), _SQRT_HALF, out=g[:, m, k])
            pos += L * N

    los1, nlos1 = rician_mix(cfg.rician_k1)
    los2, nlos2 = rician_mix(cfg.rician_k2)
    h *= nlos1
    h += los1
    g *= nlos2
    g += los2
    if squeeze:
        return w[0], h[0], g[0]
    return w, h, g


def draw_realization(cfg, rng):
    """Draw all fading matrices for one trial from the given stream."""
    flat = rng.standard_normal(normals_per_trial(cfg))
    w, h, g = assemble_batch(cfg, flat)
    return ChannelRealization(w=w, h=h, g=g)
