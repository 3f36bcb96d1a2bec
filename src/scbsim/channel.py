"""Small-scale fading: standard normals carved into channel arrays.

Direct BS-user links are Rayleigh (each squared entry magnitude is unit-mean
exponential).  BS-RIS and RIS-user links are Rician with a deterministic
line-of-sight component fixed to the constant 1, so that for a large Rician
factor every entry tends to 1 + 0j.  Every entry has E[|entry|^2] = 1;
large-scale effects live exclusively in the pathloss module.

A trial consumes a fixed number of standard normals from its own stream in
a documented order (``assemble_batch``), so its channels are a pure function
of that stream and the Monte Carlo engine assembles whole batches from
per-trial streams without changing any value.
"""

from __future__ import annotations

import numpy as np

_SQRT_HALF = 1.0 / np.sqrt(2.0)


def rician_mix(k_factor):
    """LoS and scattered weights (sqrt(k/(k+1)), sqrt(1/(k+1)))."""
    if k_factor < 0:
        raise ValueError(f"Rician factor must be >= 0, got {k_factor}")
    return np.sqrt(k_factor / (k_factor + 1.0)), np.sqrt(1.0 / (k_factor + 1.0))


def normals_per_trial(cfg):
    """Number of real standard normals one realization consumes."""
    n_complex = cfg.N * cfg.M + cfg.M * cfg.K * (cfg.L * cfg.M + cfg.L * cfg.N)
    return 2 * n_complex


def empty_fading(cfg, trials, g=None):
    """Uninitialized (w, h, g) arrays for ``trials`` trials, as assemble_batch fills them.

    g, when given, is a (trials, M, K, L, N) complex buffer used as the g array.
    """
    M, K, L, N = cfg.M, cfg.K, cfg.L, cfg.N
    if g is None:
        g = np.empty((trials, M, K, L, N), dtype=np.complex128)
    return (np.empty((trials, M, K, L, M), dtype=np.complex128),
            np.empty((trials, N, M), dtype=np.complex128), g)


def assemble_batch(cfg, flat, out=None):
    """Carve a (T, normals_per_trial) standard-normal block into fading arrays.

    Layout per trial: the flat vector is interpreted as interleaved
    (real, imag) pairs of complex Gaussians, consumed block-wise in the order
    [H, then W and G alternating over (m, k) in lexicographic order], each
    block row-major.  Returns (w, h, g) with a leading trial axis:

    w: (T, M, K, L, M) direct BS-user fading per (cluster, user)
    h: (T, N, M) BS-RIS fading
    g: (T, M, K, L, N) RIS-user fading per (cluster, user)

    out, when given, is a (w, h, g) triple shaped as above (``empty_fading``)
    that is filled and returned in place of new arrays.
    """
    M, K, L, N = cfg.M, cfg.K, cfg.L, cfg.N
    flat = np.ascontiguousarray(flat, dtype=np.float64)
    T = flat.shape[0]
    z = flat.view(np.complex128)     # the interleaved pairs, without a copy

    # each block is scaled straight into its slot and the Rician mix is then
    # applied in place: the same operations in the same order as
    # los + nlos * (z * sqrt(1/2)), so the values are bit-identical
    w, h, g = empty_fading(cfg, T) if out is None else out
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
    return w, h, g
