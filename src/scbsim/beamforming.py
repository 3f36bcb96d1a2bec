"""Signal-cancellation passive beamforming: system build, solve, quantize, residues.

Every function works on a stack of trials with the trial axis first, the
layout ``channel.assemble_batch`` returns; one trial is a stack of one.

The surface coefficients are chosen so that the reflected signal cancels the
inter-cluster interference at every user.  Two cancellation targets are
supported:

* aggregate (default): one constraint row per (cluster, user, receive
  antenna), in lexicographic (m, k, l) order.  Row (m, k, l) forces the
  aggregate reflected signal sqrt(Lr) * [G diag(phi) H 1_M]_l to equal minus
  the direct interference sqrt(Lb) * [Wbar 1_{M-1}]_l, needing N >= M*K*L.
* per-symbol: one row per (cluster, user, antenna, interfering TX antenna),
  in lexicographic (m, k, l, m') order over m' != m, zeroing each
  interfering coefficient individually; needs N >= M*K*L*(M-1).  Physically
  exact but element-hungry.

With M = 1 there is nothing to cancel and both modes yield an empty system
(zero-length target, zero coefficients).

Solutions come from the minimum-norm least-squares solver, which satisfies
the cancellation equality exactly whenever the system is consistent and keeps
coefficient magnitudes small.  Amplitudes above 1 are never clipped or
rescaled (either would break the equality); the result is only flagged
infeasible and counted by the Monte Carlo engine.
"""

from __future__ import annotations

import numpy as np

from .numerics import CONSISTENT_TOL, min_norm_solve_batch
from .scenario import AGGREGATE, PER_SYMBOL

TWO_PI = 2.0 * np.pi
FEASIBLE_TOL = 1e-12     # slack on the beta_n <= 1 amplitude constraint


def desired_columns(w):
    """Desired-channel columns w[..., l, m] of cluster m; shape (..., M, K, L)."""
    M = w.shape[-4]
    out = np.empty(w.shape[:-1], dtype=w.dtype)
    for m in range(M):
        out[..., m, :, :] = w[..., m, :, :, m]
    return out


def effective_gains(w):
    """Effective gains sum_l |w[..., m, k, l, m]|^2, Gamma(L, 1); shape (..., M, K)."""
    return np.square(np.abs(desired_columns(w))).sum(axis=-1)


def interference_sums(w):
    """Row sums of W with the desired column removed: (..., M, K, L)."""
    return w.sum(axis=-1) - desired_columns(w)


def sum_last_axis(a):
    """a.sum(axis=-1) as sequential np.add over the last axis.

    On a short last axis (the M columns of h) numpy's reduction costs ~30x
    more.  Bit for bit equal to a.sum(axis=-1) up to length 3, signed zeros
    included; numpy sums longer axes pairwise, so from length 4 the last bit
    may differ.
    """
    out = a[..., 0] + 0.0   # numpy's sum starts from +0, which turns -0.0 into +0.0
    for j in range(1, a.shape[-1]):
        out += a[..., j]
    return out


def build_target_batch(w, l_direct, mode):
    """Interference targets for a batch of trials; shape (T, rows)."""
    T, M, K, L, _ = w.shape
    root_lb = np.sqrt(l_direct)[None, :, :, None]          # (1, M, K, 1)
    if mode == AGGREGATE:
        if M == 1:
            return np.zeros((T, 0), dtype=np.complex128)
        return (-root_lb * interference_sums(w)).reshape(T, M * K * L)
    if mode == PER_SYMBOL:
        keep = [[mp for mp in range(M) if mp != m] for m in range(M)]
        cols = np.empty((T, M, K, L, M - 1), dtype=np.complex128)
        for m in range(M):
            cols[:, m] = w[:, m][..., keep[m]]
        return (-root_lb[..., None] * cols).reshape(T, M * K * L * (M - 1))
    raise ValueError(f"unknown cancellation mode {mode!r}")


def system_rows(M, K, L, mode):
    """Row count of the cancellation system (the rank bound on N); 0 when M = 1."""
    if mode == AGGREGATE:
        return M * K * L if M > 1 else 0
    if mode == PER_SYMBOL:
        return M * K * L * (M - 1)
    raise ValueError(f"unknown cancellation mode {mode!r}")


def build_matrix_batch(h, g, l_reflect, mode, out=None):
    """Stacked effective matrices for a batch of trials; shape (T, rows, N).

    out, when given, is a C-contiguous complex (T, rows, N) array that is
    filled and returned in place of a new one.  In aggregate mode it may be
    g's own memory: the rows are then g scaled in place, with the same bytes.
    """
    T, M, K, L, N = g.shape
    n_rows = system_rows(M, K, L, mode)
    if out is None:
        out = np.empty((T, n_rows, N), dtype=np.complex128)
    if n_rows == 0:
        return out
    root_lr = np.sqrt(l_reflect)[None, :, :, None, None]   # (1, M, K, 1, 1)
    if mode == AGGREGATE:
        hsum = sum_last_axis(h)                            # (T, N)
        rows = np.multiply(root_lr, g, out=out.reshape(g.shape))
        rows *= hsum[:, None, None, None, :]
    else:
        keep = [[mp for mp in range(M) if mp != m] for m in range(M)]
        rows = out.reshape(T, M, K, L, M - 1, N)
        for m in range(M):
            # row (m, k, l, mp), column n: g[l, n] * h[n, mp]
            rows[:, m] = np.einsum("tkln,tnj->tkljn", g[:, m], h[:, :, keep[m]])
        rows *= root_lr[..., None]
    return out


def solve_passive_batch(h_tilde, b, norm_b=None):
    """Minimum-norm coefficients for a batch of systems.

    Returns (phi, residual_norm, feasible, consistent) arrays.  norm_b, when
    given, is np.linalg.norm(b, axis=-1).
    """
    if norm_b is None:
        norm_b = np.linalg.norm(b, axis=-1)
    phi, resid = min_norm_solve_batch(h_tilde, b, norm_b)
    amp = np.abs(phi)
    feasible = amp.max(axis=-1) <= 1.0 + FEASIBLE_TOL
    consistent = resid <= CONSISTENT_TOL * norm_b + 1e-300
    return phi, resid, feasible, consistent


def quantize_levels(amplitudes, phases, bits):
    """Nearest discrete levels for amplitudes and (circular) phases.

    Levels are {0, 1/T, ..., (T-1)/T} for amplitudes and
    {0, 2*pi/T, ..., (T-1)*2*pi/T} for phases, T = 2^bits.  Ties go to the
    smaller level index.
    """
    if bits < 1:
        raise ValueError("bits must be >= 1")
    T = 2 ** int(bits)
    amp_idx = np.clip(np.ceil(np.asarray(amplitudes) * T - 0.5), 0, T - 1)
    ph = np.mod(np.asarray(phases), TWO_PI)
    ph_idx = np.mod(np.ceil(ph / (TWO_PI / T) - 0.5), T)
    return amp_idx * (1.0 / T), ph_idx * (TWO_PI / T)


def quantize_surface(phi, bits):
    """Coefficients phi on a b-bit surface: amp * exp(1j * phase) at the nearest levels.

    The levels of quantize_levels, computed in place.  np.angle lies in
    [-pi, pi], so adding 2*pi to the negative phases gives np.mod's values
    (a -0.0 phase becomes +0.0, the same level), and masking with T - 1
    wraps level T to 0.  The unit phasors come from a 2^bits-entry table
    holding exactly the values np.exp(1j * phase) gives for the level phases.
    """
    if bits < 1:
        raise ValueError("bits must be >= 1")
    T = 2 ** int(bits)
    amp = np.abs(phi)
    amp *= T
    amp -= 0.5
    np.ceil(amp, out=amp)
    np.clip(amp, 0, T - 1, out=amp)
    amp *= 1.0 / T
    ph = np.angle(phi)
    ph += (ph < 0) * TWO_PI
    ph /= TWO_PI / T
    ph -= 0.5
    np.ceil(ph, out=ph)
    ph_idx = ph.astype(np.intp)
    ph_idx &= T - 1
    phasors = np.exp(1j * (np.arange(T) * (TWO_PI / T)))
    out = phasors[ph_idx]
    return np.multiply(amp, out, out=out)


def aggregate_residues(h_tilde, b, phi, M, K):
    """Residue per user of an aggregate system: (T, M, K) nonnegative.

    Residue of user (m, k) is sum_l |h_tilde phi - b|^2 over its rows
    (m, k, l), the squared norm of the aggregate mismatch
    sqrt(Lr) * G diag(phi) H 1_M + sqrt(Lb) * Wbar 1_{M-1}; zero means the
    reflected path exactly cancels the direct inter-cluster interference.
    With M = 1 there is no interference and every residue is 0.
    """
    T = phi.shape[0]
    if M == 1:
        return np.zeros((T, M, K))
    err = np.matmul(h_tilde, phi[..., None])[..., 0]
    err -= b
    return np.square(np.abs(err)).reshape(T, M, K, -1).sum(axis=-1)


def residues_batch(w, h, g, gains, phi):
    """Interference residue per user for a batch: (T, M, K), see aggregate_residues.

    Builds the aggregate system of (w, h, g) whatever the cancellation mode
    phi was solved in.
    """
    _, M, K, _, _ = g.shape
    h_tilde = build_matrix_batch(h, g, gains.l_reflect, AGGREGATE)
    b = build_target_batch(w, gains.l_direct, AGGREGATE)
    return aggregate_residues(h_tilde, b, phi, M, K)
