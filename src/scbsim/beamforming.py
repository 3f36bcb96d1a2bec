"""Signal-cancellation passive beamforming: system build, solve, quantize.

The surface coefficients are chosen so that the reflected signal cancels the
inter-cluster interference at every user.  Two cancellation targets are
supported:

* aggregate (default): one constraint row per (cluster, user, receive
  antenna).  Row (m, k, l) forces the aggregate reflected signal
  sqrt(Lr) * [G diag(phi) H 1_M]_l to equal minus the direct interference
  sqrt(Lb) * [Wbar 1_{M-1}]_l, needing N >= M*K*L.
* per-symbol: one row per (cluster, user, antenna, interfering TX antenna),
  zeroing each interfering coefficient individually; needs
  N >= M*K*L*(M-1).  Physically exact but element-hungry.

With M = 1 there is nothing to cancel and both modes yield an empty system
(zero-length target, zero coefficients).

Solutions come from the minimum-norm least-squares solver, which satisfies
the cancellation equality exactly whenever the system is consistent and keeps
coefficient magnitudes small.  Amplitudes above 1 are never clipped or
rescaled (either would break the equality); the result is only flagged
infeasible and counted by the Monte Carlo engine.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .numerics import CONSISTENT_TOL, min_norm_solve_batch
from .scenario import AGGREGATE, PER_SYMBOL

TWO_PI = 2.0 * np.pi
FEASIBLE_TOL = 1e-12     # slack on the beta_n <= 1 amplitude constraint


@dataclass(frozen=True)
class EffectiveSystem:
    """Stacked cancellation system h_tilde @ phi = b_target."""

    h_tilde: np.ndarray    # (rows, N) complex
    b_target: np.ndarray   # (rows,) complex
    row_index: tuple       # row -> (m, k, l) or (m, k, l, m_interferer)
    mode: str


@dataclass(frozen=True)
class PassiveBeamforming:
    """Surface coefficient vector phi_n = beta_n * exp(j theta_n)."""

    phi: np.ndarray          # (N,) complex
    amplitudes: np.ndarray   # (N,) beta_n >= 0
    phases: np.ndarray       # (N,) theta_n in [0, 2*pi)
    feasible: bool           # all beta_n <= 1 (+ tolerance)
    quantized: bool
    residual_norm: float     # ||h_tilde @ phi - b_target||
    consistent: bool         # residual negligible relative to ||b_target||


def desired_columns(w):
    """Desired-channel columns w[..., l, m] of cluster m; shape (..., M, K, L)."""
    M = w.shape[-4]
    out = np.empty(w.shape[:-1], dtype=w.dtype)
    for m in range(M):
        out[..., m, :, :] = w[..., m, :, :, m]
    return out


def interference_sums(w):
    """Row sums of W with the desired column removed: (..., M, K, L)."""
    return w.sum(axis=-1) - desired_columns(w)


def aggregate_row_index(M, K, L):
    if M == 1:
        return ()
    return tuple((m, k, l) for m in range(M) for k in range(K) for l in range(L))


def per_symbol_row_index(M, K, L):
    return tuple(
        (m, k, l, mp)
        for m in range(M) for k in range(K) for l in range(L)
        for mp in range(M) if mp != m
    )


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


def build_matrix_batch(h, g, l_reflect, mode):
    """Stacked effective matrices for a batch of trials; shape (T, rows, N)."""
    T, _, K, L, N = g.shape
    M = h.shape[-1]
    root_lr = np.sqrt(l_reflect)[None, :, :, None, None]   # (1, M, K, 1, 1)
    if mode == AGGREGATE:
        if M == 1:
            return np.zeros((T, 0, N), dtype=np.complex128)
        hsum = h.sum(axis=-1)                              # (T, N)
        rows = root_lr * g * hsum[:, None, None, None, :]
        return rows.reshape(T, M * K * L, N)
    if mode == PER_SYMBOL:
        keep = [[mp for mp in range(M) if mp != m] for m in range(M)]
        rows = np.empty((T, M, K, L, M - 1, N), dtype=np.complex128)
        for m in range(M):
            # row (m, k, l, mp), column n: g[l, n] * h[n, mp]
            rows[:, m] = np.einsum("tkln,tnj->tkljn", g[:, m], h[:, :, keep[m]])
        rows *= root_lr[..., None]
        return rows.reshape(T, M * K * L * (M - 1), N)
    raise ValueError(f"unknown cancellation mode {mode!r}")


def build_interference_target(ch, gains, mode):
    """Interference target vector for one realization."""
    return build_target_batch(ch.w[None], gains.l_direct, mode)[0]


def build_effective_matrix(ch, gains, mode):
    """Cancellation system (matrix, target, row index) for one realization."""
    M, K, L = ch.w.shape[0], ch.w.shape[1], ch.w.shape[2]
    h_tilde = build_matrix_batch(ch.h[None], ch.g[None], gains.l_reflect, mode)[0]
    b = build_target_batch(ch.w[None], gains.l_direct, mode)[0]
    index = aggregate_row_index(M, K, L) if mode == AGGREGATE else per_symbol_row_index(M, K, L)
    return EffectiveSystem(h_tilde=h_tilde, b_target=b, row_index=index, mode=mode)


def solve_passive_batch(h_tilde, b, rank_tol=1e-10):
    """Minimum-norm coefficients for a batch of systems.

    Returns (phi, residual_norm, feasible, consistent) arrays.
    """
    phi, resid = min_norm_solve_batch(h_tilde, b, rank_tol=rank_tol)
    amp = np.abs(phi)
    feasible = amp.max(axis=-1) <= 1.0 + FEASIBLE_TOL if phi.shape[-1] else np.ones(phi.shape[:-1], bool)
    norm_b = np.linalg.norm(b, axis=-1)
    consistent = resid <= CONSISTENT_TOL * norm_b + 1e-300
    return phi, resid, feasible, consistent


def solve_passive(system, n=None, rank_tol=1e-10):
    """Solve one cancellation system for the surface coefficient vector.

    When rows exceed N and the system is inconsistent the least-squares
    solution is returned with ``consistent=False`` and a nonzero residual
    (no exact cancellation exists for N below the rank bound).
    """
    if n is not None and n != system.h_tilde.shape[1]:
        raise ValueError(
            f"element count {n} does not match system columns {system.h_tilde.shape[1]}"
        )
    phi, resid, feas, cons = solve_passive_batch(
        system.h_tilde[None], system.b_target[None], rank_tol=rank_tol
    )
    phi = phi[0]
    return PassiveBeamforming(
        phi=phi,
        amplitudes=np.abs(phi),
        phases=np.mod(np.angle(phi), TWO_PI),
        feasible=bool(feas[0]),
        quantized=False,
        residual_norm=float(resid[0]),
        consistent=bool(cons[0]),
    )


def quantize_levels(amplitudes, phases, bits):
    """Nearest discrete levels for amplitudes and (circular) phases.

    Levels are {0, 1/T, ..., (T-1)/T} for amplitudes and
    {0, 2*pi/T, ..., (T-1)*2*pi/T} for phases, T = 2^bits.  Ties go to the
    smaller level index.
    """
    if bits < 1:
        raise ValueError("bits must be >= 1")
    T = 2 ** int(bits)
    step_b = 1.0 / T
    step_t = TWO_PI / T
    amp_idx = np.clip(np.ceil(np.asarray(amplitudes) * T - 0.5), 0, T - 1)
    ph = np.mod(np.asarray(phases), TWO_PI)
    ph_idx = np.mod(np.ceil(ph / step_t - 0.5), T)
    return amp_idx * step_b, ph_idx * step_t


def quantize(pb, bits):
    """Quantize an ideal beamforming vector to b-bit amplitude/phase levels."""
    if pb.quantized:
        raise ValueError("beamforming vector is already quantized")
    amp_q, ph_q = quantize_levels(pb.amplitudes, pb.phases, bits)
    phi_q = amp_q * np.exp(1j * ph_q)
    return replace(
        pb,
        phi=phi_q,
        amplitudes=amp_q,
        phases=ph_q,
        feasible=bool(amp_q.max() <= 1.0 + FEASIBLE_TOL) if amp_q.size else True,
        quantized=True,
    )


def residues_batch(w, h, g, gains, phi):
    """Interference residue per user for a batch: (T, M, K) nonnegative.

    Residue of user (m, k) is the squared norm of the aggregate mismatch
    sqrt(Lr) * G diag(phi) H 1_M + sqrt(Lb) * Wbar 1_{M-1}; zero means the
    reflected path exactly cancels the direct inter-cluster interference.
    """
    hsum = h.sum(axis=-1)                                   # (T, N)
    refl = np.einsum("tmkln,tn->tmkl", g, phi * hsum)
    refl *= np.sqrt(gains.l_reflect)[None, :, :, None]
    direct = np.sqrt(gains.l_direct)[None, :, :, None] * interference_sums(w)
    return np.square(np.abs(refl + direct)).sum(axis=-1)


def residue(ch, gains, pb, m, k):
    """Interference residue at one user, evaluated densely (no row stacking)."""
    M = ch.h.shape[1]
    refl = np.sqrt(gains.l_reflect[m, k]) * (ch.g[m, k] @ (pb.phi * (ch.h @ np.ones(M))))
    wbar = np.delete(ch.w[m, k], m, axis=1)
    direct = np.sqrt(gains.l_direct[m, k]) * (wbar @ np.ones(M - 1))
    return float(np.square(np.abs(refl + direct)).sum())
