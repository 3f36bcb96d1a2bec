"""Link quality from effective gains and residues: SINRs, rates, outage.

User indexing is 0-based: user 0 is the farthest user in a cluster and the
first one decoded by everyone's successive cancellation chain.  All SINR
helpers accept scalars or numpy arrays for the gain/residue arguments so the
Monte Carlo engine can reuse them across whole trial batches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LinkMetrics:
    """Link-quality summary of one channel realization.

    sinr[m, k, v] is the SINR of user k in cluster m decoding user v's signal
    (defined for v <= k, NaN above).  rate is the unconditional
    log2(1 + sinr[m, k, k]); outage reflects the full decode chain.
    """

    eff_gain: np.ndarray    # (M, K)
    residue: np.ndarray     # (M, K)
    sinr: np.ndarray        # (M, K, K)
    rate: np.ndarray        # (M, K)
    outage: np.ndarray      # (M, K) bool
    oma_rate: np.ndarray    # (M, K)
    oma_outage: np.ndarray  # (M, K) bool
    feasible: bool
    residual_rel: float     # solver residual / ||B|| of the continuous solve
    exact_sinr: np.ndarray | None = None   # (M, K) diagnostic


def sinr_sic(eff_gain, residue, l_direct, p_watt, power_alloc, v, noise_watt, L):
    """SINR for decoding user v's signal in a K-user power-domain cluster.

    numerator:   g * Lb * p * alloc[v]
    denominator: residue * p + g * Lb * p * sum(alloc[v+1:]) + L * sigma^2
    """
    g = np.asarray(eff_gain, dtype=float)
    signal = g * l_direct * p_watt
    intra = float(sum(power_alloc[v + 1:]))
    den = np.asarray(residue, dtype=float) * p_watt + signal * intra + L * noise_watt
    out = signal * power_alloc[v] / den
    return float(out) if np.isscalar(eff_gain) else out


def sic_chain(eff_gain, residue, l_direct, p_watt, power_alloc, target_rate, k,
              noise_watt, L):
    """Successive decoding outcome for user k.

    User k decodes users 0..k in order; it is in outage as soon as any stage
    v fails log2(1 + SINR_{k->v}) > target_rate[v].  Returns (outage, rate)
    where rate is log2(1 + SINR_{k->k}) outside outage and 0 inside (ergodic
    rate estimation uses the unconditional rate instead).
    """
    outage = np.zeros(np.shape(eff_gain), dtype=bool)
    rate_own = None
    for v in range(k + 1):
        s = sinr_sic(eff_gain, residue, l_direct, p_watt, power_alloc, v, noise_watt, L)
        stage_rate = np.log2(1.0 + s)
        outage |= stage_rate <= target_rate[v]
        if v == k:
            rate_own = stage_rate
    rate = np.where(outage, 0.0, rate_own)
    if np.isscalar(eff_gain):
        return bool(outage), float(rate)
    return outage, rate


def oma_snr(eff_gain, l_direct, p_watt, noise_watt, L, K, target_rate):
    """Orthogonal baseline: K equal time slots, full power, no superposition.

    Returns (snr, outage); rate is (1/K) * log2(1 + snr), outage when it
    falls at or below the target.
    """
    snr = np.asarray(eff_gain, dtype=float) * l_direct * p_watt / (L * noise_watt)
    outage = np.log2(1.0 + snr) / K <= target_rate
    if np.isscalar(eff_gain):
        return float(snr), bool(outage)
    return snr, outage


def exact_per_symbol_sinr(w, h, g, phi, gains, m, k, p_watt, power_alloc, noise_watt):
    """Diagnostic SINR from the true per-antenna combined coefficients.

    w, h, g and phi are one trial's arrays (no trial axis).  Combines
    reflected and direct paths per transmit antenna with the all-ones
    detector; the inter-cluster term carries the full superposed power of
    the other clusters.  Complements the aggregate-statistic SINR, which is
    what the closed forms describe.
    """
    L = w.shape[2]
    mixed = g[m, k] @ (phi[:, None] * h)            # (L, M) reflected coefficients
    comb = np.sqrt(gains.l_reflect[m, k]) * mixed + np.sqrt(gains.l_direct[m, k]) * w[m, k]
    c = comb.sum(axis=0)                            # all-ones detector per TX antenna
    own = np.square(np.abs(c[m]))
    inter = float(np.square(np.abs(np.delete(c, m))).sum())
    intra = float(sum(power_alloc[k + 1:]))
    num = own * p_watt * power_alloc[k]
    den = own * p_watt * intra + inter * p_watt + L * noise_watt
    return float(num / den)
