"""Link quality from effective gains and residues: SINRs, rates, outage.

User indexing is 0-based: user 0 is the farthest user in a cluster and the
first one decoded by everyone's successive cancellation chain.  The gain and
residue arguments are arrays over a batch of trials, and ``l_direct`` (like
``oma_snr``'s ``target_rate``) is a scalar or an array that broadcasts
against them.  The Monte Carlo engine passes the SIC chain one user position
of every cluster at once, (T, M) gains and residues with the clusters' (M,)
direct-link gains, and ``oma_snr`` the whole (T, M, K) batch.
"""

from __future__ import annotations

import numpy as np


def sinr_sic(eff_gain, residue, l_direct, p_watt, power_alloc, v, noise_watt, L):
    """SINR for decoding user v's signal in a K-user power-domain cluster.

    numerator:   g * Lb * p * alloc[v]
    denominator: residue * p + g * Lb * p * sum(alloc[v+1:]) + L * sigma^2
    """
    signal = np.asarray(eff_gain, dtype=float) * l_direct * p_watt
    intra = float(sum(power_alloc[v + 1:]))
    den = np.asarray(residue, dtype=float) * p_watt + signal * intra + L * noise_watt
    return signal * power_alloc[v] / den


def sic_chain(eff_gain, residue, l_direct, p_watt, power_alloc, target_rate, k,
              noise_watt, L):
    """Successive decoding outcome for user k.

    User k decodes users 0..k in order; it is in outage as soon as any stage
    v fails log2(1 + SINR_{k->v}) > target_rate[v].  Returns (outage, rate)
    with the unconditional own-stage rate log2(1 + SINR_{k->k}), the sample
    of the ergodic rate.
    """
    outage = np.zeros(np.shape(eff_gain), dtype=bool)
    for v in range(k + 1):
        s = sinr_sic(eff_gain, residue, l_direct, p_watt, power_alloc, v, noise_watt, L)
        rate = np.log2(1.0 + s)
        outage |= rate <= target_rate[v]
    return outage, rate


def oma_snr(eff_gain, l_direct, p_watt, noise_watt, L, K, target_rate):
    """Orthogonal baseline: K equal time slots, full power, no superposition.

    Returns (snr, outage); rate is (1/K) * log2(1 + snr), outage when it
    falls at or below the target.
    """
    snr = np.asarray(eff_gain, dtype=float) * l_direct * p_watt / (L * noise_watt)
    return snr, np.log2(1.0 + snr) / K <= target_rate
