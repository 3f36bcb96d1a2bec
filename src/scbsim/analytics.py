"""Closed-form outage, rate, efficiency evaluators and curve-slope fits.

Everything here rests on the effective channel gain being Gamma(L, 1)
distributed (shape = receive antennas, unit scale), which the channel module
reproduces and the test suite checks against quadrature and Monte Carlo
oracles.

The ergodic rate of the nearest user is
    ER = (1/ln 2) * sum_{n=1}^{L} e^C E_n(C),
the integral of P(L, Cx)'s survival function over 1/(1+x): with
J_i(C) = integral_0^inf x^i e^{-Cx} / (1+x) dx = i! e^C E_{i+1}(C) / C^i,
the terms (C^i / i!) J_i(C) are e^C E_{i+1}(C).  Every term is positive,
so nothing cancels at any C; the n = 1 term comes from exp_scaled_e1 and
the others from exp_scaled_en.  The quadrature oracle (tests and validate)
checks the sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .numerics import exp_scaled_e1, exp_scaled_en, lower_incomplete_gamma_regularized
from .pathloss import largescale_direct

LN2 = math.log(2.0)
CEILING_MAX_RATIO = 1e12   # alloc_k / sum_{q>k} alloc_q above which a ceiling is degenerate
DIVERSITY_OP_CAP = 1e-2    # only outage values below this enter a diversity-order fit


class InfeasibleRatesError(ValueError):
    """Power allocation cannot support the target rates (outage is certain)."""


@dataclass   # not frozen: analytic builds M*K per point, and a frozen __init__ is 4x slower
class ClosedFormInputs:
    """Scalar inputs of the closed-form expressions for one user position."""

    L: int                 # receive antennas
    K: int                 # users per cluster
    power_alloc: tuple     # squared allocation factors, user 0 farthest
    target_rate: tuple     # bits per channel use
    p_watt: float          # transmit power
    noise_watt: float      # AWGN power sigma^2
    l_direct: float        # direct-link large-scale gain of this user

    @classmethod
    def from_config(cls, cfg, m, k):
        """The inputs of user k in cluster m (cluster_inputs builds every user's)."""
        return cls(cfg.L, cfg.K, cfg.power_alloc, cfg.target_rate, cfg.tx_power_watt,
                   cfg.noise_watt, largescale_direct(cfg.d_direct[m][k], cfg.alpha3))

    @property
    def rate_threshold_scale(self):
        """C = L sigma^2 / (p Lb alpha_K^2), the ergodic-rate threshold scale."""
        return self.L * self.noise_watt / (
            self.p_watt * self.l_direct * self.power_alloc[-1]
        )


def sic_threshold(inputs, v):
    """Gain threshold I_v below which decoding user v's signal fails.

    I_v = L eps_v sigma^2 / (p Lb (alloc_v - eps_v sum_{q>v} alloc_q)); the
    denominator must be positive for the target rates to be reachable at all.
    """
    eps = 2.0 ** inputs.target_rate[v] - 1.0   # the SINR threshold of the target rate
    rest = sum(inputs.power_alloc[v + 1:])
    margin = inputs.power_alloc[v] - eps * rest
    if margin <= 0:
        raise InfeasibleRatesError(f"power allocation cannot sustain target rate of user {v}: "
                                   f"alloc {inputs.power_alloc[v]} vs eps {eps:.4g} * {rest:.4g}")
    return inputs.L * eps * inputs.noise_watt / (inputs.p_watt * inputs.l_direct * margin)


def op_closed_form(inputs, k):
    """Outage probability of user k: regularized gamma at the worst threshold."""
    worst = max(sic_threshold(inputs, v) for v in range(k + 1))
    return lower_incomplete_gamma_regularized(inputs.L, worst)


def op_oma(inputs, k):
    """Outage probability of the orthogonal baseline user (K equal slots)."""
    eps_o = 2.0 ** (inputs.K * inputs.target_rate[k]) - 1.0
    threshold = inputs.L * eps_o * inputs.noise_watt / (inputs.p_watt * inputs.l_direct)
    return lower_incomplete_gamma_regularized(inputs.L, threshold)


def er_user_K(inputs):
    """Ergodic rate of the nearest user (index K-1), bits per channel use."""
    return er_from_threshold_scale(inputs.rate_threshold_scale, inputs.L)


def cluster_inputs(cfg):
    """Every user's ClosedFormInputs, [m][k] with user 0 farthest, as
    ClosedFormInputs.from_config builds them, the powers converted once."""
    p_watt, noise_watt = cfg.tx_power_watt, cfg.noise_watt
    return [tuple(ClosedFormInputs(cfg.L, cfg.K, cfg.power_alloc, cfg.target_rate, p_watt,
                                   noise_watt, largescale_direct(d, cfg.alpha3))
                  for d in row)
            for row in cfg.d_direct]


def cluster_closed_forms(cluster, metrics):
    """{(metric, k): value} of one cluster's inputs for the metrics asked for:
    OP_user and OP_oma of every user k, ER_user of the nearest (k = K-1) and
    OP_pair (k None), the product of the users' OP floats (one gamma call per
    user).  None where the allocation cannot sustain the target rates."""
    values = {}
    if "OP_user" in metrics or "OP_pair" in metrics:
        ops = []
        for k, inputs in enumerate(cluster):
            try:
                op = op_closed_form(inputs, k)
            except InfeasibleRatesError:
                op = None
            values["OP_user", k] = op
            ops.append(op)
        values["OP_pair", None] = None if None in ops else math.prod(ops)
    if "OP_oma" in metrics:
        for k, inputs in enumerate(cluster):
            values["OP_oma", k] = op_oma(inputs, k)
    if "ER_user" in metrics:
        values["ER_user", len(cluster) - 1] = er_user_K(cluster[-1])
    return values


def er_from_threshold_scale(c, L):
    """Closed-form ergodic rate given C and the antenna count (see module doc)."""
    if not c > 0:
        raise ValueError(f"threshold scale must be positive, got {c}")
    term = total = exp_scaled_e1(c)
    for n in range(2, L + 1):
        term = exp_scaled_en(n, c, term)
        total += term
    return total / LN2


def er_ceiling_user_k(power_alloc, k):
    """High-SNR rate ceiling log2(1 + alloc_k / sum_{q>k} alloc_q) of user k < K-1."""
    if k >= len(power_alloc) - 1:
        raise ValueError("the nearest user has no interference-limited ceiling")
    rest = sum(power_alloc[k + 1:])
    if rest <= 0 or power_alloc[k] / rest > CEILING_MAX_RATIO:
        raise ValueError("degenerate allocation: ceiling exceeds the cap")
    return math.log2(1.0 + power_alloc[k] / rest)


def diversity_order(curve):
    """Fitted high-SNR slope -dlog10(P) / dlog10(p) of an outage curve.

    curve holds (p_watt, outage) pairs; only points with outage in
    (0, DIVERSITY_OP_CAP) qualify, and the two largest-power points are used.
    """
    pts = sorted((p, v) for p, v in curve if 0.0 < v < DIVERSITY_OP_CAP)
    if len(pts) < 2:
        raise ValueError(f"need at least two points with outage below {DIVERSITY_OP_CAP}")
    (p1, v1), (p2, v2) = pts[-2], pts[-1]
    return -(math.log10(v2) - math.log10(v1)) / (math.log10(p2) - math.log10(p1))


def high_snr_slope(curve):
    """Fitted rate slope dR / dlog2(p) from the two largest-power points."""
    pts = sorted(curve)
    if len(pts) < 2:
        raise ValueError("need at least two curve points")
    (p1, r1), (p2, r2) = pts[-2], pts[-1]
    return (r2 - r1) / (math.log2(p2) - math.log2(p1))


def energy_efficiency(se, cfg):
    """Cluster EE: spectral efficiency over total dissipated power.

    Dissipation = BS static + K user terminals + amplifier (amp_factor * p)
    + N element controllers; a valid config makes it positive (amp_factor
    >= 1, p > 0, the other terms >= 0).
    """
    return se / (cfg.p_bs_watt + cfg.K * cfg.p_user_watt
                 + cfg.tx_power_watt * cfg.amp_factor + cfg.N * cfg.p_ris_watt)
