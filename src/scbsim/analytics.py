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

The closed forms split the way the Monte Carlo engine does (its LINK_KEYS):
only the transmit power p and the noise sigma^2 enter per point.  Each
user's power-free terms -- its direct-link gain Lb, L eps_v and the SIC
margin alloc_v - eps_v sum_{q>v} alloc_q of every stage v <= k (or an
infeasible mark), and L eps_OMA -- come from the rest of the config, so
``PowerFreeTerms.from_config`` builds them once, and ``closed_forms``
evaluates them at one (p, sigma^2), or at arrays of them: a link-key sweep's
points in one call, with one array regularized-gamma call per user and OP
metric (numerics' array P, bit for bit the scalar) and the rate per element.
A stage's gain threshold is ((L eps) sigma^2) / ((p Lb) margin), written
once in ``_threshold`` and taken element by element over arrays; the
per-user laws (``op_closed_form``, ``op_oma``, ``er_user_K``) are built from
the same pieces, so every path gives the same floats.  The regularized gamma
(scalar and array) and E1 are looked up as this module's globals at each
call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import (
    exp_scaled_e1,
    exp_scaled_en,
    lower_incomplete_gamma_regularized,
    lower_incomplete_gamma_regularized_array,
)
from .pathloss import largescale_direct

LN2 = math.log(2.0)
CEILING_MAX_RATIO = 1e12   # alloc_k / sum_{q>k} alloc_q above which a ceiling is degenerate
DIVERSITY_OP_CAP = 1e-2    # only outage values below this enter a diversity-order fit


class InfeasibleRatesError(ValueError):
    """Power allocation cannot support the target rates (outage is certain)."""


@dataclass(frozen=True)
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
        """The inputs of user k in cluster m."""
        return cls(cfg.L, cfg.K, cfg.power_alloc, cfg.target_rate, cfg.tx_power_watt,
                   cfg.noise_watt, largescale_direct(cfg.d_direct[m][k], cfg.alpha3))

    @property
    def rate_threshold_scale(self):
        """C = L sigma^2 / (p Lb alpha_K^2), the ergodic-rate threshold scale."""
        return _threshold(self.L, self.noise_watt, self.p_watt * self.l_direct,
                          self.power_alloc[-1])


# -- the pieces: power-free stage terms, and the one per-point threshold -----

def _sic_stage(L, power_alloc, target_rate, v):
    """(L eps_v, alloc_v - eps_v sum_{q>v} alloc_q) of SIC stage v, the margin
    positive where the target rates are reachable at all."""
    eps = 2.0 ** target_rate[v] - 1.0   # the SINR threshold of the target rate
    rest = sum(power_alloc[v + 1:])
    margin = power_alloc[v] - eps * rest
    if margin <= 0:
        raise InfeasibleRatesError(f"power allocation cannot sustain target rate of user {v}: "
                                   f"alloc {power_alloc[v]} vs eps {eps:.4g} * {rest:.4g}")
    return L * eps, margin


def _sic_stages(L, power_alloc, target_rate, k):
    """_sic_stage of every stage v <= k: user k decodes users 0..k-1 first."""
    return [_sic_stage(L, power_alloc, target_rate, v) for v in range(k + 1)]


def _oma_stages(L, K, rate):
    """((L eps_OMA, 1.0),): the orthogonal user's one stage, at K times its rate in
    one of K slots, with its slot's whole power and no interference."""
    return ((L * (2.0 ** (K * rate) - 1.0), 1.0),)


def _threshold(l_eps, noise_watt, p_lb, margin):
    """Gain threshold ((L eps) sigma^2) / ((p Lb) margin) of one decoding stage;
    at L eps = L and margin alloc_K it is the nearest user's rate scale C."""
    return l_eps * noise_watt / (p_lb * margin)


def _outage(L, stages, noise_watt, p_lb):
    """P(L, worst stage threshold): the outage of a user whose decoding needs
    every stage; None where the stages are None (infeasible target rates)."""
    if stages is None:
        return None
    worst = -math.inf   # max() of the thresholds, without a list per call
    for l_eps, margin in stages:
        threshold = _threshold(l_eps, noise_watt, p_lb, margin)
        if threshold > worst:
            worst = threshold
    return lower_incomplete_gamma_regularized(L, worst)


def _outage_array(L, stages, noise_watt, p_lb):
    """_outage over arrays of sigma^2 and p Lb, element by element: the worst
    threshold chosen by the same comparison, then one array gamma call."""
    if stages is None:
        return None
    worst = -math.inf
    for l_eps, margin in stages:
        threshold = _threshold(l_eps, noise_watt, p_lb, margin)
        worst = np.where(threshold > worst, threshold, worst)
    return lower_incomplete_gamma_regularized_array(L, worst)


def _rates_array(c, L):
    """er_from_threshold_scale of each element of the array c, as an array of c's
    shape."""
    rates = (er_from_threshold_scale(v, L) for v in c.ravel().tolist())
    return np.fromiter(rates, float, c.size).reshape(c.shape)


# -- the per-user laws ---------------------------------------------------------

def op_closed_form(inputs, k):
    """Outage probability of user k: regularized gamma at the worst threshold."""
    stages = _sic_stages(inputs.L, inputs.power_alloc, inputs.target_rate, k)
    return _outage(inputs.L, stages, inputs.noise_watt, inputs.p_watt * inputs.l_direct)


def op_oma(inputs, k):
    """Outage probability of the orthogonal baseline user (K equal slots)."""
    stages = _oma_stages(inputs.L, inputs.K, inputs.target_rate[k])
    return _outage(inputs.L, stages, inputs.noise_watt, inputs.p_watt * inputs.l_direct)


def er_user_K(inputs):
    """Ergodic rate of the nearest user (index K-1), bits per channel use."""
    return er_from_threshold_scale(inputs.rate_threshold_scale, inputs.L)


# -- the staged evaluator ------------------------------------------------------

@dataclass(frozen=True)
class PowerFreeTerms:
    """Every user's power-free terms under one config: what a change of the link
    keys (montecarlo.LINK_KEYS) leaves as it is.  ``closed_forms`` evaluates
    them at one transmit power and noise, or at arrays of them."""

    L: int
    alloc_near: float      # alloc_K, the nearest user's share after SIC
    users: tuple           # [m][k] (Lb, SIC stages v <= k or None if one is infeasible,
                           # OMA stages), user 0 farthest

    @classmethod
    def from_config(cls, cfg):
        L, K, alloc, rates = cfg.L, cfg.K, cfg.power_alloc, cfg.target_rate
        sic = []
        for k in range(K):
            try:
                sic.append(_sic_stages(L, alloc, rates, k))
            except InfeasibleRatesError:
                sic.append(None)
        oma = [_oma_stages(L, K, rates[k]) for k in range(K)]
        users = tuple(tuple((largescale_direct(d, cfg.alpha3), sic[k], oma[k])
                            for k, d in enumerate(row))
                      for row in cfg.d_direct)
        return cls(L, alloc[-1], users)

    def closed_forms(self, p_watt, noise_watt, metrics):
        """[m] {(metric, k): value} at a transmit power and noise, for the metrics
        asked for: OP_user and OP_oma of every user k, ER_user of the nearest
        (k = K-1) and OP_pair (k None), the product of the users' OP floats.
        Each value is its per-user law's float, None where the allocation cannot
        sustain the target rates.

        p_watt and noise_watt are floats, or sequences that broadcast to one
        1-D shape.  Floats take one scalar gamma call per user and OP metric;
        sequences take one array call per user and OP metric for all their
        points, and give each value as a list with one float per point.  Any
        other input (an int, a 0-d array) takes the array path and gives floats."""
        L = self.L
        arrays = not (isinstance(p_watt, float) and isinstance(noise_watt, float))
        if arrays:
            p_watt, noise_watt = np.broadcast_arrays(np.asarray(p_watt, dtype=float),
                                                     np.asarray(noise_watt, dtype=float))
            outage, rate = _outage_array, _rates_array
        else:
            outage, rate = _outage, er_from_threshold_scale
        op = "OP_user" in metrics or "OP_pair" in metrics
        oma = "OP_oma" in metrics
        er = "ER_user" in metrics
        out = []
        for cluster in self.users:
            values = {}
            pair = 1   # math.prod's start and order
            for k, (l_direct, sic, oma_stages) in enumerate(cluster):
                p_lb = p_watt * l_direct
                if op:
                    values["OP_user", k] = value = outage(L, sic, noise_watt, p_lb)
                    pair = None if value is None or pair is None else pair * value
                if oma:
                    values["OP_oma", k] = outage(L, oma_stages, noise_watt, p_lb)
            if op:
                values["OP_pair", None] = pair
            if er:   # k and p_lb are the nearest user's
                values["ER_user", k] = rate(_threshold(L, noise_watt, p_lb, self.alloc_near), L)
            if arrays:
                values = {key: None if v is None else v.tolist() for key, v in values.items()}
            out.append(values)
        return out


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
