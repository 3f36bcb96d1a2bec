"""Large-scale fading laws and minimal surface-size feasibility bounds.

Two reflected-path laws are supported: the product-distance law for the
diffuse scattering regime (element size comparable to the wavelength,
sub-6 GHz) and the sum-distance law for the anomalous reflector regime
(mmWave, geometric optics).  The feasibility calculus answers how many
reflecting elements are needed (a) for the reflected power to match the
direct interference power and (b) for the cancellation linear system to
admit a solution.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .beamforming import system_rows
from .scenario import ANOMALOUS, DIFFUSE, ConfigError


@dataclass(frozen=True)
class LargeScaleGains:
    """Per-user linear gains: direct BS-user and reflected BS-RIS-user paths."""

    l_direct: np.ndarray   # (M, K)
    l_reflect: np.ndarray  # (M, K), by exactly one scenario law


def _finite_gain(law):
    """A large-scale law whose gain, overflowing (0.5^-1100) or underflowing
    (1e10^-40) a float, is a config error unless finite and positive."""
    @functools.wraps(law)
    def checked(*args):
        try:
            gain = law(*args)
        except OverflowError:
            gain = math.inf
        if not 0.0 < gain < math.inf:
            raise ConfigError(f"{law.__name__}{args} = {gain} is not a finite positive gain")
        return gain
    return checked


@_finite_gain
def largescale_direct(d, alpha3):
    """Direct-path gain d^-alpha3."""
    if not d > 0:
        raise ValueError(f"distance must be positive, got {d}")
    return d ** -alpha3


@_finite_gain
def largescale_diffuse(d1, d2, alpha1, alpha2):
    """Product-distance law d1^-a1 * d2^-a2 (diffuse scattering)."""
    if not (d1 > 0 and d2 > 0):
        raise ValueError("distances must be positive")
    return d1 ** -alpha1 * d2 ** -alpha2


@_finite_gain
def largescale_anomalous(d1, d2, alpha1, alpha2):
    """Sum-distance law (d1 + d2^(a2/a1))^-a1 (anomalous reflector).

    Reduces to (d1 + d2)^-a1 when the two exponents coincide.
    """
    if not (d1 > 0 and d2 > 0):
        raise ValueError("distances must be positive")
    return (d1 + d2 ** (alpha2 / alpha1)) ** -alpha1


def reflected_gain(scenario, d1, d2, alpha1, alpha2):
    if scenario == DIFFUSE:
        return largescale_diffuse(d1, d2, alpha1, alpha2)
    if scenario == ANOMALOUS:
        return largescale_anomalous(d1, d2, alpha1, alpha2)
    raise ValueError(f"unknown scenario {scenario!r}")


def compute_gains(cfg):
    """Large-scale gains for every (cluster, user) of a scenario config."""
    l_direct = np.empty((cfg.M, cfg.K))
    l_reflect = np.empty((cfg.M, cfg.K))
    for m in range(cfg.M):
        for k in range(cfg.K):
            l_direct[m, k] = largescale_direct(cfg.d_direct[m][k], cfg.alpha3)
            l_reflect[m, k] = reflected_gain(
                cfg.ris_scenario, cfg.d1, cfg.d_user[m][k], cfg.alpha1, cfg.alpha2
            )
    return LargeScaleGains(l_direct=l_direct, l_reflect=l_reflect)


def min_ris_power(scenario, M, d1, d2, d_b, alpha1, alpha2, alpha3):
    """Minimal element count for the reflected power to cover (M-1) interfering beams."""
    if M < 1:
        raise ValueError("M must be >= 1")
    ratio = largescale_direct(d_b, alpha3) / reflected_gain(scenario, d1, d2, alpha1, alpha2)
    return max(1, math.ceil((M - 1) * math.sqrt(ratio)))


def min_ris_power_bound(cfg, m, k):
    """Per-user amplitude feasibility bound for the configured scenario."""
    return min_ris_power(cfg.ris_scenario, cfg.M, cfg.d1, cfg.d_user[m][k], cfg.d_direct[m][k],
                         cfg.alpha1, cfg.alpha2, cfg.alpha3)


def min_ris_overall(cfg):
    """Overall minimal N: worst-user power bound joined with the rank bound.

    The rank bound is the row count of the engine's cancellation system
    (beamforming.system_rows), 0 at M = 1.  Always >= 1.
    """
    power = max(
        min_ris_power_bound(cfg, m, k)
        for m in range(cfg.M) for k in range(cfg.K)
    )
    return max(1, power, system_rows(cfg.M, cfg.K, cfg.L, cfg.cancellation_mode))


def diffuse_applicability_warning(cfg):
    """Warning text when the diffuse design needs implausibly many elements.

    The product-distance law penalizes the reflected path twice, so the
    diffuse design is only economical when both reflected-link exponents stay
    below the direct-link exponent (LoS-favorable reflected links).  This is
    a warning, never an error.
    """
    if cfg.ris_scenario == DIFFUSE and (cfg.alpha1 >= cfg.alpha3 or cfg.alpha2 >= cfg.alpha3):
        return (
            "diffuse scattering with alpha1 or alpha2 >= alpha3 requires a very "
            "large surface; check the feasibility report"
        )
    return None


# Exponent triples (alpha1, alpha2, alpha3) of the reference feasibility table.
TABLE2_TRIPLES = ((3.5, 3.5, 3.5), (2.2, 3.5, 3.5), (2.2, 2.2, 3.5))
TABLE2_GEOMETRY = {"M": 2, "d1": 80.0, "d2": 80.0, "d_b": 100.0}


def table2():
    """Reference feasibility table: (scenario, a1, a2, a3, min_N) rows.

    Computed at M=2, d1 = d2 = 80 m, d_b = 100 m for three exponent triples
    in both scenarios.
    """
    g = TABLE2_GEOMETRY
    return [(scenario, a1, a2, a3,
             min_ris_power(scenario, g["M"], g["d1"], g["d2"], g["d_b"], a1, a2, a3))
            for scenario in (DIFFUSE, ANOMALOUS) for a1, a2, a3 in TABLE2_TRIPLES]


# Golden values for the reference table; cmd_table2 trips on any regression.
TABLE2_GOLDEN = (1449, 84, 5, 3, 1, 1)
