"""Acceptance gate: one test per criterion, each printing its pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
details.  Trial counts are the full ones (no scaling); the complete module
takes several minutes.
"""

from pathlib import Path

import pytest

from scbsim import validation
from scbsim.scenario import load_config

BASE = Path(__file__).resolve().parents[1] / "configs" / "baseline.cfg"


@pytest.fixture(scope="module")
def cfg():
    return load_config(BASE.read_text())


def report(result):
    line = f"[acceptance] {result.status} {result.name} ({result.seconds:.1f}s): {result.detail}"
    print(line, flush=True)
    return result


def test_criterion_01_table2_exact(cfg):
    res = report(validation.check_table2())
    assert res.passed, res.detail


def test_criterion_02_special_function_oracles():
    res = report(validation.check_special_functions())
    assert res.passed, res.detail


def test_criterion_03_channel_statistics(cfg):
    res = report(validation.check_channel_statistics(cfg, draws=100000))
    assert res.passed, res.detail


@pytest.mark.slow
def test_criterion_04_op_matches_closed_form(cfg):
    res = report(validation.check_op_vs_closed_form(
        cfg, powers_dbm=(20.0, 25.0, 30.0, 35.0), trials=250000))
    assert res.passed, res.detail


@pytest.mark.slow
def test_criterion_05_diversity_orders(cfg):
    res = report(validation.check_diversity_order(cfg, trials=600000))
    assert res.passed, res.detail


@pytest.mark.slow
def test_criterion_06_ergodic_rate_closed_form(cfg):
    quad = report(validation.check_er_closed_vs_quadrature())
    assert quad.passed, quad.detail
    mc = report(validation.check_er_vs_closed_form(
        cfg, powers_dbm=(20.0, 30.0, 40.0), trials=100000))
    assert mc.passed, mc.detail


def test_criterion_06_negative_control(cfg):
    """Dropping the direct-path gain from the threshold scale must break the fit."""
    from scbsim import montecarlo
    from scbsim.analytics import ClosedFormInputs, er_from_threshold_scale

    sub = cfg.with_updates(tx_power_dbm=30.0)
    inputs = ClosedFormInputs.from_config(sub, 0, sub.K - 1)
    corrupted_c = sub.L * sub.noise_watt / (sub.tx_power_watt * sub.power_alloc[-1])
    corrupted = er_from_threshold_scale(corrupted_c, sub.L)
    res = montecarlo.estimate(sub, "ER_user", trials=20000)
    r = next(x for x in res if x.m == 0 and x.k == sub.K - 1)
    pulls = abs(r.estimate - corrupted) / max(r.stderr, 1e-12)
    print(f"[acceptance] negative control: corrupted ER off by {pulls:.0f} SE", flush=True)
    assert pulls > 3.0


@pytest.mark.slow
def test_criterion_07_high_snr_slopes(cfg):
    res = report(validation.check_high_snr_slopes(cfg, trials=100000))
    assert res.passed, res.detail


def test_criterion_08_residue_properties(cfg):
    res = report(validation.check_residue(cfg, trials_exact=2000, trials_bits=10000))
    assert res.passed, res.detail


def test_criterion_09_noma_vs_oma_pair_outage(cfg):
    """Closed-form pair outage of NOMA below OMA at the 30 dBm baseline.

    At this operating point both pair outages sit deep in their power-law
    asymptote, where the NOMA/OMA threshold ratio is (5/3)*(5/7) = 25/21 per
    antenna, so the NOMA pair outage converges to (25/21)^L times the OMA
    value from above.  The required inequality holds only at low transmit
    power (below roughly -6 dBm for this geometry); at 30 dBm it cannot.
    The criterion is asserted exactly as stated.
    """
    res = report(validation.check_noma_vs_oma(cfg, p_dbm=30.0))
    low = report(validation.check_noma_vs_oma(cfg, p_dbm=-10.0))
    assert low.passed, "low-power sanity companion failed: " + low.detail
    assert res.passed, res.detail


def test_criterion_10_determinism(cfg):
    res = report(validation.check_determinism(cfg, trials=5000))
    assert res.passed, res.detail
