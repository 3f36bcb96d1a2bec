import math

import numpy as np
import pytest

from scbsim.analytics import (
    ClosedFormInputs,
    InfeasibleRatesError,
    PowerFreeTerms,
    diversity_order,
    energy_efficiency,
    er_ceiling_user_k,
    er_from_threshold_scale,
    er_user_K,
    high_snr_slope,
    op_closed_form,
    op_oma,
    sic_threshold,
)
from scbsim.numerics import gamma_cdf, quadrature_semi_infinite
from scbsim.scenario import dbm_to_watt

NOISE = dbm_to_watt(-94.0)


def inputs(p_watt=1.0, L=2, l_direct=1e-7, alloc=(0.6, 0.4), rates=(1.0, 1.5)):
    return ClosedFormInputs(L=L, K=len(alloc), power_alloc=alloc, target_rate=rates,
                            p_watt=p_watt, noise_watt=NOISE, l_direct=l_direct)


# -- outage ---------------------------------------------------------------------

def test_op_single_antenna_is_exponential():
    one = inputs(L=1)
    worst = max(sic_threshold(one, v) for v in (0, 1))
    assert op_closed_form(one, 1) == pytest.approx(1.0 - math.exp(-worst), rel=1e-12)


def test_op_threshold_formula():
    # stage 0: eps=1, margin 0.6 - 0.4 = 0.2
    expected = 2 * 1.0 * NOISE / (1.0 * 1e-7 * 0.2)
    assert sic_threshold(inputs(), 0) == pytest.approx(expected, rel=1e-12)


def test_op_limits_in_power():
    low = op_closed_form(inputs(p_watt=1e-9), 1)
    high = op_closed_form(inputs(p_watt=1e9), 1)
    assert low > 0.999999
    assert high < 1e-12


def test_op_monotone_in_power_and_rates():
    ops = [op_closed_form(inputs(p_watt=p), 1) for p in np.logspace(-6, 2, 9)]
    assert all(a >= b for a, b in zip(ops, ops[1:]))
    easy = op_closed_form(inputs(rates=(0.5, 1.5)), 1)
    hard = op_closed_form(inputs(rates=(1.2, 1.5)), 1)
    assert easy < hard


def test_op_infeasible_rates_raise():
    bad = inputs(rates=(1.4, 1.5))   # eps0 = 1.639 > 0.6/0.4
    with pytest.raises(InfeasibleRatesError):
        op_closed_form(bad, 0)


def test_op_monte_carlo_agreement(baseline_cfg):
    """Direct gamma-variate Monte Carlo of the decode chain at 0 dBm."""
    from scbsim.linkmetrics import sic_chain
    rng = np.random.default_rng(77)
    n = 200000
    for m, k in ((0, 0), (0, 1)):
        inp = ClosedFormInputs.from_config(
            baseline_cfg.with_updates(tx_power_dbm=0.0), m, k)
        gains = rng.gamma(shape=inp.L, scale=1.0, size=n)
        out, _ = sic_chain(gains, 0.0, inp.l_direct, inp.p_watt, inp.power_alloc,
                           inp.target_rate, k, inp.noise_watt, inp.L)
        mc = out.mean()
        closed = op_closed_form(inp, k)
        se = math.sqrt(max(closed * (1 - closed), 1e-12) / n)
        assert abs(mc - closed) <= 3.5 * se


# -- OMA baseline ------------------------------------------------------------------

def test_op_oma_epsilon():
    # K=2, R=1 -> threshold scale eps_O = 3
    one = inputs(L=1)
    expected = 1.0 - math.exp(-(1 * 3 * NOISE / (1.0 * 1e-7)))
    assert op_oma(one, 0) == pytest.approx(expected, rel=1e-10)


def test_op_oma_single_user_equals_noma():
    single = ClosedFormInputs(L=2, K=1, power_alloc=(1.0,), target_rate=(1.2,),
                              p_watt=1e-3, noise_watt=NOISE, l_direct=1e-7)
    assert op_oma(single, 0) == pytest.approx(op_closed_form(single, 0), rel=1e-14)


def test_noma_beats_oma_pair_at_low_power():
    """The pair-outage advantage of superposition shows at low transmit power."""
    low = inputs(p_watt=1e-4, l_direct=8.838834764831845e-09)
    near = inputs(p_watt=1e-4, l_direct=1e-7)
    noma = op_closed_form(low, 0) * op_closed_form(near, 1)
    oma = op_oma(low, 0) * op_oma(near, 1)
    assert noma < oma


def test_noma_pair_ordering_flips_at_high_power():
    """At high power the pair outage ratio converges to (25/21)^L > 1."""
    far = inputs(p_watt=1.0, l_direct=8.838834764831845e-09)
    near = inputs(p_watt=1.0, l_direct=1e-7)
    noma = op_closed_form(far, 0) * op_closed_form(near, 1)
    oma = op_oma(far, 0) * op_oma(near, 1)
    assert noma == pytest.approx((25.0 / 21.0) ** 2 * oma, rel=5e-3)


# -- the staged evaluator: power-free terms once, each point from p and sigma^2 ----

def closed_at(cfg, metrics):
    """PowerFreeTerms.closed_forms of cfg at cfg's own power and noise."""
    return PowerFreeTerms.from_config(cfg).closed_forms(cfg.tx_power_watt, cfg.noise_watt,
                                                        metrics)


@pytest.mark.parametrize("p_dbm", [0.0, 30.0])
def test_cluster_closed_forms_match_each_law(baseline_cfg, p_dbm):
    """Every cluster's value is its per-user law's float; OP_pair is the product of the
    users' OP, and asking for one metric gives that metric's values."""
    cfg = baseline_cfg.with_updates(tx_power_dbm=p_dbm,
                                    d_direct=((200.0, 100.0), (150.0, 90.0)))
    metrics = ("OP_user", "OP_pair", "OP_oma", "ER_user")
    clusters = closed_at(cfg, metrics)
    assert len(clusters) == cfg.M
    for m, values in enumerate(clusters):
        cluster = [ClosedFormInputs.from_config(cfg, m, k) for k in range(cfg.K)]
        users = [op_closed_form(inp, k) for k, inp in enumerate(cluster)]
        assert values == {("OP_user", 0): users[0], ("OP_user", 1): users[1],
                          ("OP_pair", None): users[0] * users[1],
                          ("OP_oma", 0): op_oma(cluster[0], 0),
                          ("OP_oma", 1): op_oma(cluster[1], 1),
                          ("ER_user", cfg.K - 1): er_user_K(cluster[-1])}
        for metric in metrics:
            alone = closed_at(cfg, (metric,))[m]
            assert all(alone[key] == v for key, v in values.items() if key[0] == metric)
    first, second = closed_at(cfg, ("OP_user",))
    assert first["OP_user", 0] != second["OP_user", 0]


def test_cluster_closed_forms_mark_infeasible_rates(baseline_cfg):
    """analytic's exit-5 path: a user whose decoding chain the allocation cannot
    sustain has no OP, and then neither has the pair; OMA always has one."""
    values = closed_at(baseline_cfg.with_updates(target_rate=(1.4, 1.5)),
                       ("OP_user", "OP_pair", "OP_oma"))[0]
    assert values["OP_user", 0] is values["OP_user", 1] is values["OP_pair", None] is None
    assert 0.0 < values["OP_oma", 0] < 1.0
    # three users: user 0's stage holds, stage 1 (eps 3.29 against 0.3 / 0.1) does not
    three = baseline_cfg.with_updates(K=3, M=1, d_user=((160.0, 120.0, 80.0),),
                                      d_direct=((400.0, 200.0, 100.0),),
                                      power_alloc=(0.6, 0.3, 0.1), target_rate=(1.0, 2.1, 1.0))
    values = closed_at(three, ("OP_pair",))[0]
    assert values["OP_user", 0] == op_closed_form(ClosedFormInputs.from_config(three, 0, 0), 0)
    assert values["OP_user", 1] is values["OP_user", 2] is values["OP_pair", None] is None


# -- ergodic rate -------------------------------------------------------------------

@pytest.mark.parametrize("L", [1, 2, 4])
@pytest.mark.parametrize("c", [1e-3, 0.3, 5.0])
def test_er_vs_quadrature(L, c):
    def integrand(x):
        return (1.0 - gamma_cdf(c * np.asarray(x), L)) / (1.0 + np.asarray(x))
    quad = quadrature_semi_infinite(integrand, tol=1e-10) / math.log(2.0)
    assert er_from_threshold_scale(c, L) == pytest.approx(quad, abs=1e-8)


def test_er_single_antenna_form():
    from scbsim.numerics import exponential_integral_ei
    c = 0.7
    expected = -math.exp(c) * exponential_integral_ei(-c) / math.log(2.0)
    assert er_from_threshold_scale(c, 1) == pytest.approx(expected, rel=1e-12)


def test_er_asymptotics():
    # ER + log2(C) stays bounded as C -> 0 (unit high-SNR slope)
    values = [er_from_threshold_scale(c, 2) + math.log2(c) for c in (1e-3, 1e-6, 1e-9)]
    assert max(values) - min(values) < 0.01
    assert er_from_threshold_scale(1e6, 2) < 1e-5
    with pytest.raises(ValueError):
        er_from_threshold_scale(0.0, 2)


@pytest.mark.parametrize("L", range(1, 9))
def test_er_vs_mpmath(L):
    """The closed form to 1e-12 relative of 50-digit mpmath's (1/ln 2) sum_n e^C E_n(C)
    from C = 1e-6 to 1e6; the J_i recursion it replaced had the wrong sign at
    L = 8, C = 1e3."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    for c in np.geomspace(1e-6, 1e6, 49).tolist():
        ref = sum(mpmath.exp(c) * mpmath.expint(n, c) for n in range(1, L + 1)) / mpmath.log(2)
        assert float(abs(er_from_threshold_scale(c, L) - ref) / ref) <= 1e-12, (L, c)


@pytest.mark.parametrize("L,c", [(8, 1e3), (6, 1e4), (4, 1e5), (3, 1e-4)])
def test_er_sum_is_the_rate_integral(L, c):
    """The E_n sum is the rate integral (1/ln 2) int_0^inf Q(L, Cx) / (1 + x) dx,
    evaluated by mpmath, where the quadrature oracle of the checks does not reach."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    knots = sorted({0, 1, 1 / c, 10 * L / c, 100 * L / c, mpmath.inf})
    integral = mpmath.quad(
        lambda x: mpmath.gammainc(L, c * x, mpmath.inf, regularized=True) / (1 + x), knots)
    ref = integral / mpmath.log(2)
    assert float(abs(er_from_threshold_scale(c, L) - ref) / ref) <= 1e-12


def test_er_user_K_uses_geometry(baseline_cfg):
    inp = ClosedFormInputs.from_config(baseline_cfg, 0, 1)
    c = 2 * NOISE / (1.0 * 1e-7 * 0.4)
    assert inp.rate_threshold_scale == pytest.approx(c, rel=1e-12)
    assert er_user_K(inp) == pytest.approx(er_from_threshold_scale(c, 2), rel=1e-14)


def test_er_ceiling_values():
    assert er_ceiling_user_k((0.6, 0.4), 0) == pytest.approx(math.log2(2.5), rel=1e-14)
    assert er_ceiling_user_k((0.5, 0.5), 0) == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(ValueError):
        er_ceiling_user_k((0.6, 0.4), 1)
    with pytest.raises(ValueError):
        er_ceiling_user_k((1.0 - 1e-16, 1e-16), 0)


# -- slope fits -------------------------------------------------------------------------

def test_diversity_order_from_closed_curve():
    for L in (1, 2, 3):
        curve = []
        for p in (1.0, 3.0, 10.0):
            inp = inputs(p_watt=p, L=L)
            curve.append((p, op_closed_form(inp, 1)))
        if all(v < 1e-2 for _, v in curve):
            slope = diversity_order(curve)
            assert slope == pytest.approx(L, rel=0.05)


def test_diversity_order_l2_window():
    curve = [(p, op_closed_form(inputs(p_watt=p, L=2), 1)) for p in (10.0, 100.0)]
    slope = diversity_order(curve)
    assert 1.8 <= slope <= 2.0


def test_diversity_order_requires_points():
    with pytest.raises(ValueError):
        diversity_order([(1.0, 0.5), (2.0, 0.3)])   # all above the cap


def test_high_snr_slope_unit_for_nearest_user():
    curve = [(p, er_from_threshold_scale(1e-6 / p, 2)) for p in (10.0, 100.0)]
    slope = high_snr_slope(curve)
    assert 0.95 <= slope <= 1.0


def test_high_snr_slope_zero_for_ceiling():
    curve = [(10.0, 1.32), (100.0, 1.32)]
    assert high_snr_slope(curve) == 0.0


# -- efficiency ---------------------------------------------------------------------------

def test_energy_efficiency_reference(baseline_cfg):
    # default power model at 30 dBm: 10 + 2*0.1 + 1*1.2 + 100*0.01 = 12.4
    cfg = baseline_cfg.with_updates(N=100)
    assert (cfg.K, cfg.tx_power_dbm) == (2, 30.0)
    assert energy_efficiency(4.0, cfg) == pytest.approx(4.0 / 12.4, rel=1e-12)
    assert energy_efficiency(0.0, cfg) == 0.0


def test_energy_efficiency_decreases_with_elements(baseline_cfg):
    values = [energy_efficiency(4.0, baseline_cfg.with_updates(N=n)) for n in (50, 100, 200, 400)]
    assert all(a > b for a, b in zip(values, values[1:]))
