"""Property test of the staged closed forms: a config's PowerFreeTerms, built at
one transmit power and noise and evaluated at others, one point per call and all
points in one call, against the per-user laws at each point, and against the
laws' formulas written out here in their order of operations."""

import math
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from scbsim.analytics import (
    ClosedFormInputs,
    InfeasibleRatesError,
    PowerFreeTerms,
    er_from_threshold_scale,
    er_user_K,
    op_closed_form,
    op_oma,
)
from scbsim.numerics import lower_incomplete_gamma_regularized
from scbsim.scenario import load_config

PROPERTY = settings(derandomize=True, database=None, max_examples=200, deadline=None)
BASE = load_config((Path(__file__).resolve().parents[1] / "configs" / "baseline.cfg").read_text())
METRICS = ("OP_user", "OP_pair", "OP_oma", "ER_user")

powers_dbm = st.floats(-40.0, 60.0)
noise_dbm = st.none() | st.floats(-130.0, -60.0)


@st.composite
def configs(draw):
    """Baseline with K 1-3, L 1-4, M 1-2, and drawn allocations, rates, distances,
    path-loss exponent, power and noise override."""
    M, K = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    distances = st.lists(st.lists(st.floats(1.0, 2000.0), min_size=K, max_size=K),
                         min_size=M, max_size=M)
    weights = sorted(draw(st.lists(st.floats(1.0, 100.0), min_size=K, max_size=K)),
                     reverse=True)
    return BASE.with_updates(
        M=M, K=K, L=draw(st.integers(1, 4)), d_user=draw(distances), d_direct=draw(distances),
        alpha3=draw(st.floats(2.0, 4.0)), power_alloc=tuple(w / sum(weights) for w in weights),
        target_rate=tuple(draw(st.lists(st.floats(0.0, 3.0), min_size=K, max_size=K))),
        tx_power_dbm=draw(powers_dbm), noise_dbm_override=draw(noise_dbm))


def law(fn, *args):
    """fn(*args), None where it raises InfeasibleRatesError."""
    try:
        return fn(*args)
    except InfeasibleRatesError:
        return None


def written_out_op(inputs, k):
    """The outage law with every stage's threshold L eps sigma^2 / (p Lb margin)
    written out, evaluated left to right."""
    thresholds = []
    for v in range(k + 1):
        eps = 2.0 ** inputs.target_rate[v] - 1.0
        margin = inputs.power_alloc[v] - eps * sum(inputs.power_alloc[v + 1:])
        if margin <= 0:
            return None
        thresholds.append(inputs.L * eps * inputs.noise_watt
                          / (inputs.p_watt * inputs.l_direct * margin))
    return lower_incomplete_gamma_regularized(inputs.L, max(thresholds))


def written_out_oma(inputs, k):
    eps = 2.0 ** (inputs.K * inputs.target_rate[k]) - 1.0
    return lower_incomplete_gamma_regularized(
        inputs.L, inputs.L * eps * inputs.noise_watt / (inputs.p_watt * inputs.l_direct))


def written_out_er(inputs):
    c = inputs.L * inputs.noise_watt / (inputs.p_watt * inputs.l_direct * inputs.power_alloc[-1])
    return er_from_threshold_scale(c, inputs.L)


def expected_closed_forms(point, m):
    """{(metric, k): value} of cluster m at point from the per-user laws, each law
    checked against its written-out formula; None where the law raises."""
    users = [ClosedFormInputs.from_config(point, m, k) for k in range(point.K)]
    expected = {("ER_user", point.K - 1): er_user_K(users[-1])}
    for k, inputs in enumerate(users):
        expected["OP_user", k] = law(op_closed_form, inputs, k)
        expected["OP_oma", k] = op_oma(inputs, k)
        assert repr(expected["OP_user", k]) == repr(written_out_op(inputs, k))
        assert repr(expected["OP_oma", k]) == repr(written_out_oma(inputs, k))
    assert repr(expected["ER_user", point.K - 1]) == repr(written_out_er(users[-1]))
    ops = [expected["OP_user", k] for k in range(point.K)]
    expected["OP_pair", None] = None if None in ops else math.prod(ops)
    return expected


@PROPERTY
@given(configs(), st.lists(st.tuples(powers_dbm, noise_dbm), min_size=1, max_size=6))
def test_staged_closed_forms_equal_the_per_user_laws(cfg, links):
    """Terms built at cfg's power and noise, evaluated at other points' -- one
    point at a time, and all of them in one call -- give each per-user law's
    float at each point bit for bit (repr), and None exactly where the law
    raises InfeasibleRatesError."""
    points = [cfg.with_updates(tx_power_dbm=p, noise_dbm_override=n) for p, n in links]
    terms = PowerFreeTerms.from_config(cfg)
    expected = [[expected_closed_forms(point, m) for m in range(cfg.M)] for point in points]
    for point, point_expected in zip(points, expected):
        clusters = terms.closed_forms(point.tx_power_watt, point.noise_watt, METRICS)
        assert len(clusters) == cfg.M
        for values, cluster_expected in zip(clusters, point_expected):
            assert values.keys() == cluster_expected.keys()
            assert all(repr(values[key]) == repr(v) for key, v in cluster_expected.items())
    clusters = terms.closed_forms([point.tx_power_watt for point in points],
                                  [point.noise_watt for point in points], METRICS)
    assert len(clusters) == cfg.M
    for m, values in enumerate(clusters):
        assert values.keys() == expected[0][m].keys()
        for key, column in values.items():
            laws = [point_expected[m][key] for point_expected in expected]
            if column is None:
                assert laws == [None] * len(points)
            else:
                assert list(map(repr, column)) == list(map(repr, laws)), (m, key)
