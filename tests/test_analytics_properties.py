"""Property test of the staged closed forms: a config's PowerFreeTerms, built at
one transmit power and noise and evaluated at another, against the per-user laws
at the second point, and against the laws' formulas written out here in their
order of operations."""

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


@PROPERTY
@given(configs(), powers_dbm, noise_dbm)
def test_staged_closed_forms_equal_the_per_user_laws(cfg, p_dbm, n_dbm):
    """Terms built at cfg's power and noise, evaluated at another point's, give each
    per-user law's float at that point bit for bit (repr), and None exactly where
    the law raises InfeasibleRatesError."""
    point = cfg.with_updates(tx_power_dbm=p_dbm, noise_dbm_override=n_dbm)
    terms = PowerFreeTerms.from_config(cfg)
    clusters = terms.closed_forms(point.tx_power_watt, point.noise_watt, METRICS)
    assert len(clusters) == cfg.M
    for m, values in enumerate(clusters):
        users = [ClosedFormInputs.from_config(point, m, k) for k in range(cfg.K)]
        expected = {("ER_user", cfg.K - 1): er_user_K(users[-1])}
        for k, inputs in enumerate(users):
            expected["OP_user", k] = law(op_closed_form, inputs, k)
            expected["OP_oma", k] = op_oma(inputs, k)
            assert repr(expected["OP_user", k]) == repr(written_out_op(inputs, k))
            assert repr(expected["OP_oma", k]) == repr(written_out_oma(inputs, k))
            assert repr(terms.op_user(m, k, point.tx_power_watt, point.noise_watt)) \
                == repr(expected["OP_user", k])
        assert repr(expected["ER_user", cfg.K - 1]) == repr(written_out_er(users[-1]))
        ops = [expected["OP_user", k] for k in range(cfg.K)]
        expected["OP_pair", None] = None if None in ops else math.prod(ops)
        assert values.keys() == expected.keys()
        assert all(repr(values[key]) == repr(v) for key, v in expected.items()), (m, values)
