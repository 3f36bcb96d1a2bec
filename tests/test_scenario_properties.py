"""Property tests of the config document: the round trip and the sweep fingerprint."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, reject, settings
from hypothesis import strategies as st

from scbsim.montecarlo import sweep_config
from scbsim.scenario import (
    CANCELLATION_MODES,
    INT_FIELDS,
    NUMERIC_FIELDS,
    RIS_SCENARIOS,
    ConfigError,
    PowerModel,
    ScenarioConfig,
    fingerprint,
    load_config,
    serialize_config,
    sweep_fingerprint,
)

PROPERTY = settings(derandomize=True, database=None, max_examples=100, deadline=None)

positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
finite = st.floats(allow_nan=False, allow_infinity=False)
non_negative = st.floats(min_value=0.0, allow_infinity=False)


@st.composite
def configs(draw):
    M = draw(st.integers(1, 3))
    K = draw(st.integers(1, 3))
    matrix = st.lists(st.lists(positive, min_size=K, max_size=K), min_size=M, max_size=M)
    weights = sorted(draw(st.lists(st.floats(1.0, 100.0), min_size=K, max_size=K)),
                     reverse=True)
    return ScenarioConfig(
        M=M, K=K, L=draw(st.integers(1, 8)), N=draw(st.integers(1, 2 ** 20)),
        d1=draw(positive), d_user=draw(matrix), d_direct=draw(matrix),
        alpha1=draw(positive), alpha2=draw(positive), alpha3=draw(positive),
        rician_k1=draw(positive), rician_k2=draw(positive),
        power_alloc=tuple(w / sum(weights) for w in weights),
        target_rate=draw(st.lists(non_negative, min_size=K, max_size=K)),
        ris_scenario=draw(st.sampled_from(RIS_SCENARIOS)),
        cancellation_mode=draw(st.sampled_from(CANCELLATION_MODES)),
        resolution_bits=draw(st.none() | st.integers(1, 16)),
        tx_power_dbm=draw(finite), bandwidth_hz=draw(positive),
        noise_dbm_override=draw(st.none() | finite),
        power_model=PowerModel(p_bs_watt=draw(non_negative), p_user_watt=draw(non_negative),
                               p_ris_watt=draw(non_negative),
                               amp_factor=draw(st.floats(1.0, allow_infinity=False))),
        trials=draw(st.integers(1, 2 ** 40)),
        master_seed=draw(st.integers(0, 2 ** 64 - 1)),
    )


@PROPERTY
@given(configs())
def test_serialize_load_roundtrip(cfg):
    assert load_config(serialize_config(cfg)) == cfg


@PROPERTY
@given(configs(), st.sampled_from(NUMERIC_FIELDS), st.data())
def test_sweep_fingerprint_on_generated_sweeps(cfg, var, data):
    if var in ("M", "K"):   # any other value mismatches the distance matrices
        value = getattr(cfg, var)
    elif var in INT_FIELDS:
        value = data.draw(st.integers(0, 2 ** 64 - 1))
    else:
        value = data.draw(finite)
    try:
        point = sweep_config(cfg, var, value)
    except ConfigError:
        reject()
    assert sweep_fingerprint(cfg, var)(point) == fingerprint(point)
