import itertools
import math
from dataclasses import fields

import pytest

from scbsim.montecarlo import sweep_config
from scbsim.scenario import (
    CANCELLATION_MODES,
    NUMERIC_FIELDS,
    RIS_SCENARIOS,
    _SECTION_KEYS,
    ConfigError,
    ScenarioConfig,
    dbm_to_watt,
    fingerprint,
    load_config,
    noise_power_dbm,
    serialize_config,
    sweep_fingerprint,
)


def make_cfg(**overrides):
    base = dict(
        M=2, K=2, L=2, N=40, d1=80.0,
        d_user=((160.0, 80.0), (160.0, 80.0)),
        d_direct=((200.0, 100.0), (200.0, 100.0)),
        alpha1=2.2, alpha2=2.2, alpha3=3.5,
        rician_k1=3.0, rician_k2=3.0,
        power_alloc=(0.6, 0.4), target_rate=(1.0, 1.5),
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def test_noise_power_reference_values():
    assert noise_power_dbm(1e8) == pytest.approx(-94.0, abs=1e-12)
    assert noise_power_dbm(1.0) == pytest.approx(-174.0, abs=1e-12)
    assert noise_power_dbm(1e6) == pytest.approx(-114.0, abs=1e-12)


def test_noise_power_monotone_in_bandwidth():
    values = [noise_power_dbm(b) for b in (1e3, 1e5, 1e7, 1e9)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_dbm_watt_conversions():
    assert dbm_to_watt(30.0) == pytest.approx(1.0, rel=1e-14)
    assert dbm_to_watt(0.0) == pytest.approx(1e-3, rel=1e-14)
    assert dbm_to_watt(-94.0) == pytest.approx(3.981071705534969e-13, rel=1e-14)


@pytest.mark.parametrize("x_dbm", [4000.0, -4000.0, math.inf, math.nan])
def test_dbm_to_watt_rejects_powers_beyond_floats(x_dbm):
    """A finite dBm value whose watts overflow, or underflow to 0, is a config error."""
    with pytest.raises(ConfigError, match="finite and positive"):
        dbm_to_watt(x_dbm)


def test_baseline_config_accepted(baseline_cfg):
    cfg = baseline_cfg
    assert (cfg.M, cfg.K, cfg.L, cfg.N) == (2, 2, 2, 40)
    assert cfg.power_alloc == (0.6, 0.4)
    assert cfg.target_rate == (1.0, 1.5)
    assert cfg.d_user[0] == (160.0, 80.0)
    assert cfg.resolution_bits is None
    assert cfg.noise_dbm == pytest.approx(-94.0)
    assert cfg.tx_power_watt == pytest.approx(1.0)


def test_equal_power_split_accepted():
    cfg = make_cfg(power_alloc=(0.5, 0.5))
    assert sum(cfg.power_alloc) == pytest.approx(1.0)


def test_power_alloc_must_sum_to_one():
    with pytest.raises(ConfigError, match="sum to 1"):
        make_cfg(power_alloc=(0.7, 0.4))


def test_power_alloc_must_be_non_increasing():
    with pytest.raises(ConfigError, match="non-increasing"):
        make_cfg(power_alloc=(0.4, 0.6))


@pytest.mark.parametrize("field,value", [
    ("d1", -1.0), ("alpha1", 0.0), ("rician_k1", 0.0),
    ("M", 0), ("N", 0), ("bandwidth_hz", 0.0),
])
def test_positivity_violations_rejected(field, value):
    with pytest.raises(ConfigError):
        make_cfg(**{field: value})


def test_missing_distance_entries_rejected():
    with pytest.raises(ConfigError, match="d_user"):
        make_cfg(d_user=((160.0, 80.0),))


def test_resolution_bits_validated():
    assert make_cfg(resolution_bits=3).resolution_bits == 3
    with pytest.raises(ConfigError):
        make_cfg(resolution_bits=0)


def test_load_serialize_roundtrip(baseline_text):
    cfg = load_config(baseline_text)
    again = load_config(serialize_config(cfg))
    assert again == cfg
    assert fingerprint(again) == fingerprint(cfg)


def shaped(M, K, L, N):
    """make_cfg keyword arguments for M clusters of K users, with distinct distances."""
    alloc = tuple(float(v) for v in range(K, 0, -1))
    return dict(M=M, K=K, L=L, N=N,
                d_user=tuple(tuple(160.0 - 20.0 * k + m for k in range(K)) for m in range(M)),
                d_direct=tuple(tuple(200.0 - 25.0 * k + m for k in range(K)) for m in range(M)),
                power_alloc=tuple(a / sum(alloc) for a in alloc),
                target_rate=tuple(1.0 + 0.25 * k for k in range(K)))


@pytest.mark.parametrize("shape", [(1, 1, 1, 1), (2, 2, 2, 40), (3, 3, 4, 513)],
                         ids=lambda s: "M{}K{}L{}N{}".format(*s))
@pytest.mark.parametrize("scenario", RIS_SCENARIOS)
@pytest.mark.parametrize("mode", CANCELLATION_MODES)
def test_load_serialize_roundtrip_grid(shape, scenario, mode):
    """Every field survives serialize -> load, over resolution, noise and power-model variants."""
    extras = ({}, {"noise_dbm_override": -101.3},
              {"p_bs_watt": 6.5, "p_user_watt": 0.3, "p_ris_watt": 0.0, "amp_factor": 2.5,
               "tx_power_dbm": -7.25})
    for bits, extra in itertools.product((None, 1, 3), extras):
        cfg = make_cfg(**shaped(*shape), ris_scenario=scenario, cancellation_mode=mode,
                       resolution_bits=bits, **extra)
        again = load_config(serialize_config(cfg))
        assert again == cfg, (bits, extra)
        assert fingerprint(again) == fingerprint(cfg)


def test_serialize_writes_one_line_per_field(baseline_cfg):
    """The schema is flat: each field is one line of the document, under its own
    key, so every field reaches the fingerprint."""
    keys = [line.split(" = ", 1)[0] for line in serialize_config(baseline_cfg).splitlines()]
    assert len(keys) == len(fields(ScenarioConfig)) == len(set(keys))
    assert set(keys) <= _SECTION_KEYS.keys()
    assert {_SECTION_KEYS[key][0] for key in keys} == {f.name for f in fields(ScenarioConfig)}


def test_load_rejects_unknown_and_duplicate_keys():
    with pytest.raises(ConfigError, match="unknown key"):
        load_config("nonsense = 1\n")
    doc = "M = 2\nM = 3\n"
    with pytest.raises(ConfigError, match="duplicate"):
        load_config(doc)


def test_load_reports_missing_keys(baseline_text):
    doc = "\n".join(l for l in baseline_text.splitlines() if "d_direct" not in l)
    with pytest.raises(ConfigError, match="missing required"):
        load_config(doc)
    # every field without a default is required, listed by its key in field order
    with pytest.raises(ConfigError) as exc:
        load_config("")
    assert str(exc.value) == (
        "missing required keys: M, K, L, ris.N, geometry.d1, geometry.d_user, "
        "geometry.d_direct, geometry.alpha1, geometry.alpha2, geometry.alpha3, "
        "rician_k1, rician_k2, noma.power_alloc, noma.target_rate")


def test_load_parses_power_model(baseline_text):
    cfg = load_config(baseline_text + "\npower_model.p_bs_watt = 20\n")
    assert cfg.p_bs_watt == 20.0
    assert (cfg.p_user_watt, cfg.p_ris_watt, cfg.amp_factor) == (0.1, 0.01, 1.2)


def test_validation_error_names_field():
    with pytest.raises(ConfigError, match="power_alloc"):
        make_cfg(power_alloc=(0.7, 0.4))


@pytest.mark.parametrize("field,value,message", [
    ("d_user", None, "geometry.d_user must be a matrix of numbers, one row per cluster "
                     "(';' between rows), got None"),
    ("d_direct", [200.0, 100.0], "geometry.d_direct must be a matrix of numbers, one row per "
                                 "cluster (';' between rows), got [200.0, 100.0]"),
    ("target_rate", None, "noma.target_rate must be a list of numbers, got None"),
    ("power_alloc", "0.5", "noma.power_alloc must be a list of numbers, got '0.5'"),
    ("target_rate", "12", "noma.target_rate must be a list of numbers, got '12'"),
    ("d_user", ["12", "34"], "geometry.d_user must be a matrix of numbers, one row per cluster "
                             "(';' between rows), got ['12', '34']"),
    ("d1", "80", "geometry.d1 must be strictly positive and finite, got '80'"),
    ("tx_power_dbm", None, "tx_power_dbm must be finite, got None"),
    ("tx_power_dbm", 4000.0, "tx_power_dbm must be finite and positive in watts, got 4000.0"),
    ("noise_dbm_override", -4000.0,
     "noise_dbm_override must be none or finite and positive in watts, got -4000.0"),
    ("bandwidth_hz", 1e-310, "bandwidth_hz must be a bandwidth whose noise power is finite "
                             "and positive in watts, got 1e-310"),
    ("N", 0, "ris.N must be an integer >= 1, got 0"),
    ("amp_factor", 0.5, "power_model.amp_factor must be finite and >= 1, got 0.5"),
], ids=["d_user-None", "d_direct-row", "target_rate-None",
        "power_alloc-str", "target_rate-digits", "d_user-digit-rows", "d1-str",
        "tx_power_dbm-None", "tx_power_dbm-overflow", "noise_dbm_override-underflow",
        "bandwidth_hz-underflow", "N-0", "amp_factor-0.5"])
def test_bad_value_is_a_config_error_naming_its_key(baseline_cfg, field, value, message):
    """A value of the wrong type or out of range raises "<key> must be <what>, got
    <value>" from a direct build and from with_updates, never a bare TypeError or
    AttributeError."""
    for build in (lambda: make_cfg(**{field: value}),
                  lambda: baseline_cfg.with_updates(**{field: value})):
        with pytest.raises(ConfigError) as exc:
            build()
        assert str(exc.value) == message


def test_with_updates_revalidates(baseline_cfg):
    assert baseline_cfg.with_updates(tx_power_dbm=10.0).tx_power_dbm == 10.0
    with pytest.raises(ConfigError):
        baseline_cfg.with_updates(power_alloc=(0.9, 0.4))


def test_noise_override(baseline_cfg):
    cfg = baseline_cfg.with_updates(noise_dbm_override=-100.0)
    assert cfg.noise_dbm == -100.0
    assert cfg.noise_watt == pytest.approx(dbm_to_watt(-100.0))


def with_key(text, key, value):
    """A config document with one key's line replaced."""
    lines = [l for l in text.splitlines() if l.split("=", 1)[0].strip() != key]
    return "\n".join(lines + [f"{key} = {value}"]) + "\n"


@pytest.mark.parametrize("seed", [2 ** 53 + 1, 2 ** 64 - 1], ids=["2^53+1", "2^64-1"])
def test_roundtrip_keeps_big_seeds_exact(baseline_cfg, seed):
    cfg = baseline_cfg.with_updates(master_seed=seed)
    again = load_config(serialize_config(cfg))
    assert again.master_seed == seed and again == cfg


@pytest.mark.parametrize("key,text,value", [
    ("ris.N", "40.0", 40), ("montecarlo.trials", "1e3", 1000), ("M", "2", 2),
    ("ris.resolution_bits", "3.0", 3),
])
def test_integer_keys_take_integral_floats(baseline_text, key, text, value):
    cfg = load_config(with_key(baseline_text, key, text))
    field = {"ris.N": "N", "montecarlo.trials": "trials", "M": "M",
             "ris.resolution_bits": "resolution_bits"}[key]
    assert getattr(cfg, field) == value and type(getattr(cfg, field)) is int


@pytest.mark.parametrize("key", ["ris.N", "montecarlo.trials", "montecarlo.master_seed"])
@pytest.mark.parametrize("text", ["inf", "-inf", "nan", "40.5", "1e400", "forty"])
def test_integer_keys_reject_non_integers(baseline_text, key, text):
    with pytest.raises(ConfigError, match="cannot parse"):
        load_config(with_key(baseline_text, key, text))


@pytest.mark.parametrize("key", [
    "rician_k1", "rician_k2", "tx_power_dbm", "bandwidth_hz", "geometry.d1",
    "geometry.alpha1", "geometry.alpha2", "geometry.alpha3",
    "power_model.p_bs_watt", "power_model.amp_factor",
])
@pytest.mark.parametrize("text", ["inf", "nan"])
def test_non_finite_numbers_rejected(baseline_text, key, text):
    with pytest.raises(ConfigError, match="finite"):
        load_config(with_key(baseline_text, key, text))


@pytest.mark.parametrize("key,text", [
    ("geometry.d_user", "160, inf; 160, 80"), ("geometry.d_direct", "200, 100; inf, 100"),
    ("noma.target_rate", "1.0, inf"), ("noma.target_rate", "nan, 1.5"),
])
def test_non_finite_entries_rejected(baseline_text, key, text):
    with pytest.raises(ConfigError, match="finite"):
        load_config(with_key(baseline_text, key, text))


# One valid point per sweepable field of the baseline.  M and K take their
# base values: the distance matrices and the allocation fix them.
SWEEP_POINTS = {
    "M": 2, "K": 2, "L": 4, "rician_k1": 5.5, "rician_k2": 0.25, "tx_power_dbm": -7.5,
    "bandwidth_hz": 2e7,
    "noise_dbm_override": -90.0,    # base None, point a float
    "d1": 120.0, "alpha1": 2.5, "alpha2": 2.7, "alpha3": 3.0,
    "N": 64,                        # an integer field
    "resolution_bits": 3,           # base None, point an int
    "trials": 500,
    "master_seed": 2 ** 53 + 1,     # beyond what a float holds
}


def test_sweep_points_cover_every_numeric_field():
    assert sorted(SWEEP_POINTS) == sorted(NUMERIC_FIELDS)


@pytest.mark.parametrize("var", sorted(SWEEP_POINTS))
def test_sweep_fingerprint_is_fingerprint(baseline_cfg, var):
    """The sweep helper hashes the bytes fingerprint hashes, for every sweepable kind."""
    fp = sweep_fingerprint(baseline_cfg, var)
    point = sweep_config(baseline_cfg, var, SWEEP_POINTS[var])
    assert fp(point) == fingerprint(point)
    assert fp(baseline_cfg) == fingerprint(baseline_cfg)
    if getattr(point, var) != getattr(baseline_cfg, var):
        assert fp(point) != fp(baseline_cfg)


POWER_MODEL_LINES = ("power_model.p_bs_watt = 6.5\npower_model.p_user_watt = 0.3\n"
                     "power_model.p_ris_watt = 0.0\npower_model.amp_factor = 2.5\n")


@pytest.mark.parametrize("extra,expected", [("", "a32c1e91e159"),
                                            (POWER_MODEL_LINES, "d25c23e7c698")],
                         ids=["baseline", "power-model-off-defaults"])
def test_fingerprint_frozen_values(baseline_text, extra, expected):
    """Frozen values: a change to the canonical document (a key, its order or a
    value's spelling) changes every fingerprint the CSVs carry."""
    assert fingerprint(load_config(baseline_text + extra)) == expected
