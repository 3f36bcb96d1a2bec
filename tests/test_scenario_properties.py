"""Property tests of the config document (the round trip and the sweep
fingerprint), of with_updates against a full revalidation, and of the accepted
values of each field against an oracle written here."""

import math
import re
from dataclasses import fields, replace

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
# powers in dBm, and bandwidths, whose watts a float holds as a finite positive number
# (10^((x - 30) / 10) W overflows above about 3110 dBm and underflows below -3200 dBm,
# the noise power of a bandwidth below about 1e-303 Hz)
dbm = st.floats(-3000.0, 3000.0)
bandwidths = st.floats(min_value=1e-290, allow_infinity=False)
# text that float() reads digit by digit when it is taken for a list or a matrix
digits = st.sampled_from(["12", "1"])


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
        tx_power_dbm=draw(dbm), bandwidth_hz=draw(bandwidths),
        noise_dbm_override=draw(st.none() | dbm),
        p_bs_watt=draw(non_negative), p_user_watt=draw(non_negative),
        p_ris_watt=draw(non_negative), amp_factor=draw(st.floats(1.0, allow_infinity=False)),
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


UNKNOWN_FIELD = "bogus_field"


def _matrix(rows, cols, entry=positive):
    return st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


def _allocations(k):
    """Valid power allocations of k users, as lists."""
    return st.lists(st.floats(1.0, 100.0), min_size=k, max_size=k).map(
        lambda w: [v / sum(w) for v in sorted(w, reverse=True)])


def _increasing_allocations(k):
    """Allocations of k users that increase by more than any rounding, as lists
    (none for k = 1)."""
    if k == 1:
        return st.nothing()
    steps = st.lists(st.floats(1.0, 100.0), min_size=k, max_size=k).map(
        lambda w: [v + i for i, v in enumerate(sorted(w))])
    return steps.map(lambda w: [v / sum(w) for v in w])


def _shaped(cfg, name, count):
    """field -> values in the shape that count `name` ("M" or "K") = count gives."""
    rows, cols = (count, cfg.K) if name == "M" else (cfg.M, count)
    shaped = {"d_user": _matrix(rows, cols), "d_direct": _matrix(rows, cols)}
    if name == "K":
        shaped.update(power_alloc=_allocations(count),
                      target_rate=st.lists(non_negative, min_size=count, max_size=count))
    return shaped


def _spoiled(lists, bad):
    """A list from `lists` with one entry (for a matrix, one entry of one row)
    replaced by a `bad` value."""
    def put(value, spot, entry):
        value = [list(row) if isinstance(row, list) else row for row in value]
        i, j = spot
        if j is None:
            value[i] = entry
        else:
            value[i][j] = entry
        return value

    def spoil(value):
        spots = ([(i, j) for i, row in enumerate(value) for j in range(len(row))]
                 if isinstance(value[0], list) else [(i, None) for i in range(len(value))])
        return st.builds(put, st.just(value), st.sampled_from(spots), bad)

    return lists.flatmap(spoil)


def _field_values(cfg):
    """field name -> (valid values, invalid values) for an update of cfg.  The
    invalid ones are out of range or of the wrong type or shape.  A valid M or K
    is valid with the fields _shaped reshapes."""
    M, K = cfg.M, cfg.K
    counts = (st.integers(1, 4), st.integers(-2, 0) | st.sampled_from([2.0, "2", None]))
    positives = (positive, st.floats(max_value=0.0) | st.sampled_from([math.inf, math.nan,
                                                                      "1", None]))
    other_shape = st.tuples(st.integers(1, 3), st.integers(1, 3)).filter(
        lambda shape: shape != (M, K)).flatmap(lambda shape: _matrix(*shape))
    one_by_one = (M, K) == (1, 1)   # a number is a 1 x 1 matrix
    matrices = (_matrix(M, K) | (positive if one_by_one else st.nothing()),
                _spoiled(_matrix(M, K), st.sampled_from([0.0, -2.0, math.inf, math.nan]))
                | other_shape | (st.nothing() if one_by_one else positive)
                | st.just([160.0, 80.0]) | digits | st.just(["12"]) | st.none())
    allocs = (_allocations(K),
              _increasing_allocations(K)
              | _spoiled(_allocations(K), st.sampled_from([0.0, -0.5, 1.5, math.nan]))
              | st.lists(st.floats(0.0, 1.0), max_size=4).filter(lambda a: len(a) != K)
              | st.integers(1, 4).filter(lambda n: n != K).flatmap(_allocations)
              | digits | st.none())
    rates = (st.lists(non_negative, min_size=K, max_size=K),
             _spoiled(st.lists(non_negative, min_size=K, max_size=K),
                      st.sampled_from([-1.0, math.inf, math.nan]))
             | st.lists(non_negative, max_size=4).filter(lambda r: len(r) != K) | digits
             | st.none())
    bad_watts = st.sampled_from([-1.0, math.inf, math.nan, None])
    return {
        "M": counts, "K": counts, "L": counts, "N": counts,
        **{name: positives for name in
           ("d1", "alpha1", "alpha2", "alpha3", "rician_k1", "rician_k2")},
        "bandwidth_hz": (bandwidths, positives[1] | st.sampled_from([1e-310, 5e-324])),
        "d_user": matrices, "d_direct": matrices,
        "power_alloc": allocs, "target_rate": rates,
        "ris_scenario": (st.sampled_from(RIS_SCENARIOS), st.sampled_from(["bogus", None])),
        "cancellation_mode": (st.sampled_from(CANCELLATION_MODES),
                              st.sampled_from(["bogus", None])),
        "resolution_bits": (st.none() | st.integers(1, 16),
                            st.integers(-2, 0) | st.sampled_from([2.5, "3"])),
        "tx_power_dbm": (dbm, st.sampled_from([math.nan, math.inf, -math.inf, 4000.0, -4000.0,
                                               1e300, "30", None])),
        "noise_dbm_override": (st.none() | dbm, st.sampled_from([math.nan, -math.inf, 4000.0,
                                                                -4000.0, "1"])),
        **{name: (non_negative, bad_watts) for name in ("p_bs_watt", "p_user_watt", "p_ris_watt")},
        "amp_factor": (st.floats(1.0, 10.0), bad_watts | st.just(0.5)),
        "trials": (st.integers(1, 2 ** 40), st.integers(-2, 0) | st.sampled_from([1.5, "5"])),
        "master_seed": (st.integers(0, 2 ** 64 - 1),
                        st.sampled_from([-1, 2 ** 64, 3.0, "3", None])),
    }


@st.composite
def updates_of(draw, cfg, case):
    """An update of cfg.  case = (field, "valid" or "invalid"): that field with such
    a value and up to two more fields with any value; (UNKNOWN_FIELD, None): that
    name and up to two fields; ("M" or "K", fields): that count changed, with the
    given fields (distance matrices, for K also power_alloc and target_rate) in the
    new shape."""
    values = _field_values(cfg)
    name, kind = case
    if isinstance(kind, tuple):
        count = draw(st.integers(1, 3).filter(lambda n: n != getattr(cfg, name)))
        shaped = _shaped(cfg, name, count)
        return {name: count, **{label: draw(shaped[label]) for label in kind}}
    updates = ({name: draw(values[name][kind == "invalid"])} if kind
               else {name: draw(st.integers())})
    for other in draw(st.lists(st.sampled_from(sorted(values.keys() - {name})), max_size=2,
                               unique=True)):
        updates[other] = draw(st.one_of(*values[other]))
    return updates


def replace_validated(cfg, updates):
    """The copy dataclasses.replace builds, which runs __post_init__ and so the full
    validate(); a TypeError is a ConfigError, as with_updates makes it."""
    try:
        return replace(cfg, **updates)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def _outcome(fn):
    """(result, None) or (None, (exception type, message))."""
    try:
        return fn(), None
    except Exception as exc:   # noqa: BLE001 - the type and message are compared
        return None, (type(exc), str(exc))


# Each reshape case reaches one more rule that reads the changed count.
_RESHAPED = [("M", ()), ("M", ("d_user",)), ("M", ("d_direct",)), ("M", ("d_user", "d_direct")),
             ("K", ()), ("K", ("d_user",)), ("K", ("d_direct",)), ("K", ("d_user", "d_direct")),
             ("K", ("d_user", "d_direct", "power_alloc")),
             ("K", ("d_user", "d_direct", "target_rate")),
             ("K", ("d_user", "d_direct", "power_alloc", "target_rate"))]
UPDATE_CASES = ([(f.name, kind) for f in fields(ScenarioConfig) for kind in ("valid", "invalid")]
                + [(UNKNOWN_FIELD, None)] + _RESHAPED)


def _case_id(case):
    name, kind = case
    return f"{name}-{'+'.join(kind) or 'alone'}" if isinstance(kind, tuple) else f"{name}-{kind}"


@pytest.mark.parametrize("case", UPDATE_CASES, ids=map(_case_id, UPDATE_CASES))
@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(data=st.data())
def test_with_updates_matches_replace_and_full_validate(case, data):
    """with_updates gives the config or the error of a full revalidation.  It runs
    only the rules that read an updated field.  The value rules' read sets are
    derived from the schema; a cross-field rule that leaves out a field it reads
    shows up here, given an invalid value of every field, as a missed or a
    different error."""
    cfg = data.draw(configs())
    updates = data.draw(updates_of(cfg, case))
    expected, expected_error = _outcome(lambda: replace_validated(cfg, updates))
    got, error = _outcome(lambda: cfg.with_updates(**updates))
    assert error == expected_error
    if expected_error is None:
        assert got == expected and hash(got) == hash(expected)
        assert serialize_config(got) == serialize_config(expected)
        assert fingerprint(got) == fingerprint(expected)
    elif UNKNOWN_FIELD in updates:
        assert error[0] is ConfigError


# The config key of each field.
FIELD_KEYS = {name: f"{section}.{name}" for section, names in (
    ("geometry", "d1 d_user d_direct alpha1 alpha2 alpha3"),
    ("noma", "power_alloc target_rate"),
    ("ris", "N ris_scenario cancellation_mode resolution_bits"),
    ("montecarlo", "trials master_seed"),
    ("power_model", "p_bs_watt p_user_watt p_ris_watt amp_factor")) for name in names.split()}


@pytest.mark.parametrize("name", [f.name for f in fields(ScenarioConfig)])
@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(data=st.data())
def test_field_values_build_or_fail_naming_their_key(name, data):
    """The accepted values of each field, against _field_values as the oracle: a
    valid value builds, and an invalid one raises a ConfigError that names the
    field's config key, by a direct build and by with_updates."""
    cfg = data.draw(configs())
    valid, invalid = _field_values(cfg)[name]
    value = data.draw(valid)
    updates = {name: value}
    if name in ("M", "K"):
        updates.update({label: data.draw(values)
                        for label, values in _shaped(cfg, name, value).items()})
    bad = data.draw(invalid)
    key = re.escape(FIELD_KEYS.get(name, name))
    for build in (lambda u: replace(cfg, **u), lambda u: cfg.with_updates(**u)):
        build(updates)
        with pytest.raises(ConfigError) as exc:
            build({name: bad})
        assert re.fullmatch(rf"{key} must be .+, got .+", str(exc.value), re.DOTALL)
