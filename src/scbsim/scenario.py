"""Experiment configuration: validation, unit conversions and the noise model.

A scenario is a frozen dataclass describing one downlink experiment: a base
station with M transmit antennas serving M clusters of K NOMA users, each
with L receive antennas, assisted by an N-element reflecting surface.  All
large-scale geometry, NOMA power/rate allocation, surface operating mode and
Monte Carlo bookkeeping live here.  Instances are immutable and safe to share
across worker threads.

Config files use a flat ``key = value`` grammar with dotted section prefixes
(``geometry.*``, ``noma.*``, ``ris.*``, ``montecarlo.*``, ``power_model.*``);
every key sets one ScenarioConfig field (``ris.N`` sets ``N``,
``power_model.amp_factor`` sets ``amp_factor``).  Lists are comma separated,
matrices use ``;`` between rows, ``#`` starts a comment.  Distances are
meters, powers dBm except the four power-model fields (watts).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import MISSING, dataclass, fields, replace

DIFFUSE = "diffuse"
ANOMALOUS = "anomalous"
AGGREGATE = "aggregate"
PER_SYMBOL = "per-symbol"

RIS_SCENARIOS = (DIFFUSE, ANOMALOUS)
CANCELLATION_MODES = (AGGREGATE, PER_SYMBOL)

# Thermal noise density at room temperature, dBm per Hz.
THERMAL_NOISE_DBM_PER_HZ = -174.0


class ConfigError(ValueError):
    """Raised when a config document cannot be parsed or violates an invariant."""


def noise_power_dbm(bandwidth_hz):
    """AWGN power over a bandwidth: -174 + 10*log10(BW) dBm."""
    if not bandwidth_hz > 0:
        raise ConfigError(f"bandwidth_hz must be positive, got {bandwidth_hz}")
    return THERMAL_NOISE_DBM_PER_HZ + 10.0 * math.log10(bandwidth_hz)


def dbm_to_watt(x_dbm):
    """Watts of a dBm power; a config error unless finite and positive (4000 dBm overflows)."""
    try:
        watt = 10.0 ** ((x_dbm - 30.0) / 10.0)
    except OverflowError:
        watt = math.inf
    if not 0.0 < watt < math.inf:
        raise ConfigError(f"{x_dbm} dBm is {watt} W; it must be finite and positive")
    return watt


@dataclass(frozen=True)
class ScenarioConfig:
    """Full experiment description; validated on construction, then immutable.

    User index convention: within a cluster, user 0 is the farthest (weakest)
    user and user K-1 the nearest.  ``power_alloc`` holds the squared power
    allocation factors, which must sum to one and be non-increasing so that
    the successive decoding order (user k decodes users 0..k) is well posed.
    """

    M: int                      # transmit antennas = clusters
    K: int                      # users per cluster
    L: int                      # receive antennas per user
    N: int                      # reflecting elements
    d1: float                   # BS-RIS distance, m
    d_user: tuple               # RIS-user distances, [m][k], meters
    d_direct: tuple             # BS-user distances, [m][k], meters
    alpha1: float               # path loss exponent, BS-RIS
    alpha2: float               # path loss exponent, RIS-user
    alpha3: float               # path loss exponent, BS-user
    rician_k1: float            # Rician factor of the BS-RIS link (linear)
    rician_k2: float            # Rician factor of the RIS-user links (linear)
    power_alloc: tuple          # squared NOMA power factors per user
    target_rate: tuple          # per-user target rates, bits/channel use
    ris_scenario: str = DIFFUSE
    cancellation_mode: str = AGGREGATE
    resolution_bits: int | None = None   # None = ideal (continuous) surface
    tx_power_dbm: float = 30.0
    bandwidth_hz: float = 1e8
    noise_dbm_override: float | None = None
    # static power draw of the energy-efficiency metric, watts
    p_bs_watt: float = 10.0     # base-station circuitry
    p_user_watt: float = 0.1    # per user terminal
    p_ris_watt: float = 0.01    # per reflecting element controller
    amp_factor: float = 1.2     # inverse amplifier efficiency, multiplies tx power
    trials: int = 100000
    master_seed: int = 12345

    def __post_init__(self):
        for name, normalize in _NORMALIZE.items():
            object.__setattr__(self, name, normalize(getattr(self, name)))
        self.validate()

    def validate(self):
        """Run every rule of _RULES in order; the first that fails raises ConfigError."""
        for _, check in _RULES:
            check(self)

    # -- derived quantities ------------------------------------------------

    @property
    def noise_dbm(self):
        if self.noise_dbm_override is not None:
            return self.noise_dbm_override
        return noise_power_dbm(self.bandwidth_hz)

    @property
    def noise_watt(self):
        return dbm_to_watt(self.noise_dbm)

    @property
    def tx_power_watt(self):
        return dbm_to_watt(self.tx_power_dbm)

    def with_updates(self, **kwargs):
        """A validated copy with the given fields replaced.

        The copy takes this instance's fields, normalizes the updated ones as
        __post_init__ does and runs only the rules of _RULES that read an
        updated field.  This instance passed every rule when it was built, so
        the first rule that fails is the first a full validate() would fail.
        An unknown field name is a ConfigError.
        """
        try:
            if not kwargs.keys() <= _RULES_READING.keys():
                return replace(self, **kwargs)   # raises the unknown name's TypeError
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc
        values = dict(self.__dict__, **kwargs)
        for name, normalize in _NORMALIZE.items():
            if name in kwargs:
                values[name] = normalize(values[name])
        new = object.__new__(type(self))
        new.__dict__.update(values)
        rules = [_RULES_READING[name] for name in kwargs]
        for i in rules[0] if len(rules) == 1 else sorted(set().union(*rules)):
            _RULES[i][1](new)
        return new


def _reject(key, what, value):
    raise ConfigError(f"{key} must be {what}, got {value!r}")


def _not_text(value):
    """value, unless it is a string: float() would parse one as a number, and
    iterating one would read it as a list of its characters (TypeError)."""
    if isinstance(value, (str, bytes)):
        raise TypeError(value)
    return value


def _float_tuple(value):
    """A list of numbers as a tuple of floats."""
    return tuple(float(_not_text(v)) for v in _not_text(value))


def _as_matrix(value):
    """A distance matrix as a tuple of tuples of floats; a number is a 1 x 1 matrix."""
    if isinstance(value, (int, float)):
        return ((float(value),),)
    return tuple(_float_tuple(row) for row in _not_text(value))


def _normalizer(key, kind):
    """The function __post_init__ applies to a matrix or list field."""
    what, convert = {
        "matrix": ("a matrix of numbers, one row per cluster (';' between rows)", _as_matrix),
        "list": ("a list of numbers", _float_tuple),
    }[kind]

    def normalize(value):
        try:
            return convert(value)
        except (TypeError, ValueError, OverflowError):
            _reject(key, what, value)

    return normalize


# -- the config schema ---------------------------------------------------------
#
# key -> (field, kind, value rules).  The kind is how a document spells the
# value; each value rule is (what the value must be, test(value)).

def _is_count(v):
    return isinstance(v, int) and v >= 1


_COUNT = (("an integer >= 1", _is_count),)
_POSITIVE = (("strictly positive and finite", lambda v: 0 < v < math.inf),)
_POSITIVE_ENTRIES = (("strictly positive and finite entries",
                      lambda m: all(0 < d < math.inf for row in m for d in row)),)
_WATTS = (("finite and >= 0", lambda v: 0 <= v < math.inf),)

# A rule on a dBm value's watts calls dbm_to_watt, which returns a positive float or
# raises ConfigError, and so rejects the value.
_SECTION_KEYS = {
    "M": ("M", "int", _COUNT),
    "K": ("K", "int", _COUNT),
    "L": ("L", "int", _COUNT),
    "rician_k1": ("rician_k1", "float", _POSITIVE),
    "rician_k2": ("rician_k2", "float", _POSITIVE),
    "tx_power_dbm": ("tx_power_dbm", "float", (
        ("finite", math.isfinite),
        ("finite and positive in watts", dbm_to_watt),
    )),
    "bandwidth_hz": ("bandwidth_hz", "float", (
        *_POSITIVE,
        ("a bandwidth whose noise power is finite and positive in watts",
         lambda v: dbm_to_watt(noise_power_dbm(v))),
    )),
    "noise_dbm_override": ("noise_dbm_override", "optfloat", (
        ("none or finite", lambda v: v is None or math.isfinite(v)),
        ("none or finite and positive in watts", lambda v: v is None or dbm_to_watt(v)),
    )),
    "geometry.d1": ("d1", "float", _POSITIVE),
    "geometry.d_user": ("d_user", "matrix", _POSITIVE_ENTRIES),
    "geometry.d_direct": ("d_direct", "matrix", _POSITIVE_ENTRIES),
    "geometry.alpha1": ("alpha1", "float", _POSITIVE),
    "geometry.alpha2": ("alpha2", "float", _POSITIVE),
    "geometry.alpha3": ("alpha3", "float", _POSITIVE),
    "noma.power_alloc": ("power_alloc", "list", (
        ("strictly positive entries", lambda a: all(v > 0 for v in a)),
        ("entries that sum to 1", lambda a: abs(sum(a) - 1.0) <= 1e-12),
        ("non-increasing (user 0 is the farthest user)",
         lambda a: all(x >= y - 1e-15 for x, y in zip(a, a[1:]))),
    )),
    "noma.target_rate": ("target_rate", "list",
                         (("finite entries >= 0", lambda r: all(0 <= v < math.inf for v in r)),)),
    "ris.N": ("N", "int", _COUNT),
    "ris.ris_scenario": ("ris_scenario", "str",
                         ((f"one of {RIS_SCENARIOS}", RIS_SCENARIOS.__contains__),)),
    "ris.cancellation_mode": ("cancellation_mode", "str",
                              ((f"one of {CANCELLATION_MODES}", CANCELLATION_MODES.__contains__),)),
    "ris.resolution_bits": ("resolution_bits", "optint",
                            (("none or an integer >= 1", lambda v: v is None or _is_count(v)),)),
    "montecarlo.trials": ("trials", "int", _COUNT),
    "montecarlo.master_seed": ("master_seed", "int", (
        ("an unsigned 64-bit integer", lambda v: isinstance(v, int) and 0 <= v < 2 ** 64),)),
    "power_model.p_bs_watt": ("p_bs_watt", "float", _WATTS),
    "power_model.p_user_watt": ("p_user_watt", "float", _WATTS),
    "power_model.p_ris_watt": ("p_ris_watt", "float", _WATTS),
    "power_model.amp_factor": ("amp_factor", "float",
                               (("finite and >= 1", lambda v: 1.0 <= v < math.inf),)),
}

# The fields __post_init__ normalizes, in the order it normalizes them.
_NORMALIZE = {name: _normalizer(key, kind) for key, (name, kind, _) in _SECTION_KEYS.items()
              if kind in ("matrix", "list")}

_KEY_OF = {name: key for key, (name, _, _) in _SECTION_KEYS.items()}
# The keys of the ScenarioConfig fields without a default, in declaration order.
_REQUIRED = tuple(_KEY_OF[f.name] for f in fields(ScenarioConfig) if f.default is MISSING)
INT_FIELDS = tuple(name for name, kind, _ in _SECTION_KEYS.values() if kind in ("int", "optint"))
# The sweepable fields: every numeric field outside power_model.*.
NUMERIC_FIELDS = tuple(name for key, (name, kind, _) in _SECTION_KEYS.items()
                       if kind in ("int", "optint", "float", "optfloat")
                       and not key.startswith("power_model."))


# -- validation rules ----------------------------------------------------------
#
# validate() runs every rule of _RULES in order and with_updates only the rules
# that read an updated field, so each rule names every field its check reads: a
# value rule its key's field, a cross-field rule the fields listed with it.

def _value_rule(key, name, what, test):
    """(fields read, check) of one value rule of the schema.  A test that raises,
    as for a value of the wrong type, rejects the value."""
    def check(obj):
        value = getattr(obj, name)
        try:
            ok = test(value)
        except (TypeError, ValueError, OverflowError):
            ok = False
        if not ok:
            _reject(key, what, value)

    return (name,), check


def _shape_rule(name):
    """The check that a distance matrix is M x K."""
    def check(cfg):
        mat = getattr(cfg, name)
        if len(mat) != cfg.M or any(len(row) != cfg.K for row in mat):
            _reject(_KEY_OF[name], f"an M x K ({cfg.M} x {cfg.K}) matrix", mat)
    return check


def _length_rule(name):
    """The check that a per-user list has K entries."""
    def check(cfg):
        if len(getattr(cfg, name)) != cfg.K:
            _reject(_KEY_OF[name], f"a list of K={cfg.K} entries", getattr(cfg, name))
    return check


_RULES = (   # (fields read, check(cfg)), in the order validate() runs them
    *(_value_rule(key, name, what, test)
      for key, (name, _, rules) in _SECTION_KEYS.items() for what, test in rules),
    # The cross-field rules run last, so every field they read has passed its value rules.
    (("d_user", "M", "K"), _shape_rule("d_user")),
    (("d_direct", "M", "K"), _shape_rule("d_direct")),
    (("power_alloc", "K"), _length_rule("power_alloc")),
    (("target_rate", "K"), _length_rule("target_rate")),
)
# field name -> indices into _RULES of the rules that read it, in order
_RULES_READING = {f.name: tuple(i for i, (names, _) in enumerate(_RULES) if f.name in names)
                  for f in fields(ScenarioConfig)}


# -- config document parsing / serialization -------------------------------

def _parse_int(text):
    """An integer literal exactly; a float literal (40.0, 1e3) only when it is integral."""
    try:
        return int(text)
    except ValueError:
        f = float(text)
        if not f.is_integer():   # also nan and inf
            raise ValueError(text) from None
        return int(f)


def _parse_scalar(text, kind, key):
    text = text.strip()
    if kind in ("optfloat", "optint") and text.lower() in ("none", ""):
        return None
    try:
        if kind in ("int", "optint"):
            return _parse_int(text)
        if kind in ("float", "optfloat"):
            return float(text)
    except ValueError:
        raise ConfigError(f"{key}: cannot parse {text!r} as a number") from None
    return text.lower()


def load_config(text):
    """Parse a config document into a validated ScenarioConfig."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _SECTION_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        field_name, kind, _ = _SECTION_KEYS[key]
        if kind == "matrix":
            rows = [r for r in val.split(";") if r.strip()]
            values[field_name] = tuple(
                tuple(_parse_scalar(v, "float", key) for v in row.split(",") if v.strip())
                for row in rows
            )
        elif kind == "list":
            values[field_name] = tuple(
                _parse_scalar(v, "float", key) for v in val.split(",") if v.strip()
            )
        else:
            values[field_name] = _parse_scalar(val, kind, key)
    missing = [k for k in _REQUIRED if _SECTION_KEYS[k][0] not in values]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")
    return ScenarioConfig(**values)


def _config_line(key, kind, value):
    """One line of the canonical config document: ``key = value``."""
    if kind == "matrix":
        text = "; ".join(", ".join(repr(v) for v in row) for row in value)
    elif kind == "list":
        text = ", ".join(repr(v) for v in value)
    elif value is None:
        text = "none"
    else:
        text = repr(value) if isinstance(value, float) else str(value)
    return f"{key} = {text}\n"


def serialize_config(cfg):
    """Canonical config document; load_config(serialize_config(cfg)) == cfg."""
    return "".join(_config_line(key, kind, getattr(cfg, name))
                   for key, (name, kind, _) in _SECTION_KEYS.items())


def fingerprint(cfg):
    """Short stable hash of the full configuration (master seed included)."""
    digest = hashlib.sha256(serialize_config(cfg).encode("utf-8")).hexdigest()
    return digest[:12]


def sweep_fingerprint(cfg, variable):
    """fingerprint(point) for configs that differ from cfg in the numeric field
    `variable` alone: cfg's other lines are serialized and hashed once, and each
    call formats only the swept line."""
    key = _KEY_OF[variable]
    kind = _SECTION_KEYS[key][1]
    lines = serialize_config(cfg).splitlines(keepends=True)   # one line per key
    i = list(_SECTION_KEYS).index(key)
    head = hashlib.sha256("".join(lines[:i]).encode("utf-8"))
    tail = "".join(lines[i + 1:]).encode("utf-8")

    def point_fingerprint(point):
        digest = head.copy()
        digest.update(_config_line(key, kind, getattr(point, variable)).encode("utf-8") + tail)
        return digest.hexdigest()[:12]

    return point_fingerprint
