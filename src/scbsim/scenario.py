"""Experiment configuration: validation, unit conversions and the noise model.

A scenario is a frozen dataclass describing one downlink experiment: a base
station with M transmit antennas serving M clusters of K NOMA users, each
with L receive antennas, assisted by an N-element reflecting surface.  All
large-scale geometry, NOMA power/rate allocation, surface operating mode and
Monte Carlo bookkeeping live here.  Instances are immutable and safe to share
across worker threads.

Config files use a flat ``key = value`` grammar with dotted section prefixes
(``geometry.*``, ``noma.*``, ``ris.*``, ``montecarlo.*``, ``power_model.*``).
Lists are comma separated, matrices use ``;`` between rows, ``#`` starts a
comment.  Distances are meters, powers dBm except the power model (watts).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import MISSING, dataclass, field, fields, replace

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
class PowerModel:
    """Static power draw used by the energy-efficiency metric (all watts)."""

    p_bs_watt: float = 10.0    # base-station circuitry
    p_user_watt: float = 0.1   # per user terminal
    p_ris_watt: float = 0.01   # per reflecting element controller
    amp_factor: float = 1.2    # inverse amplifier efficiency, multiplies tx power

    def validate(self):
        for name in ("p_bs_watt", "p_user_watt", "p_ris_watt"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"power_model.{name} must be finite and >= 0")
        if not 1.0 <= self.amp_factor < math.inf:
            raise ConfigError("power_model.amp_factor must be finite and >= 1")


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
    power_model: PowerModel = field(default_factory=PowerModel)
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
        A TypeError, an unknown field name among them, is a ConfigError.
        """
        try:
            if not kwargs.keys() <= _RULES_READING.keys():
                return replace(self, **kwargs)   # raises the unknown name's TypeError
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
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc


def _float_tuple(value):
    return tuple(float(v) for v in value)


def _as_matrix(value):
    """Normalize a distance matrix to a tuple of tuples of floats."""
    if isinstance(value, (int, float)):
        return ((float(value),),)
    rows = []
    for row in value:
        if isinstance(row, (int, float)):
            raise ConfigError(
                "distance matrices need one row per cluster (use ';' between rows)"
            )
        rows.append(tuple(float(v) for v in row))
    return tuple(rows)


# -- validation rules ----------------------------------------------------------
#
# validate() runs every rule of _RULES in order and with_updates only the rules
# that read an updated field, so each rule names every field its check reads.

def _count_rule(name):
    def check(cfg):
        v = getattr(cfg, name)
        if not (isinstance(v, int) and v >= 1):
            raise ConfigError(f"{name} must be an integer >= 1, got {v!r}")
    return (name,), check


def _positive_rule(name):
    def check(cfg):
        v = getattr(cfg, name)
        if not 0 < v < math.inf:
            raise ConfigError(f"{name} must be strictly positive and finite, got {v!r}")
    return (name,), check


def _distance_rules(label):
    def shape(cfg):
        mat = getattr(cfg, label)
        if len(mat) != cfg.M or any(len(row) != cfg.K for row in mat):
            raise ConfigError(
                f"geometry.{label} must be an M x K ({cfg.M} x {cfg.K}) matrix; "
                "every per-user distance must be given explicitly"
            )

    def entries(cfg):
        if any(not 0 < d < math.inf for row in getattr(cfg, label) for d in row):
            raise ConfigError(f"geometry.{label} entries must be strictly positive and finite")

    return ((label, "M", "K"), shape), ((label,), entries)


def _alloc_length(cfg):
    if len(cfg.power_alloc) != cfg.K:
        raise ConfigError(f"noma.power_alloc must have K={cfg.K} entries")


def _rate_length(cfg):
    if len(cfg.target_rate) != cfg.K:
        raise ConfigError(f"noma.target_rate must have K={cfg.K} entries")


def _alloc_positive(cfg):
    if any(not a > 0 for a in cfg.power_alloc):
        raise ConfigError("noma.power_alloc entries must be strictly positive")


def _alloc_sum(cfg):
    if abs(sum(cfg.power_alloc) - 1.0) > 1e-12:
        raise ConfigError("noma.power_alloc: power allocation must sum to 1")


def _alloc_order(cfg):
    alloc = cfg.power_alloc
    if any(a < b - 1e-15 for a, b in zip(alloc, alloc[1:])):
        raise ConfigError("noma.power_alloc must be non-increasing (user 0 is the farthest user)")


def _rate_values(cfg):
    if any(not 0 <= r < math.inf for r in cfg.target_rate):
        raise ConfigError("noma.target_rate entries must be finite and >= 0")


def _ris_scenario(cfg):
    if cfg.ris_scenario not in RIS_SCENARIOS:
        raise ConfigError(f"ris.ris_scenario must be one of {RIS_SCENARIOS}")


def _cancellation_mode(cfg):
    if cfg.cancellation_mode not in CANCELLATION_MODES:
        raise ConfigError(f"ris.cancellation_mode must be one of {CANCELLATION_MODES}")


def _resolution_bits(cfg):
    bits = cfg.resolution_bits
    if bits is not None and not (isinstance(bits, int) and bits >= 1):
        raise ConfigError("ris.resolution_bits must be an integer >= 1 when present")


def _tx_power(cfg):
    if not math.isfinite(cfg.tx_power_dbm):
        raise ConfigError("tx_power_dbm must be finite")


def _noise_override(cfg):
    if cfg.noise_dbm_override is not None and not math.isfinite(cfg.noise_dbm_override):
        raise ConfigError("noise_dbm_override must be finite")


def _power_model(cfg):
    cfg.power_model.validate()


def _master_seed(cfg):
    if not (isinstance(cfg.master_seed, int) and 0 <= cfg.master_seed < 2 ** 64):
        raise ConfigError("montecarlo.master_seed must be an unsigned 64-bit integer")


_RULES = (   # (fields read, check(cfg)), in the order validate() runs them
    *(_count_rule(name) for name in ("M", "K", "L", "N")),
    *(_positive_rule(name)
      for name in ("d1", "alpha1", "alpha2", "alpha3", "rician_k1", "rician_k2")),
    *_distance_rules("d_user"),
    *_distance_rules("d_direct"),
    (("power_alloc", "K"), _alloc_length),
    (("target_rate", "K"), _rate_length),
    (("power_alloc",), _alloc_positive),
    (("power_alloc",), _alloc_sum),
    (("power_alloc",), _alloc_order),   # no K: the length rule before it has checked it
    (("target_rate",), _rate_values),
    (("ris_scenario",), _ris_scenario),
    (("cancellation_mode",), _cancellation_mode),
    (("resolution_bits",), _resolution_bits),
    (("tx_power_dbm",), _tx_power),
    _positive_rule("bandwidth_hz"),
    (("noise_dbm_override",), _noise_override),
    (("power_model",), _power_model),
    _count_rule("trials"),
    (("master_seed",), _master_seed),
)
# field name -> indices into _RULES of the rules that read it, in order
_RULES_READING = {f.name: tuple(i for i, (names, _) in enumerate(_RULES) if f.name in names)
                  for f in fields(ScenarioConfig)}


# -- config document parsing / serialization -------------------------------

_SECTION_KEYS = {
    "M": ("M", "int"),
    "K": ("K", "int"),
    "L": ("L", "int"),
    "rician_k1": ("rician_k1", "float"),
    "rician_k2": ("rician_k2", "float"),
    "tx_power_dbm": ("tx_power_dbm", "float"),
    "bandwidth_hz": ("bandwidth_hz", "float"),
    "noise_dbm_override": ("noise_dbm_override", "optfloat"),
    "geometry.d1": ("d1", "float"),
    "geometry.d_user": ("d_user", "matrix"),
    "geometry.d_direct": ("d_direct", "matrix"),
    "geometry.alpha1": ("alpha1", "float"),
    "geometry.alpha2": ("alpha2", "float"),
    "geometry.alpha3": ("alpha3", "float"),
    "noma.power_alloc": ("power_alloc", "list"),
    "noma.target_rate": ("target_rate", "list"),
    "ris.N": ("N", "int"),
    "ris.ris_scenario": ("ris_scenario", "str"),
    "ris.cancellation_mode": ("cancellation_mode", "str"),
    "ris.resolution_bits": ("resolution_bits", "optint"),
    "montecarlo.trials": ("trials", "int"),
    "montecarlo.master_seed": ("master_seed", "int"),
    "power_model.p_bs_watt": ("p_bs_watt", "float"),
    "power_model.p_user_watt": ("p_user_watt", "float"),
    "power_model.p_ris_watt": ("p_ris_watt", "float"),
    "power_model.amp_factor": ("amp_factor", "float"),
}

_POWER_MODEL_FIELDS = tuple(f.name for f in fields(PowerModel))
# The fields __post_init__ normalizes, in the order it normalizes them.
_NORMALIZE = {name: {"matrix": _as_matrix, "list": _float_tuple}[kind]
              for name, kind in _SECTION_KEYS.values() if kind in ("matrix", "list")}

_KEY_OF = {name: key for key, (name, _) in _SECTION_KEYS.items()}
# The keys of the ScenarioConfig fields without a default, in declaration order.
_REQUIRED = tuple(_KEY_OF[f.name] for f in fields(ScenarioConfig)
                  if f.default is MISSING and f.default_factory is MISSING)
INT_FIELDS = tuple(name for name, kind in _SECTION_KEYS.values() if kind in ("int", "optint"))
NUMERIC_FIELDS = tuple(name for name, kind in _SECTION_KEYS.values()
                       if kind in ("int", "optint", "float", "optfloat")
                       and name not in _POWER_MODEL_FIELDS)


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
        field_name, kind = _SECTION_KEYS[key]
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
    pm_kwargs = {k: values.pop(k) for k in _POWER_MODEL_FIELDS if k in values}
    if pm_kwargs:
        values["power_model"] = PowerModel(**pm_kwargs)
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
    return "".join(_config_line(key, kind, getattr(
        cfg.power_model if name in _POWER_MODEL_FIELDS else cfg, name))
        for key, (name, kind) in _SECTION_KEYS.items())


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
