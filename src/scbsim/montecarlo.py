"""Deterministic parallel Monte Carlo engine.

Reproducibility contract: trial i draws every random number from an SFC64
stream whose state is derived from ``trial_key(master_seed, i)`` (a splitmix64
hash mix, see below), so each trial is a pure function of (config,
master_seed, i).  Trials are processed in fixed-size chunks; worker threads
only fill disjoint slices of preallocated per-trial arrays and every
reduction runs over the assembled arrays in trial order (numpy pairwise
summation).  Results are therefore bit-identical for any worker count.

The engine runs in two stages.  ``surface_stage`` draws, assembles, builds,
solves, quantizes and takes residues, chunk by chunk on the thread pool, and
keeps per trial only the effective gains, residues, feasibility, solver
residual and failure mark.  ``link_stage`` turns those into SIC and OMA
outcomes for one config.  Only the link stage reads the LINK_KEYS (transmit
power and noise), so ``sweep_runner`` builds a sweep's surfaces once over them
and runs the link stage per point; ``run_trials`` is the two stages in a row.

Work units of the surface stage: a chunk (CHUNK trials) is one thread-pool
task and the unit the salvage path reruns trial by trial.  Every chunk runs
on the pool, at one thread as at eight, and writes its trials straight into
its slice of the batch's arrays; the salvage writes through the same slices.
Pool threads do not inherit the caller's np.errstate, which is a context
variable, so an errstate for the stage has to be set in the worker.  Inside
a chunk, trials run in blocks of ``block_trials(cfg)``, about BLOCK_BYTES of
standard normals, so that a block's arrays stay in cache from draw to
residue.  Each chunk allocates one workspace sized for a single block (the
normals, the fading arrays w, h, g and the system matrix) and every block
reuses it, which keeps the allocation, and the page faults, the same from
pass to pass.  In aggregate mode the system matrix is g scaled in place, so
g shares the system's memory and the residues are taken from the system and
target the solver used.  The block size depends on the config only, never on
the thread count, and no trial's values depend on the block or chunk it is
computed in.

Key derivation (fixed for cross-language reproduction):

    splitmix64(x): x += 0x9E3779B97F4A7C15;
                   x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9;
                   x = (x ^ (x >> 27)) * 0x94D049BB133111EB;
                   return x ^ (x >> 31)         (all mod 2^64)
    trial_key(seed, i) = splitmix64(seed ^ splitmix64(i))

``trial_key`` is the scalar reference; ``trial_keys`` computes the same keys
for a range of trials on uint64 arrays.

Each trial's SFC64 generator (Doty-Humphrey's small fast chaotic generator,
numpy's ``SFC64``) starts from the 256-bit state, in numpy's word order

    a = trial_key(seed, i),  b = splitmix64(a),  c = splitmix64(b),  counter = 1

written directly, with no SeedSequence and no warm-up rounds, and the trial
draws one flat block of standard normals from it (numpy's ziggurat), consumed
in the documented channel layout.  SFC64's reference seeding sets a = b = c
to one seed word and runs 12 rounds to mix that structure away.  Here a, b and
c are successive splitmix64 outputs, each a full-avalanche bijection of the
one before, so the state has no such structure and the first output is used
as is.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from . import beamforming as bf
from . import linkmetrics as lm
from .analytics import energy_efficiency
from .channel import assemble_batch, empty_fading, normals_per_trial
from .pathloss import compute_gains
from .scenario import AGGREGATE, INT_FIELDS, ScenarioConfig, fingerprint

CHUNK = 2048          # fixed chunk size; must not depend on the thread count
BLOCK_BYTES = 2 << 20  # standard normals per cache block (block_trials), in bytes
# The only config keys the link stage reads and the surface stage does not.
LINK_KEYS = ("tx_power_dbm", "bandwidth_hz", "noise_dbm_override")
_MASK64 = (1 << 64) - 1


def splitmix64(x):
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def trial_key(master_seed, trial_index):
    """64-bit key of one trial: the first word of its SFC64 state."""
    return splitmix64((master_seed ^ splitmix64(trial_index)) & _MASK64)


def trial_keys(master_seed, start, count):
    """trial_key(master_seed, i) for i in [start, start+count), as a uint64 array.

    splitmix64 on uint64 arrays, whose arithmetic wraps mod 2^64 as the masked
    Python integers of the scalar reference trial_key do.
    """
    index = np.arange(start, start + count, dtype=np.uint64)
    return splitmix64(np.uint64(master_seed) ^ splitmix64(index))


def _sfc64_state(words):
    """numpy's SFC64 state with the (a, b, c, counter) words given, nothing buffered."""
    return {"bit_generator": "SFC64", "state": {"state": words}, "has_uint32": 0, "uinteger": 0}


def trial_rng(master_seed, trial_index):
    """Fresh generator positioned at the start of a trial's private stream."""
    a = trial_key(master_seed, trial_index)
    b = splitmix64(a)
    bitgen = np.random.SFC64(0)
    bitgen.state = _sfc64_state(np.array([a, b, splitmix64(b), 1], dtype=np.uint64))
    return np.random.Generator(bitgen)


@dataclass(frozen=True)
class EstimatorResult:
    """One Monte Carlo estimate and its standard error."""

    metric: str
    m: int | None          # cluster index, None for global metrics
    k: int | None          # user index, None for cluster/global metrics
    estimate: float
    stderr: float
    trials: int
    fingerprint: str


@dataclass(frozen=True)
class TrialBatch:
    """Per-trial outcome arrays for a run (trial axis first)."""

    outage: np.ndarray        # (T, M, K) bool
    rate: np.ndarray          # (T, M, K) unconditional log2(1 + SINR_kk)
    oma_outage: np.ndarray    # (T, M, K) bool
    oma_rate: np.ndarray      # (T, M, K)
    residue: np.ndarray       # (T, M, K)
    eff_gain: np.ndarray      # (T, M, K)
    feasible: np.ndarray      # (T,) bool, continuous solve had all beta_n <= 1
    residual_rel: np.ndarray  # (T,) solver residual / ||B||
    failed: np.ndarray        # (T,) bool, numeric failure markers
    fingerprint: str

    @property
    def trials(self):
        return self.outage.shape[0]

    @property
    def failures(self):
        return int(self.failed.sum())


@dataclass(frozen=True)
class SurfaceBatch:
    """Per-trial surface-stage outcome arrays (trial axis first) and their config."""

    eff_gain: np.ndarray      # (T, M, K)
    residue: np.ndarray       # (T, M, K)
    feasible: np.ndarray      # (T,) bool
    residual_rel: np.ndarray  # (T,)
    failed: np.ndarray        # (T,) bool; these trials' arrays are zeroed
    cfg: ScenarioConfig       # the config the surfaces were built for


def draw_chunk_normals(cfg, start, count, out=None):
    """Flat standard normals for trials [start, start+count), one row each.

    Reuses a single SFC64/Generator pair and sets its state to the trial's
    words before every row; each row is bit-identical to an independent draw
    from trial_rng(master_seed, i).  out, when given, is a C-contiguous
    (count, normals_per_trial) float64 array that is filled and returned.
    """
    n = normals_per_trial(cfg)
    if out is None:
        out = np.empty((count, n))
    a = trial_keys(cfg.master_seed, start, count)
    b = splitmix64(a)
    words = np.stack([a, b, splitmix64(b), np.ones_like(a)], axis=1)   # (count, 4)
    bitgen = np.random.SFC64(0)
    gen = np.random.Generator(bitgen)
    # a state dict that the setter only reads: the words are the one entry a trial changes
    state = _sfc64_state(None)
    for i, row in enumerate(words):
        state["state"]["state"] = row
        bitgen.state = state
        gen.standard_normal(n, out=out[i])
    return out


def block_trials(cfg):
    """Trials per cache block: about BLOCK_BYTES of standard normals, at most a chunk."""
    return min(CHUNK, max(1, BLOCK_BYTES // (8 * normals_per_trial(cfg))))


def cancel(cfg, gains, w, h, g, out=None):
    """Build, solve, (on a finite-resolution surface) quantize and take residues.

    Returns (h_tilde, b, phi, feasible, residual_rel, residue).  phi is what
    the surface applies, quantized when cfg.resolution_bits is set;
    feasibility and the solver residual / ||b|| refer to the continuous solve,
    because quantized levels are within [0, 1) by construction.  The residues
    are the aggregate mismatch under phi, taken from the solved system in
    aggregate mode.  out is the build_matrix_batch buffer h_tilde is written
    to, when given.
    """
    h_tilde = bf.build_matrix_batch(h, g, gains.l_reflect, cfg.cancellation_mode, out)
    b = bf.build_target_batch(w, gains.l_direct, cfg.cancellation_mode)
    norm_b = np.linalg.norm(b, axis=-1)
    phi, resid, feasible, _ = bf.solve_passive_batch(h_tilde, b, norm_b)
    residual_rel = np.where(norm_b > 0, resid / np.where(norm_b > 0, norm_b, 1.0), 0.0)
    if cfg.resolution_bits is not None:
        phi = bf.quantize_surface(phi, cfg.resolution_bits)
    residue = (bf.aggregate_residues(h_tilde, b, phi, cfg.M, cfg.K)
               if cfg.cancellation_mode == AGGREGATE else bf.residues_batch(w, h, g, gains, phi))
    return h_tilde, b, phi, feasible, residual_rel, residue


def _surface_chunk(cfg, gains, start, count, out=None):
    """(eff_gain, residue, feasible, residual_rel) of trials [start, start+count).

    Runs the chunk block by block (block_trials) through one workspace sized
    for a single block: the normals, the fading arrays and the system matrix.
    In aggregate mode the system is g scaled in place, row (m, k, l) from
    g[m, k, l], so g is assembled straight into the system's memory and the
    residues come from the system the solver used.  out, when given, is the
    tuple of four arrays with count rows that is filled and returned.
    """
    M, K, L, N = cfg.M, cfg.K, cfg.L, cfg.N
    aggregate = cfg.cancellation_mode == AGGREGATE
    block = min(count, block_trials(cfg))
    normals = np.empty((block, normals_per_trial(cfg)))
    system = np.empty((block, bf.system_rows(M, K, L, cfg.cancellation_mode), N),
                      dtype=np.complex128)
    shared_g = system.reshape(block, M, K, L, N) if aggregate and M > 1 else None
    fading = empty_fading(cfg, block, shared_g)

    eff, residue, feasible, residual_rel = out or (
        np.empty((count, M, K)), np.empty((count, M, K)), np.empty(count, dtype=bool),
        np.empty(count))
    for s in range(0, count, block):
        n = min(block, count - s)
        flat = draw_chunk_normals(cfg, start + s, n, out=normals[:n])
        w, h, g = assemble_batch(cfg, flat, out=tuple(a[:n] for a in fading))
        *_, feasible[s:s + n], residual_rel[s:s + n], residue[s:s + n] = cancel(
            cfg, gains, w, h, g, out=system[:n])
        eff[s:s + n] = bf.effective_gains(w)
    return eff, residue, feasible, residual_rel


def surface_stage(cfg, trials=None, threads=None):
    """Draw, assemble, build, solve, quantize and residue for a batch of trials.

    Nothing here reads a LINK_KEYS value, so one SurfaceBatch serves every
    config that differs from cfg only in those keys.  Every chunk is a task
    on a pool of ``threads`` workers, also when that is 1, and fills its
    slice of the batch's arrays in place; the result is the same for any
    thread count.  The workers do not inherit the caller's np.errstate (a
    context variable), so an errstate meant for the stage must be set
    inside the worker.
    """
    trials = cfg.trials if trials is None else int(trials)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    threads = threads or min(8, os.cpu_count() or 1)
    gains = compute_gains(cfg)
    arrays = (np.empty((trials, cfg.M, cfg.K)), np.empty((trials, cfg.M, cfg.K)),
              np.empty(trials, dtype=bool), np.empty(trials))
    failed = np.zeros(trials, dtype=bool)

    def work(start):
        count = min(CHUNK, trials - start)
        try:
            _surface_chunk(cfg, gains, start, count, tuple(a[start:start + count] for a in arrays))
        except np.linalg.LinAlgError:
            # salvage the chunk trial by trial; zero and mark unrecoverable ones
            for i in range(start, start + count):
                try:
                    _surface_chunk(cfg, gains, i, 1, tuple(a[i:i + 1] for a in arrays))
                except np.linalg.LinAlgError:
                    failed[i] = True
                    for a in arrays:
                        a[i] = 0

    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(work, range(0, trials, CHUNK)))
    return SurfaceBatch(*arrays, failed=failed, cfg=cfg)


def _surface_keys(cfg):
    return tuple((f.name, getattr(cfg, f.name)) for f in fields(cfg)
                 if f.name not in LINK_KEYS + ("trials",))


def link_stage(cfg, surfaces):
    """SIC and OMA outcomes under cfg's link keys for every trial of a SurfaceBatch.

    Failed trials get zero rates and no outage.  The batch shares the
    surfaces' arrays.  Raises ValueError when the surfaces were built for a
    config that differs from cfg outside LINK_KEYS (and the trial count).
    """
    if _surface_keys(cfg) != _surface_keys(surfaces.cfg):
        raise ValueError("surfaces were built for another config (beyond its link keys)")
    K, L = cfg.K, cfg.L
    p = cfg.tx_power_watt
    noise = cfg.noise_watt
    gains = compute_gains(cfg)
    eff, residue = surfaces.eff_gain, surfaces.residue

    outage = np.empty(eff.shape, dtype=bool)
    rate = np.empty(eff.shape)
    for k in range(K):   # every cluster's user k at once
        outage[..., k], rate[..., k] = lm.sic_chain(
            eff[..., k], residue[..., k], gains.l_direct[:, k], p, cfg.power_alloc,
            cfg.target_rate, k, noise, L)
    snr, oma_outage = lm.oma_snr(eff, gains.l_direct, p, noise, L, K,
                                 np.asarray(cfg.target_rate))
    oma_rate = np.log2(1.0 + snr) / K
    failed = surfaces.failed
    if failed.any():
        outage[failed], rate[failed] = False, 0.0
        oma_outage[failed], oma_rate[failed] = False, 0.0

    return TrialBatch(
        outage=outage, rate=rate, oma_outage=oma_outage, oma_rate=oma_rate,
        residue=residue, eff_gain=eff, feasible=surfaces.feasible,
        residual_rel=surfaces.residual_rel, failed=failed, fingerprint=fingerprint(cfg),
    )


def run_trials(cfg, trials=None, threads=None):
    """Simulate a batch of trials; deterministic for any thread count."""
    return link_stage(cfg, surface_stage(cfg, trials, threads))


def sweep_runner(trials=None, threads=None):
    """run(point) -> TrialBatch of ``trials`` trials (point.trials when None); run
    builds surfaces again only when point differs from the last surfaces' config
    beyond LINK_KEYS, or in trial count, and drops those first."""
    last = {}   # the last surfaces, under their (trial count, surface keys)

    def run(point):
        count = point.trials if trials is None else int(trials)
        key = (count, _surface_keys(point))
        if key not in last:
            last.clear()   # free the old surfaces before the new ones are allocated
            last[key] = surface_stage(point, count, threads)
        return link_stage(point, last[key])

    return run


def _mean(sample, cfg):
    n = sample.size
    est = float(sample.mean())
    se = float(sample.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return est, se


def _proportion(sample, cfg):
    phat = float(sample.mean())
    return phat, float(np.sqrt(phat * (1.0 - phat) / sample.size))


def _sum_rate(rate, cfg):
    """Mean cluster sum rate from a (trials, K) rate slice."""
    return _mean(rate.sum(axis=1), cfg)


def _energy_efficiency(rate, cfg):
    return tuple(energy_efficiency(v, cfg) for v in _sum_rate(rate, cfg))


def _pair_outage(outage, cfg):
    """Fraction of trials in which every user of the cluster is in outage."""
    return _proportion(outage.all(axis=1), cfg)


# metric -> (TrialBatch field, scope, estimator(sample, cfg) -> (estimate, stderr)).
# A "user" metric gets one row per (cluster, user) from the field's (trials,)
# sample, a "cluster" metric one row per cluster from its (trials, K) slice,
# and the "global" feasibility rate one row over every trial that did not fail.
_ESTIMATORS = {
    "OP_user": ("outage", "user", _proportion),
    "OP_pair": ("outage", "cluster", _pair_outage),
    "ER_user": ("rate", "user", _mean),
    "SE": ("rate", "cluster", _sum_rate),
    "EE": ("rate", "cluster", _energy_efficiency),
    "residue_mean": ("residue", "user", _mean),
    "feasibility_rate": ("feasible", "global", _proportion),
    "OP_oma": ("oma_outage", "user", _proportion),
}
METRICS = tuple(_ESTIMATORS)


def estimates_from_batch(cfg, batch, metric, feasible_only=False):
    """Estimator results for one metric from an existing trial batch."""
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; choose from {METRICS}")
    field, scope, estimator = _ESTIMATORS[metric]
    keep = ~batch.failed
    if not keep.any():
        raise ValueError(f"all {keep.size} trials failed numerically; no {metric} estimate")
    if feasible_only and scope != "global":   # the feasibility rate reads every trial
        keep = keep & batch.feasible
        if not keep.any():
            raise ValueError("no usable trials survived the feasibility filter")
    data = getattr(batch, field)
    if scope == "global":
        cells = [(None, None, data[keep])]
    elif scope == "cluster":
        cells = [(m, None, data[keep, m]) for m in range(cfg.M)]
    else:
        cells = [(m, k, data[keep, m, k]) for m in range(cfg.M) for k in range(cfg.K)]
    out = []
    for m, k, sample in cells:
        est, se = estimator(sample, cfg)
        out.append(EstimatorResult(
            metric=metric, m=m, k=k, estimate=est, stderr=se, trials=len(sample),
            fingerprint=batch.fingerprint))
    return out


def sweep_config(cfg, variable, value):
    """Config copy with one swept variable replaced (validated).

    An integer variable takes an integral value as an int; any other value
    goes to the variable's rule as it is, which rejects it instead of
    truncating it, so the value a CSV row reports is the value that was
    simulated.  A float variable takes the value as a float.
    """
    if variable not in INT_FIELDS:
        value = float(value)
    elif not isinstance(value, float) or value.is_integer():
        value = int(value)
    return cfg.with_updates(**{variable: value})
