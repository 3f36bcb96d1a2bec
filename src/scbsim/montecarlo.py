"""Deterministic parallel Monte Carlo engine.

Reproducibility contract: trial i draws every random number from a Philox
stream keyed by ``trial_key(master_seed, i)`` (a splitmix64 hash mix, see
below), so each trial is a pure function of (config, master_seed, i).  Trials
are processed in fixed-size chunks; worker threads only fill disjoint slices
of preallocated per-trial arrays and every reduction runs over the assembled
arrays in trial order (numpy pairwise summation).  Results are therefore
bit-identical for any worker count.

Key derivation (fixed for cross-language reproduction):

    splitmix64(x): x += 0x9E3779B97F4A7C15;
                   x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9;
                   x = (x ^ (x >> 27)) * 0x94D049BB133111EB;
                   return x ^ (x >> 31)         (all mod 2^64)
    trial_key(seed, i) = splitmix64(seed ^ splitmix64(i))

The 64-bit key seeds a Philox4x64 counter-based generator (counter zero),
from which the trial draws one flat block of standard normals consumed in
the documented channel layout.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import beamforming as bf
from . import linkmetrics as lm
from .channel import assemble_batch, draw_realization, normals_per_trial
from .pathloss import compute_gains
from .scenario import ConfigError, fingerprint

CHUNK = 2048          # fixed chunk size; must not depend on the thread count
_MASK64 = (1 << 64) - 1

METRICS = ("OP_user", "OP_pair", "ER_user", "SE", "EE",
           "residue_mean", "feasibility_rate", "OP_oma")

# metrics estimated per (cluster, user) / per cluster / globally
_PER_USER = ("OP_user", "ER_user", "residue_mean", "OP_oma")
_PER_CLUSTER = ("OP_pair", "SE", "EE")


def splitmix64(x):
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def trial_key(master_seed, trial_index):
    """64-bit Philox key of one trial."""
    return splitmix64((master_seed ^ splitmix64(trial_index)) & _MASK64)


def trial_rng(master_seed, trial_index):
    """Fresh generator positioned at the start of a trial's private stream."""
    return np.random.Generator(np.random.Philox(key=trial_key(master_seed, trial_index)))


@dataclass(frozen=True)
class EstimatorResult:
    """One Monte Carlo estimate with normal-approximation confidence interval."""

    metric: str
    m: int | None          # cluster index, None for global metrics
    k: int | None          # user index, None for cluster/global metrics
    estimate: float
    stderr: float
    ci_low: float
    ci_high: float
    trials: int
    fingerprint: str


@dataclass(frozen=True)
class SweepSpec:
    """A one-dimensional parameter sweep request."""

    variable: str
    values: tuple
    metrics: tuple

    def __post_init__(self):
        if not self.values:
            raise ValueError("sweep needs at least one value")
        if any(v is None or not np.isfinite(v) for v in self.values):
            raise ValueError("sweep values must be finite")
        unknown = [m for m in self.metrics if m not in METRICS]
        if unknown:
            raise ValueError(f"unknown metrics {unknown}; choose from {METRICS}")


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


def draw_chunk_normals(cfg, start, count):
    """Flat standard normals for trials [start, start+count), one row each.

    Reuses a single Philox/Generator pair and resets its state to the trial
    key before every row; each row is bit-identical to an independent draw
    from trial_rng(master_seed, i).
    """
    n = normals_per_trial(cfg)
    out = np.empty((count, n))
    bitgen = np.random.Philox(key=0)
    gen = np.random.Generator(bitgen)
    state = bitgen.state
    key = state["state"]["key"]
    counter = state["state"]["counter"]
    for i in range(count):
        k = trial_key(cfg.master_seed, start + i)
        key[0] = k & _MASK64
        key[1] = 0
        counter[:] = 0
        state["buffer_pos"] = 4
        state["has_uint32"] = 0
        state["uinteger"] = 0
        bitgen.state = state
        out[i] = gen.standard_normal(n)
    return out


def _metrics_from_channels(cfg, gains, w, h, g):
    """Vectorized per-trial metrics for a batch of channel draws."""
    M, K, L = cfg.M, cfg.K, cfg.L
    p = cfg.tx_power_watt
    noise = cfg.noise_watt

    h_tilde = bf.build_matrix_batch(h, g, gains.l_reflect, cfg.cancellation_mode)
    b = bf.build_target_batch(w, gains.l_direct, cfg.cancellation_mode)
    phi, resid, feasible, _ = bf.solve_passive_batch(h_tilde, b)
    norm_b = np.linalg.norm(b, axis=-1)
    residual_rel = np.where(norm_b > 0, resid / np.where(norm_b > 0, norm_b, 1.0), 0.0)

    # feasibility always refers to the continuous solve: quantized levels are
    # within [0, 1) by construction, so they carry no information
    if cfg.resolution_bits is not None:
        amp, ph = bf.quantize_levels(np.abs(phi), np.angle(phi), cfg.resolution_bits)
        phi = amp * np.exp(1j * ph)

    residue = bf.residues_batch(w, h, g, gains, phi)
    eff = np.square(np.abs(bf.desired_columns(w))).sum(axis=-1)   # (T, M, K)

    T = w.shape[0]
    outage = np.empty((T, M, K), dtype=bool)
    rate = np.empty((T, M, K))
    oma_outage = np.empty((T, M, K), dtype=bool)
    oma_rate = np.empty((T, M, K))
    for m in range(M):
        for k in range(K):
            gmk = eff[:, m, k]
            rmk = residue[:, m, k]
            lb = gains.l_direct[m, k]
            out_mk, _ = lm.sic_chain(gmk, rmk, lb, p, cfg.power_alloc,
                                     cfg.target_rate, k, noise, L)
            sinr_own = lm.sinr_sic(gmk, rmk, lb, p, cfg.power_alloc, k, noise, L)
            outage[:, m, k] = out_mk
            rate[:, m, k] = np.log2(1.0 + sinr_own)
            snr, oout = lm.oma_snr(gmk, lb, p, noise, L, K, cfg.target_rate[k])
            oma_outage[:, m, k] = oout
            oma_rate[:, m, k] = np.log2(1.0 + snr) / K
    return outage, rate, oma_outage, oma_rate, residue, eff, feasible, residual_rel


def _simulate_chunk(cfg, gains, start, count):
    flat = draw_chunk_normals(cfg, start, count)
    w, h, g = assemble_batch(cfg, flat)
    return _metrics_from_channels(cfg, gains, w, h, g)


def run_trials(cfg, trials=None, threads=None):
    """Simulate a batch of trials; deterministic for any thread count."""
    trials = cfg.trials if trials is None else int(trials)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    threads = threads or min(8, os.cpu_count() or 1)
    gains = compute_gains(cfg)
    M, K = cfg.M, cfg.K

    outage = np.empty((trials, M, K), dtype=bool)
    rate = np.empty((trials, M, K))
    oma_outage = np.empty((trials, M, K), dtype=bool)
    oma_rate = np.empty((trials, M, K))
    residue = np.empty((trials, M, K))
    eff = np.empty((trials, M, K))
    feasible = np.empty(trials, dtype=bool)
    residual_rel = np.empty(trials)
    failed = np.zeros(trials, dtype=bool)

    def work(start):
        count = min(CHUNK, trials - start)
        sl = slice(start, start + count)
        try:
            res = _simulate_chunk(cfg, gains, start, count)
        except (np.linalg.LinAlgError, FloatingPointError):
            # salvage the chunk trial by trial; mark unrecoverable ones
            for i in range(start, start + count):
                one = slice(i, i + 1)
                try:
                    res1 = _simulate_chunk(cfg, gains, i, 1)
                except (np.linalg.LinAlgError, FloatingPointError):
                    failed[i] = True
                    outage[one], rate[one] = False, 0.0
                    oma_outage[one], oma_rate[one] = False, 0.0
                    residue[one], eff[one] = 0.0, 0.0
                    feasible[one], residual_rel[one] = False, 0.0
                    continue
                (outage[one], rate[one], oma_outage[one], oma_rate[one],
                 residue[one], eff[one], feasible[one], residual_rel[one]) = res1
            return
        (outage[sl], rate[sl], oma_outage[sl], oma_rate[sl],
         residue[sl], eff[sl], feasible[sl], residual_rel[sl]) = res

    starts = range(0, trials, CHUNK)
    if threads <= 1:
        for s in starts:
            work(s)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(work, starts))

    return TrialBatch(
        outage=outage, rate=rate, oma_outage=oma_outage, oma_rate=oma_rate,
        residue=residue, eff_gain=eff, feasible=feasible,
        residual_rel=residual_rel, failed=failed, fingerprint=fingerprint(cfg),
    )


def run_trial(cfg, trial_index):
    """One end-to-end realization as a LinkMetrics record (diagnostics included)."""
    gains = compute_gains(cfg)
    rng = trial_rng(cfg.master_seed, trial_index)
    ch = draw_realization(cfg, rng)
    system = bf.build_effective_matrix(ch, gains, cfg.cancellation_mode)
    pb = bf.solve_passive(system)
    solve_feasible = pb.feasible
    if cfg.resolution_bits is not None:
        pb = bf.quantize(pb, cfg.resolution_bits)

    M, K, L = cfg.M, cfg.K, cfg.L
    p, noise = cfg.tx_power_watt, cfg.noise_watt
    eff = np.empty((M, K))
    residue = np.empty((M, K))
    sinr = np.full((M, K, K), np.nan)
    rate = np.empty((M, K))
    outage = np.empty((M, K), dtype=bool)
    oma_rate = np.empty((M, K))
    oma_outage = np.empty((M, K), dtype=bool)
    exact = np.empty((M, K))
    for m in range(M):
        for k in range(K):
            eff[m, k] = lm.effective_gain(ch, m, k)
            residue[m, k] = bf.residue(ch, gains, pb, m, k)
            lb = gains.l_direct[m, k]
            for v in range(k + 1):
                sinr[m, k, v] = lm.sinr_sic(eff[m, k], residue[m, k], lb, p,
                                            cfg.power_alloc, v, noise, L)
            out_mk, _ = lm.sic_chain(eff[m, k], residue[m, k], lb, p,
                                     cfg.power_alloc, cfg.target_rate, k, noise, L)
            outage[m, k] = out_mk
            rate[m, k] = np.log2(1.0 + sinr[m, k, k])
            snr, oout = lm.oma_snr(eff[m, k], lb, p, noise, L, K, cfg.target_rate[k])
            oma_rate[m, k] = np.log2(1.0 + snr) / K
            oma_outage[m, k] = oout
            exact[m, k] = lm.exact_per_symbol_sinr(ch, gains, pb, m, k, p,
                                                   cfg.power_alloc, noise)
    return lm.LinkMetrics(
        eff_gain=eff, residue=residue, sinr=sinr, rate=rate, outage=outage,
        oma_rate=oma_rate, oma_outage=oma_outage, feasible=solve_feasible,
        residual_norm=pb.residual_norm, exact_sinr=exact,
    )


def _mean_result(metric, m, k, sample, fp):
    n = sample.size
    est = float(sample.mean())
    se = float(sample.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return _result(metric, m, k, est, se, n, fp)


def _proportion_result(metric, m, k, sample, fp):
    n = sample.size
    phat = float(sample.mean())
    se = float(np.sqrt(phat * (1.0 - phat) / n))
    return _result(metric, m, k, phat, se, n, fp)


def _result(metric, m, k, est, se, n, fp):
    return EstimatorResult(
        metric=metric, m=m, k=k, estimate=est, stderr=se,
        ci_low=est - 1.96 * se, ci_high=est + 1.96 * se, trials=n, fingerprint=fp,
    )


def estimates_from_batch(cfg, batch, metric, feasible_only=False):
    """Estimator results for one metric from an existing trial batch."""
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; choose from {METRICS}")
    keep = ~batch.failed
    if feasible_only:
        keep = keep & batch.feasible
    n = int(keep.sum())
    if n < 1:
        raise ValueError("no usable trials survived the feasibility filter")
    fp = batch.fingerprint
    M, K = cfg.M, cfg.K
    out = []
    if metric == "OP_user":
        for m in range(M):
            for k in range(K):
                out.append(_proportion_result(metric, m, k, batch.outage[keep, m, k], fp))
    elif metric == "OP_oma":
        for m in range(M):
            for k in range(K):
                out.append(_proportion_result(metric, m, k, batch.oma_outage[keep, m, k], fp))
    elif metric == "ER_user":
        for m in range(M):
            for k in range(K):
                out.append(_mean_result(metric, m, k, batch.rate[keep, m, k], fp))
    elif metric == "residue_mean":
        for m in range(M):
            for k in range(K):
                out.append(_mean_result(metric, m, k, batch.residue[keep, m, k], fp))
    elif metric == "SE":
        for m in range(M):
            out.append(_mean_result(metric, m, None, batch.rate[keep, m, :].sum(axis=1), fp))
    elif metric == "EE":
        pm = cfg.power_model
        denom = (pm.p_bs_watt + K * pm.p_user_watt
                 + cfg.tx_power_watt * pm.amp_factor + cfg.N * pm.p_ris_watt)
        for m in range(M):
            se_res = _mean_result(metric, m, None, batch.rate[keep, m, :].sum(axis=1), fp)
            out.append(_result(metric, m, None, se_res.estimate / denom,
                               se_res.stderr / denom, n, fp))
    elif metric == "OP_pair":
        for m in range(M):
            users = [_proportion_result("OP_user", m, k, batch.outage[keep, m, k], fp)
                     for k in range(K)]
            est = float(np.prod([u.estimate for u in users]))
            # delta method on the product of independent proportions
            var = 0.0
            for k in range(K):
                others = np.prod([u.estimate for j, u in enumerate(users) if j != k])
                var += (others * users[k].stderr) ** 2
            out.append(_result(metric, m, None, est, float(np.sqrt(var)), n, fp))
    elif metric == "feasibility_rate":
        out.append(_proportion_result(metric, None, None,
                                      batch.feasible[~batch.failed], fp))
    return out


def estimate(cfg, metric, trials=None, threads=None, feasible_only=False):
    """Monte Carlo estimates of one metric (one result per cluster/user)."""
    trials = cfg.trials if trials is None else int(trials)
    if trials < 100:
        raise ValueError("need at least 100 trials for a meaningful estimate")
    batch = run_trials(cfg, trials, threads)
    return estimates_from_batch(cfg, batch, metric, feasible_only)


_INT_SWEEP_VARS = ("N", "L", "M", "K", "resolution_bits", "trials")


def sweep_config(cfg, variable, value):
    """Config copy with one swept variable replaced (validated).

    Integer variables reject non-integral values instead of truncating them,
    so the value a CSV row reports is the value that was simulated.
    """
    if variable in _INT_SWEEP_VARS:
        if not float(value).is_integer():
            raise ConfigError(f"{variable} must be an integer, got {value!r}")
        value = int(value)
    else:
        value = float(value)
    return cfg.with_updates(**{variable: value})


def run_sweep(cfg, sweep, threads=None, feasible_only=False):
    """Estimate the requested metrics at every sweep value.

    Returns (rows, failures): rows are (value, EstimatorResult) in sweep
    order; per-point failures are recorded as (value, message) and the sweep
    continues.
    """
    rows = []
    failures = []
    for value in sweep.values:
        try:
            point_cfg = sweep_config(cfg, sweep.variable, value)
            batch = run_trials(point_cfg, point_cfg.trials, threads)
            if batch.failures:
                failures.append(
                    (value, f"{batch.failures} trials failed numerically (excluded)"))
            for metric in sweep.metrics:
                for res in estimates_from_batch(point_cfg, batch, metric, feasible_only):
                    rows.append((value, res))
        except Exception as exc:   # noqa: BLE001 - per-point isolation is the contract
            failures.append((value, f"{type(exc).__name__}: {exc}"))
    return rows, failures
