"""Cross-validation checks: simulation against closed forms and oracles.

Each check returns a CheckResult and is consumed both by the ``validate``
CLI command and by the acceptance test suite.  Tolerances are fixed here.
Every Monte Carlo check takes its trial counts as arguments: the acceptance
tests pass the full counts, and ``run_checks`` holds the defaults of the
``validate`` command and alone shrinks them for ``--quick``.  A check that
compares several transmit powers on one config builds its trials' surfaces
once and runs only the link stage per power (``_power_points``).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import montecarlo as mc
from .analytics import (
    InfeasibleRatesError,
    PowerFreeTerms,
    diversity_order,
    er_ceiling_user_k,
    er_from_threshold_scale,
    high_snr_slope,
)
from .beamforming import effective_gains, system_rows
from .channel import assemble_batch
from .numerics import (
    adaptive_quadrature,
    exponential_integral_ei,
    gamma_cdf,
    ks_critical,
    ks_statistic,
    lower_incomplete_gamma_regularized,
    quadrature_semi_infinite,
)
from .pathloss import TABLE2_GOLDEN, table2
from .scenario import ConfigError

PASS, FAIL, SKIP = "PASS", "FAIL", "SKIP"


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str          # PASS | FAIL | SKIP
    detail: str
    seconds: float
    infeasible: bool = False   # skipped: the allocation cannot sustain the target rates

    @property
    def passed(self):
        return self.status != FAIL


def _finish(name, t0, ok, detail):
    return CheckResult(name, PASS if ok else FAIL, detail, time.perf_counter() - t0)


# -- 1: reference feasibility table -----------------------------------------

def check_table2():
    t0 = time.perf_counter()
    got = tuple(row[4] for row in table2())
    ok = got == TABLE2_GOLDEN
    return _finish("table2", t0, ok, f"minimal N = {got}, golden = {TABLE2_GOLDEN}")


# -- 2: special functions vs quadrature --------------------------------------

def check_special_functions():
    t0 = time.perf_counter()
    worst = 0.0
    for s in range(1, 9):
        for x in (0.1, 1.0, 10.0):
            def density(t, s=s):
                t = np.maximum(t, 1e-300)
                return np.exp((s - 1) * np.log(t) - t - math.lgamma(s))
            quad = adaptive_quadrature(density, 0.0, x, tol=1e-13)
            worst = max(worst, abs(lower_incomplete_gamma_regularized(s, x) - quad))
    ei_quad = -quadrature_semi_infinite(lambda t: np.exp(-(1.0 + t)) / (1.0 + t), tol=1e-13)
    ei_err = abs(exponential_integral_ei(-1.0) - ei_quad)
    ok = worst < 1e-9 and ei_err < 1e-10
    return _finish(
        "special_functions", t0, ok,
        f"max |P(s,x) - quadrature| = {worst:.2e} (tol 1e-9), "
        f"|Ei(-1) - quadrature| = {ei_err:.2e} (tol 1e-10)",
    )


# -- 3: effective channel gain distribution ----------------------------------

def check_channel_statistics(cfg, draws):
    """KS test of user (0, 0)'s effective gain against Gamma(L, 1), L in {1, 2, 4}.

    Draws and assembles mc.CHUNK trials at a time."""
    t0 = time.perf_counter()
    details = []
    ok = True
    for L in (1, 2, 4):
        sub = cfg.with_updates(L=L, N=4, master_seed=cfg.master_seed + L)
        eff = np.empty(draws)
        for start in range(0, draws, mc.CHUNK):
            n = min(mc.CHUNK, draws - start)
            w, _, _ = assemble_batch(sub, mc.draw_chunk_normals(sub, start, n))
            eff[start:start + n] = effective_gains(w)[:, 0, 0]
        stat = ks_statistic(eff, lambda x, L=L: gamma_cdf(x, L))
        crit = ks_critical(draws, alpha=0.01)
        ok &= stat < crit
        details.append(f"L={L}: D={stat:.5f} crit={crit:.5f}")
    return _finish("channel_statistics", t0, ok, "; ".join(details))


# -- 4: Monte Carlo vs closed-form outage ------------------------------------

def _power_points(cfg, trials, threads, powers_dbm):
    """(point, batch) per transmit power: cfg at that power and its link-stage
    batch, every batch from one surface batch built for cfg."""
    surfaces = mc.surface_stage(cfg, trials, threads)
    for p_dbm in powers_dbm:
        point = cfg.with_updates(tx_power_dbm=float(p_dbm))
        yield point, mc.link_stage(point, surfaces)


def _feasible(value):
    """A closed-form value, None where the target rates are infeasible."""
    if value is None:
        raise InfeasibleRatesError("power allocation cannot sustain the target rates")
    return value


def _simulated_vs_closed(name, cfg, trials, powers_dbm, threads, metric, se_rule, where):
    """|MC - closed| <= 3 se_rule(result, closed) for every user with a closed form
    of the metric, in every cluster and at every power; where(result) labels the
    worst user.  One batch of ideal surfaces serves every power."""
    t0 = time.perf_counter()
    worst = 0.0
    worst_at = ""
    ideal = cfg.with_updates(resolution_bits=None)
    terms = PowerFreeTerms.from_config(ideal)
    for sub, batch in _power_points(ideal, trials, threads, powers_dbm):
        closed_forms = terms.closed_forms(sub.tx_power_watt, sub.noise_watt, (metric,))
        for r in mc.estimates_from_batch(sub, batch, metric):
            if (metric, r.k) not in closed_forms[r.m]:   # ER_user: the nearest user only
                continue
            closed = _feasible(closed_forms[r.m][metric, r.k])
            pulls = abs(r.estimate - closed) / se_rule(r, closed)
            if pulls > worst:
                worst, worst_at = pulls, f"p={sub.tx_power_dbm} dBm {where(r)}"
    label = metric.split("_")[0]
    return _finish(name, t0, worst <= 3.0,
                   f"worst |{label}_MC - {label}_closed| = {worst:.2f} SE at {worst_at} "
                   f"({trials} trials/point, limit 3 SE)")


def check_op_vs_closed_form(cfg, trials, powers_dbm=(20.0, 25.0, 30.0, 35.0),
                            threads=None):
    """|OP_MC - OP_closed| <= 3 SE at every power point and user.

    With zero observed events the estimator SE collapses, so the comparison
    scale is the binomial SE under whichever probability is larger.
    """
    def se_rule(r, closed):
        pstar = min(max(r.estimate, closed, 1.0 / trials), 1.0 - 1.0 / trials)
        return max(r.stderr, math.sqrt(pstar * (1.0 - pstar) / trials))

    return _simulated_vs_closed("op_vs_closed_form", cfg, trials, powers_dbm, threads,
                                "OP_user", se_rule, lambda r: f"user ({r.m},{r.k})")


def _invert_closed_op(op, target):
    """Transmit power (watts) at which op(p_watt), a closed-form OP, hits target."""
    lo, hi = 1e-9, 1e9
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if op(mid) > target:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


# -- 5: diversity order -------------------------------------------------------

def check_diversity_order(cfg, trials, threads=None):
    """Closed-form OP slope within 10% of L; simulated within 15% of L."""
    t0 = time.perf_counter()
    details = []
    ok = True
    for L in (1, 2, 3):
        rows = max(1, system_rows(cfg.M, cfg.K, L, cfg.cancellation_mode))
        sub = cfg.with_updates(L=L, N=2 * rows, resolution_bits=None,
                               master_seed=cfg.master_seed + 100 + L)
        terms, noise_watt = PowerFreeTerms.from_config(sub), sub.noise_watt

        def op00(p_watt):
            return _feasible(terms.op_user(0, 0, p_watt, noise_watt))

        p_lo = _invert_closed_op(op00, 8e-3)
        p_hi = _invert_closed_op(op00, 2.5e-4)
        closed_curve = [(p, op00(p)) for p in (p_lo, p_hi)]
        slope_closed = diversity_order(closed_curve)

        sim_curve = []
        powers_dbm = [10.0 * math.log10(p) + 30.0 for p in (p_lo, p_hi)]
        for p, (point, batch) in zip((p_lo, p_hi),
                                     _power_points(sub, trials, threads, powers_dbm)):
            res = mc.estimates_from_batch(point, batch, "OP_user")
            op00 = next(r for r in res if r.m == 0 and r.k == 0)
            sim_curve.append((p, op00.estimate))
        try:
            slope_sim = diversity_order(sim_curve)
        except ValueError as exc:   # too few simulated outage events for a fit
            ok = False
            details.append(f"L={L}: closed {slope_closed:.3f}, simulated fit failed ({exc})")
            continue

        ok_l = abs(slope_closed - L) <= 0.10 * L and abs(slope_sim - L) <= 0.15 * L
        ok &= ok_l
        details.append(f"L={L}: closed {slope_closed:.3f}, simulated {slope_sim:.3f}")
    return _finish("diversity_order", t0, ok,
                   "; ".join(details) + f" ({trials} trials/point)")


# -- 6: ergodic rate ----------------------------------------------------------

def check_er_closed_vs_quadrature():
    """Closed-form rate against quadrature of the survival integrand."""
    t0 = time.perf_counter()
    worst = 0.0
    for L in (1, 2, 3, 4):
        for c in (1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0):
            def integrand(x, L=L, c=c):
                surv = 1.0 - gamma_cdf(c * np.asarray(x), L)
                return surv / (1.0 + np.asarray(x))
            quad = quadrature_semi_infinite(integrand, tol=1e-10) / math.log(2.0)
            worst = max(worst, abs(er_from_threshold_scale(c, L) - quad))
    ok = worst < 1e-6
    return _finish("er_closed_vs_quadrature", t0, ok,
                   f"max |ER_closed - quadrature| = {worst:.2e} (tol 1e-6)")


def check_er_vs_closed_form(cfg, trials, powers_dbm=(20.0, 30.0, 40.0), threads=None):
    """|ER_MC - ER_closed| <= 3 SE for the nearest user at each power."""
    return _simulated_vs_closed("er_vs_closed_form", cfg, trials, powers_dbm, threads,
                                "ER_user", lambda r, _: max(r.stderr, 1e-12),
                                lambda r: f"cluster {r.m}")


# -- 7: high-SNR slopes, ceilings and floors ----------------------------------

def check_high_snr_slopes(cfg, trials, threads=None):
    t0 = time.perf_counter()
    k_near = cfg.K - 1
    details = []

    # (a) closed-form nearest-user rate slope over 40 -> 50 dBm
    curve = []
    terms = PowerFreeTerms.from_config(cfg)
    for p_dbm in (40.0, 50.0):
        sub = cfg.with_updates(tx_power_dbm=p_dbm)
        closed_forms = terms.closed_forms(sub.tx_power_watt, sub.noise_watt, ("ER_user",))
        curve.append((sub.tx_power_watt, closed_forms[0]["ER_user", k_near]))
    slope_ideal = high_snr_slope(curve)
    ok_a = 0.95 <= slope_ideal <= 1.0
    details.append(f"closed ER slope {slope_ideal:.4f} in [0.95, 1]")

    # (b) simulated far-user rate pinned at its ceiling at 50 dBm
    ceiling = er_ceiling_user_k(cfg.power_alloc, 0)
    sub50 = cfg.with_updates(tx_power_dbm=50.0, resolution_bits=None)
    er50 = mc.estimates_from_batch(sub50, mc.run_trials(sub50, trials, threads),
                                   "ER_user")
    er_far = next(r for r in er50 if r.m == 0 and r.k == 0).estimate
    ok_b = abs(er_far - ceiling) <= 0.01 * ceiling
    details.append(f"far-user ER {er_far:.4f} vs ceiling {ceiling:.4f} (1%)")

    # (c) 3-bit surface: rate ceiling and outage floor between 40 and 50 dBm
    ni_er, ni_op = {}, {}
    three_bit = cfg.with_updates(resolution_bits=3)
    for sub, batch in _power_points(three_bit, trials, threads, (40.0, 50.0)):
        p_dbm = sub.tx_power_dbm
        ni_er[p_dbm] = next(r.estimate for r in mc.estimates_from_batch(sub, batch, "ER_user")
                            if r.m == 0 and r.k == k_near)
        ni_op[p_dbm] = {r.k: r.estimate for r in mc.estimates_from_batch(sub, batch, "OP_user")
                        if r.m == 0}
    slope_ni = (ni_er[50.0] - ni_er[40.0]) / math.log2(10.0)
    ok_c = abs(slope_ni) < 0.1
    details.append(f"3-bit ER slope {slope_ni:.4f} (<0.1)")

    ok_d = True
    for k in range(cfg.K):
        lo, hi = ni_op[40.0][k], ni_op[50.0][k]
        if lo == 0.0 and hi == 0.0:
            details.append(f"3-bit OP floor user {k}: no events")
            continue
        ratio = hi / max(lo, 1e-300)
        ok_d &= 0.5 <= ratio <= 2.0
        details.append(f"3-bit OP user {k}: {lo:.4f} -> {hi:.4f} (factor {ratio:.2f})")

    ok = ok_a and ok_b and ok_c and ok_d
    return _finish("high_snr_slopes", t0, ok, "; ".join(details))


# -- 8: cancellation residues --------------------------------------------------

def check_residue(cfg, trials_exact, trials_bits, threads=None):
    t0 = time.perf_counter()
    details = []

    # (a) exact cancellation whenever N covers the rank bound
    worst_rel = 0.0
    rows, rows_l3 = (max(1, system_rows(cfg.M, cfg.K, L, cfg.cancellation_mode))
                     for L in (cfg.L, 3))
    variants = [
        cfg.with_updates(N=rows, resolution_bits=None),
        cfg.with_updates(resolution_bits=None),
        cfg.with_updates(L=3, N=4 * rows_l3, resolution_bits=None),
    ]
    for sub in variants:
        batch = mc.run_trials(sub, trials_exact, threads)
        worst_rel = max(worst_rel, float(batch.residual_rel.max()))
    ok_a = worst_rel <= 1e-10
    details.append(f"max ideal residual = {worst_rel:.2e} rel (tol 1e-10)")

    # (b) mean residue non-increasing in resolution bits (same seeds)
    means = []
    for bits in (3, 4, 5, 6):
        sub = cfg.with_updates(resolution_bits=bits)
        batch = mc.run_trials(sub, trials_bits, threads)
        means.append(float(batch.residue[~batch.failed].mean()))
    ok_b = all(means[i + 1] <= means[i] for i in range(len(means) - 1))
    details.append("mean residue by bits " +
                   " -> ".join(f"{v:.3e}" for v in means))

    ok = ok_a and ok_b
    return _finish("residue", t0, ok, "; ".join(details))


# -- 9: NOMA vs OMA pair outage -------------------------------------------------

def check_noma_vs_oma(cfg, p_dbm=30.0):
    """Closed-form pair outage comparison at one power point."""
    t0 = time.perf_counter()
    sub = cfg.with_updates(tx_power_dbm=float(p_dbm))
    closed_forms = PowerFreeTerms.from_config(sub).closed_forms(
        sub.tx_power_watt, sub.noise_watt, ("OP_pair", "OP_oma"))[0]
    noma = _feasible(closed_forms["OP_pair", None])
    oma = math.prod(closed_forms["OP_oma", k] for k in range(sub.K))
    ok = noma < oma
    return _finish(
        "noma_vs_oma", t0, ok,
        f"pair OP at {p_dbm} dBm: NOMA {noma:.4e} vs OMA {oma:.4e} "
        f"(requires NOMA < OMA)",
    )


# -- 10: determinism across worker counts ---------------------------------------

def check_determinism(cfg, trials):
    """simulate CSV must be byte-identical for 1 and 8 worker threads."""
    import tempfile
    from pathlib import Path

    from . import cli

    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "det.cfg"
        from .scenario import serialize_config
        cfg_path.write_text(serialize_config(cfg.with_updates(trials=trials)))
        outs = []
        for threads in (1, 8):
            out = Path(tmp) / f"t{threads}.csv"
            code = cli.main([
                "simulate", "--config", str(cfg_path), "--out", str(out),
                "--sweep", "tx_power_dbm=20,30", "--metrics", "OP_user,ER_user,SE",
                "--threads", str(threads),
            ])
            if code != 0:
                return _finish("determinism", t0, False, f"simulate exited {code}")
            outs.append(out.read_bytes())
    ok = outs[0] == outs[1]
    return _finish("determinism", t0, ok,
                   f"CSV bytes identical across 1 vs 8 threads: {ok} "
                   f"({trials} trials, 2 sweep points)")


# -- runner ----------------------------------------------------------------------

CLOSED_FORM_CHECKS = ("op_vs_closed_form", "er_vs_closed_form")
TRIALS_FLOOR = 2000   # fewest Monte Carlo trials per point a check runs


def run_checks(cfg, names=None, quick=False, threads=None, trials=None):
    """Run the named checks (all by default) against a config.

    A check whose closed form the config's allocation cannot sustain
    (InfeasibleRatesError) is a SKIP marked ``infeasible``, and the remaining
    checks run.  Each Monte Carlo check runs its default per-point trial count, or
    ``trials`` (at least TRIALS_FLOOR) in its place; the exact-residual and
    determinism runs cap it at 20000 and 50000.  ``quick`` then divides the
    count by 10, to no fewer than TRIALS_FLOOR trials.
    """
    if trials is not None and trials < TRIALS_FLOOR:
        raise ConfigError(f"validation needs at least {TRIALS_FLOOR} trials per point, "
                          f"got {trials}")

    def count(default, cap=math.inf):
        per_point = min(default if trials is None else int(trials), cap)
        return max(TRIALS_FLOOR, int(per_point * 0.1)) if quick else per_point

    registry = {
        "table2": check_table2,
        "special_functions": check_special_functions,
        "channel_statistics": lambda: check_channel_statistics(cfg, count(100000)),
        "op_vs_closed_form": lambda: check_op_vs_closed_form(cfg, count(250000),
                                                             threads=threads),
        "diversity_order": lambda: check_diversity_order(cfg, count(600000), threads),
        "er_closed_vs_quadrature": check_er_closed_vs_quadrature,
        "er_vs_closed_form": lambda: check_er_vs_closed_form(cfg, count(100000),
                                                             threads=threads),
        "high_snr_slopes": lambda: check_high_snr_slopes(cfg, count(100000), threads),
        "residue": lambda: check_residue(cfg, count(2000, cap=20000), count(10000), threads),
        "noma_vs_oma": lambda: check_noma_vs_oma(cfg),
        "determinism": lambda: check_determinism(cfg, count(5000, cap=50000)),
    }
    names = list(registry) if names is None else list(names)
    unknown = [n for n in names if n not in registry]
    if unknown:
        raise ConfigError(f"unknown checks {unknown}; choose from {list(registry)}")
    results = []
    for name in names:
        if cfg.resolution_bits is not None and name in CLOSED_FORM_CHECKS:
            results.append(CheckResult(
                name, SKIP,
                "closed forms describe the ideal surface only; finite-resolution "
                "configs skip this comparison", 0.0,
            ))
            continue
        t0 = time.perf_counter()
        try:
            results.append(registry[name]())
        except InfeasibleRatesError as exc:   # no closed form to compare: the next check runs
            results.append(CheckResult(name, SKIP, f"no closed form to compare: {exc}",
                                       time.perf_counter() - t0, infeasible=True))
    return results
