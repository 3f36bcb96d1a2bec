"""Span recorder and replays of scbsim's pipelines through its public calls.

``replay_point`` repeats what ``montecarlo.run_trials`` does for one sweep
point, and ``replay_chunk`` what ``montecarlo._simulate_chunk`` does for one
chunk: the same public calls in the same order, with a span around each call
into a layer.  ``replay_analytic`` rebuilds the CSV of ``scbsim analytic``
through the same closed-form calls.  The worker checks that each replay
reproduces the shipped pipeline bit for bit, which ties every per-layer number
to the code that ships.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

from scbsim import analytics, cli, numerics, pathloss, scenario, validation
from scbsim import beamforming as bf
from scbsim import channel
from scbsim import linkmetrics as lm
from scbsim import montecarlo as mc

BATCH_FIELDS = ("outage", "rate", "oma_outage", "oma_rate", "residue", "eff_gain",
                "feasible", "residual_rel")


class Tracer:
    """Spans, kept in memory and written out at the end.

    A span is [name, start, end, parent index or -1, run id].
    """

    def __init__(self):
        self.spans = []
        self.run_id = "setup"
        self._stack = []

    @contextmanager
    def span(self, name):
        record = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1,
                  self.run_id]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def times(self, run_id):
        """{name: [count, inclusive seconds, self seconds]} over one run's spans."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, rid in self.spans:
            if rid == run_id and parent >= 0:
                covered[parent] += end - start
        out = {}
        for i, (name, start, end, _, rid) in enumerate(self.spans):
            if rid == run_id:
                entry = out.setdefault(name, [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += end - start
                entry[2] += end - start - covered[i]
        return out

    def dump(self):
        return {"spans": self.spans}


@contextmanager
def recorded_special_functions():
    """Record the arguments of every regularized-gamma and E1 call while active.

    Yields {"numerics.gamma": [(s, x), ...], "numerics.e1": [(x,), ...]}.
    Rebinds the names in each module that looks them up, and restores them on
    exit.  The wrappers cost time, so nothing timed runs while they are active.
    """
    gamma, e1 = numerics.lower_incomplete_gamma_regularized, numerics.exp_scaled_e1
    calls = {"numerics.gamma": [], "numerics.e1": []}

    def recorded_gamma(s, x):
        calls["numerics.gamma"].append((s, x))
        return gamma(s, x)

    def recorded_e1(x):
        calls["numerics.e1"].append((x,))
        return e1(x)

    patches = [(numerics, "lower_incomplete_gamma_regularized", recorded_gamma),
               (analytics, "lower_incomplete_gamma_regularized", recorded_gamma),
               (validation, "lower_incomplete_gamma_regularized", recorded_gamma),
               (numerics, "exp_scaled_e1", recorded_e1),
               (analytics, "exp_scaled_e1", recorded_e1)]
    saved = [(module, name, getattr(module, name)) for module, name, _ in patches]
    try:
        for module, name, fn in patches:
            setattr(module, name, fn)
        yield calls
    finally:
        for module, name, fn in saved:
            setattr(module, name, fn)


def replay_chunk(tr, cfg, gains, start, count):
    """``montecarlo._simulate_chunk`` with a span around each layer call."""
    M, K, L = cfg.M, cfg.K, cfg.L
    p, noise = cfg.tx_power_watt, cfg.noise_watt
    with tr.span("montecarlo.draw"):
        flat = mc.draw_chunk_normals(cfg, start, count)
    with tr.span("channel.assemble"):
        w, h, g = channel.assemble_batch(cfg, flat)
    with tr.span("beamforming.build"):
        h_tilde = bf.build_matrix_batch(h, g, gains.l_reflect, cfg.cancellation_mode)
        b = bf.build_target_batch(w, gains.l_direct, cfg.cancellation_mode)
    with tr.span("beamforming.solve"):
        phi, resid, feasible, _ = bf.solve_passive_batch(h_tilde, b)
        norm_b = np.linalg.norm(b, axis=-1)
        residual_rel = np.where(norm_b > 0, resid / np.where(norm_b > 0, norm_b, 1.0), 0.0)
    with tr.span("beamforming.quantize"):
        if cfg.resolution_bits is not None:
            amp, ph = bf.quantize_levels(np.abs(phi), np.angle(phi), cfg.resolution_bits)
            phi = amp * np.exp(1j * ph)
    with tr.span("beamforming.residue"):
        residue = bf.residues_batch(w, h, g, gains, phi)
        eff = np.square(np.abs(bf.desired_columns(w))).sum(axis=-1)
    with tr.span("linkmetrics.sic"):
        outage = np.empty((count, M, K), dtype=bool)
        rate = np.empty((count, M, K))
        oma_outage = np.empty((count, M, K), dtype=bool)
        oma_rate = np.empty((count, M, K))
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


def replay_point(tr, cfg):
    """``montecarlo.run_trials(cfg)`` at one thread, chunk by chunk, as a TrialBatch."""
    trials = cfg.trials
    with tr.span("pathloss.compute_gains"):
        gains = pathloss.compute_gains(cfg)
    M, K = cfg.M, cfg.K
    arrays = (np.empty((trials, M, K), dtype=bool), np.empty((trials, M, K)),
              np.empty((trials, M, K), dtype=bool), np.empty((trials, M, K)),
              np.empty((trials, M, K)), np.empty((trials, M, K)),
              np.empty(trials, dtype=bool), np.empty(trials))
    for start in range(0, trials, mc.CHUNK):
        count = min(mc.CHUNK, trials - start)
        with tr.span("montecarlo.chunk"):
            chunk = replay_chunk(tr, cfg, gains, start, count)
        for full, part in zip(arrays, chunk):
            full[start:start + count] = part
    return mc.TrialBatch(**dict(zip(BATCH_FIELDS, arrays)),
                         failed=np.zeros(trials, dtype=bool),
                         fingerprint=scenario.fingerprint(cfg))


def same_batch(a, b):
    """True when every per-trial array of two TrialBatches matches bit for bit."""
    for name in BATCH_FIELDS + ("failed",):
        x, y = getattr(a, name), getattr(b, name)
        if x.dtype != y.dtype or x.shape != y.shape or x.tobytes() != y.tobytes():
            return False
    return a.fingerprint == b.fingerprint


def replay_analytic(cfg, var, values, metrics):
    """The CSV text ``scbsim analytic`` writes, rebuilt call by call."""
    lines = [cli.CSV_HEADER]
    for value in values:
        point = mc.sweep_config(cfg, var, value)
        fp = scenario.fingerprint(point)

        def emit(m, k, metric, estimate):
            lines.append(cli.csv_row(var, value, m, k, metric, estimate, 0.0, 0, point, fp))

        for metric in metrics:
            if metric == "ER_user":
                for m in range(point.M):
                    inputs = analytics.ClosedFormInputs.from_config(point, m, point.K - 1)
                    emit(m, point.K - 1, metric, analytics.er_user_K(inputs))
            elif metric == "OP_pair":
                for m in range(point.M):
                    pair = 1.0
                    for k in range(point.K):
                        inputs = analytics.ClosedFormInputs.from_config(point, m, k)
                        pair *= analytics.op_closed_form(inputs, k)
                    emit(m, None, metric, pair)
            else:
                fn = analytics.op_closed_form if metric == "OP_user" else analytics.op_oma
                for m in range(point.M):
                    for k in range(point.K):
                        inputs = analytics.ClosedFormInputs.from_config(point, m, k)
                        emit(m, k, metric, fn(inputs, k))
    return "\n".join(lines) + "\n"
