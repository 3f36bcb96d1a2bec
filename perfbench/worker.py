"""Measuring process for one workload: timed passes, traced passes and gates.

run.py starts this file in a child process with BLAS threads pinned, so that
import time is measured fresh and peak memory belongs to one workload.

    setup    import, load_config, compute_gains and the first-chunk warm-up
    measure  untraced passes (mc_*: at threads=1 and threads=nproc): end-to-end metrics
    trace    untraced passes interleaved with traced replays: per-layer metrics

Every mode writes one JSON object to --result.
"""

import time

_T_START = time.perf_counter()   # setup_s counts importing numpy and scbsim from here

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from scbsim import analytics, cli, numerics, pathloss, scenario, validation  # noqa: E402
from scbsim import montecarlo as mc  # noqa: E402
from scbsim.channel import normals_per_trial  # noqa: E402

import replay  # noqa: E402
import workloads  # noqa: E402

_T_IMPORTED = time.perf_counter()

MIN_ROUNDS = 2
RESIDUAL_TOL = 1e-10      # criterion 08: exact cancellation at or above the rank bound
PULL_LIMIT = 4.0          # |MC - closed form| in standard errors
GOLDEN_RTOL = 1e-12
GAMMA_SHAPES = (1, 2, 4)  # the KS path of check_channel_statistics
GAMMA_SAMPLE = 20000      # sample points per shape
GAMMA_ATOL = 1e-12        # gamma_cdf against the integer-shape series
KS_ALPHA = 1e-6           # KS level of the sample check; rare enough to never trip by chance
REFERENCE_ITERS = 30000   # iterations of the host-speed reference loop
REFERENCE_S = 0.010       # the reference loop's duration that closed-form timings are scaled to

if workloads.CHUNK != mc.CHUNK:   # trial counts and the per-chunk metrics assume it
    raise RuntimeError(f"workloads.CHUNK is {workloads.CHUNK}, montecarlo.CHUNK {mc.CHUNK}")


def _no_span(name):
    return contextlib.nullcontext()


class Run:
    """One workload at one seed: its inputs, gate tallies and operation counts."""

    def __init__(self, args):
        self.w = workloads.WORKLOADS[args.workload]
        self.seed = args.seed
        self.seconds = args.seconds
        self.tmp = Path(args.tmp)
        self.cfg_path = Path(args.config)
        self.text = self.cfg_path.read_text(encoding="utf-8")
        self.nproc = len(os.sched_getaffinity(0))
        self.var, self.values = cli.parse_sweep(self.w.sweep)
        self.metrics = tuple(self.w.metrics.split(","))
        self.gates = {}          # name -> [checks, failures, first failure detail]
        self.attempted = 0
        self.failed = 0
        self.peak_rss_mb = None
        self.samples = {}        # label -> per-pass seconds, reported with the result

    def cfg(self):
        """The config ``scbsim --config FILE --seed SEED`` runs with."""
        return scenario.load_config(self.text).with_updates(master_seed=self.seed)

    def gate(self, name, ok, detail=""):
        entry = self.gates.setdefault(name, [0, 0, ""])
        entry[0] += 1
        if not ok:
            entry[1] += 1
            entry[2] = entry[2] or detail
        self.count(1, 0 if ok else 1)
        return ok

    def count(self, attempted, failed=0):
        self.attempted += attempted
        self.failed += failed

    def rounds(self, one_round):
        """Call one_round(i) until --seconds have passed, at least MIN_ROUNDS times."""
        end = time.perf_counter() + self.seconds
        i = 0
        while i < MIN_ROUNDS or time.perf_counter() < end:
            one_round(i)
            i += 1

    def note_peak_rss(self):
        """Take peak_rss_mb, the process's high-water mark, once: after the
        first pass at one thread.  At threads=nproc the mark shifts by up to 10%
        with how the threads' chunks overlap in time."""
        if self.peak_rss_mb is None:
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- Monte Carlo workloads ----------------------------------------------------

def simulate(run, threads):
    """One untraced ``scbsim simulate`` pass; returns (seconds, CSV bytes)."""
    out = run.tmp / f"simulate-{threads}.csv"
    t0 = time.perf_counter()
    code = cli.main(["simulate", "--config", str(run.cfg_path), "--seed", str(run.seed),
                     "--sweep", run.w.sweep, "--metrics", run.w.metrics,
                     "--threads", str(threads), "--out", str(out)])
    seconds = time.perf_counter() - t0
    run.gate("simulate exits 0", code == 0, f"exit {code} at threads={threads}")
    data = out.read_bytes()
    rows = list(csv.DictReader(data.decode().splitlines()))
    points = len({row["sweep_value"] for row in rows})
    run.count(len(run.values), len(run.values) - points)
    return seconds, data


def mc_rounds(run, times, after=None):
    """Timed simulate passes at threads=1 and threads=nproc; gates their CSV bytes.

    Which thread count runs first alternates by round.
    """
    first = []

    def one_round(i):
        order = (("one", 1), ("all", run.nproc))
        for label, threads in order if i % 2 == 0 else order[::-1]:
            seconds, data = simulate(run, threads)
            if label == "one":
                run.note_peak_rss()
            times[label].append(seconds)
            if not first:
                first.append(data)
            run.gate("simulate CSV bytes identical across threads and passes", data == first[0],
                     f"differs at threads={threads} in round {i}")
        if after:
            after(i)

    run.rounds(one_round)
    return first[0]


def check_engine(run, points, batches, csv_data):
    """Gates on one batch per sweep point, and the CSV they must reproduce.

    No trial fails, cancellation is exact, ``estimates_from_batch`` rebuilds
    the simulate CSV byte for byte, and the estimates agree with the closed
    forms (closed_form_gate).
    """
    lines = [cli.CSV_HEADER]
    for value, point, batch in zip(run.values, points, batches):
        run.count(batch.trials, batch.failures)
        run.gate("no trial fails", batch.failures == 0, f"{batch.failures} at {value}")
        rel = float(batch.residual_rel.max())
        run.gate("max residual_rel <= 1e-10", rel <= RESIDUAL_TOL, f"{rel:.3e} at {value}")
        for metric in run.metrics:
            lines += [cli.csv_row(run.var, value, r.m, r.k, r.metric, r.estimate, r.stderr,
                                  r.trials, point, r.fingerprint)
                      for r in mc.estimates_from_batch(point, batch, metric)]
    run.gate("estimates_from_batch reproduces the simulate CSV",
             ("\n".join(lines) + "\n").encode() == csv_data)
    closed_form_gate(run, points, batches)


def closed_form_gate(run, points, batches):
    """Every OP_user, and the nearest user's ER_user, within 4 SE of the closed forms.

    The closed forms hold for an ideal surface.  A quantized workload is
    therefore gated on an untimed run of the same points, trials and seed with
    resolution_bits=None, which goes through the same draw, assemble, build
    and solve code.  The OP standard error is floored as in criterion 04
    (binomial SE under the larger of estimate, closed form and 1/trials), so
    zero-event points compare on a sensible scale.
    """
    worst, worst_at = 0.0, "nowhere"
    for value, point, batch in zip(run.values, points, batches):
        if point.resolution_bits is not None:
            point = point.with_updates(resolution_bits=None)
            batch = mc.run_trials(point, point.trials, threads=run.nproc)
            run.count(batch.trials, batch.failures)
        for r in mc.estimates_from_batch(point, batch, "OP_user"):
            closed = analytics.op_closed_form(
                analytics.ClosedFormInputs.from_config(point, r.m, r.k), r.k)
            n = r.trials
            pstar = min(max(r.estimate, closed, 1.0 / n), 1.0 - 1.0 / n)
            pulls = abs(r.estimate - closed) / max(r.stderr, math.sqrt(pstar * (1 - pstar) / n))
            if pulls > worst:
                worst, worst_at = pulls, f"OP_user ({r.m},{r.k}) at {value}"
        for r in mc.estimates_from_batch(point, batch, "ER_user"):
            if r.k == point.K - 1:
                closed = analytics.er_user_K(
                    analytics.ClosedFormInputs.from_config(point, r.m, r.k))
                pulls = abs(r.estimate - closed) / max(r.stderr, 1e-12)
                if pulls > worst:
                    worst, worst_at = pulls, f"ER_user ({r.m},{r.k}) at {value}"
    run.gate("OP_user and ER_user within 4 SE of the closed forms", worst <= PULL_LIMIT,
             f"{worst:.2f} SE at {worst_at}")


def shipped_batches(run):
    cfg = run.cfg()
    points = [mc.sweep_config(cfg, run.var, v) for v in run.values]
    return points, [mc.run_trials(p, p.trials, threads=run.nproc) for p in points]


def median_rates(times, label, work):
    return statistics.median(work / s for s in times[label])


def measure_mc(run):
    times = run.samples = {"one": [], "all": []}
    csv_data = mc_rounds(run, times)
    points, batches = shipped_batches(run)
    check_engine(run, points, batches, csv_data)
    trials = sum(p.trials for p in points)
    return {"trials_per_s": median_rates(times, "all", trials),
            "trials_per_s_1t": median_rates(times, "one", trials),
            "rows_per_s": median_rates(times, "all", csv_data.count(b"\n") - 1),
            "wall_s": statistics.median(times["all"])}


def traced_mc_pass(run, tr):
    """Replay every sweep point of the workload with spans; returns (seconds, batches)."""
    batches = []
    t0 = time.perf_counter()
    with tr.span("scenario.load_config"):
        cfg = run.cfg()
    for value in run.values:
        with tr.span("montecarlo.sweep_point"):
            point = mc.sweep_config(cfg, run.var, value)
            batch = replay.replay_point(tr, point)
            with tr.span("montecarlo.estimate"):
                for metric in run.metrics:
                    mc.estimates_from_batch(point, batch, metric)
        batches.append(batch)
    return time.perf_counter() - t0, batches


def trace_mc(run, tr):
    """Per-layer run of a Monte Carlo workload.

    Returns (metrics, {per-call span: calls per loop}, counted gamma/E1 calls,
    the computed count they must equal).  No per-call loop runs here.
    """
    times = {"one": [], "all": []}
    traced = []
    last = []

    def traced_pass(i):
        tr.run_id = f"pass{i}"
        seconds, batches = traced_mc_pass(run, tr)
        traced.append(seconds)
        last[:] = batches

    csv_data = mc_rounds(run, times, after=traced_pass)
    points, batches = shipped_batches(run)
    run.gate("traced replay matches run_trials bit for bit",
             all(replay.same_batch(a, b) for a, b in zip(last, batches)))
    with replay.recorded_special_functions() as calls:
        check_engine(run, points, batches, csv_data)
    counted = (len(calls["numerics.gamma"]), len(calls["numerics.e1"]))
    # the closed-form gate: one op_closed_form per user, one er_user_K per cluster
    p = points[0]
    computed = (len(points) * p.M * p.K, len(points) * p.M)
    trials = sum(p.trials for p in points)
    rows = p.M * p.K * p.L
    normals = normals_per_trial(p) * mc.CHUNK
    return {
        "trace.overhead_ratio": statistics.median(traced) / statistics.median(times["one"]),
        "montecarlo.failed_trials": sum(b.failures for b in batches),
        "montecarlo.thread_scaling_eff": median_rates(times, "all", trials)
        / (run.nproc * median_rates(times, "one", trials)),
        "beamforming.feasible_ratio": float(np.mean([b.feasible.mean() for b in batches])),
        "beamforming.max_residual_rel": max(float(b.residual_rel.max()) for b in batches),
        "computed.normals_per_chunk": normals,
        "computed.draw_bytes_per_chunk": 8 * normals,
        "computed.solve_rows": rows,
        "computed.solve_cols": p.N,
        # thin SVD with U and V (R-SVD count, Golub & Van Loan); complex = 4x real flops
        "computed.svd_mflop_per_chunk": mc.CHUNK * 4 * (6 * p.N * rows ** 2 + 20 * rows ** 3) / 1e6,
    }, {}, counted, computed


# -- closed-form workload --------------------------------------------------------

def reference_loop():
    """Seconds for a fixed scalar-math loop (exp, log, division) that gauges host speed.

    It is the benchmark's own code, so no change to scbsim moves it.
    """
    t0 = time.perf_counter()
    total = 0.0
    for i in range(1, REFERENCE_ITERS):
        total += math.exp(-i * 1e-4) * math.log(i) / (1.0 + i)
    return time.perf_counter() - t0


def gamma_sample(run):
    rng = np.random.default_rng(run.seed)
    return [(L, rng.gamma(L, 1.0, GAMMA_SAMPLE)) for L in GAMMA_SHAPES]


def integer_shape_cdf(x, L):
    """P(L, x) = 1 - e^-x sum_{i<L} x^i / i!, the reference for integer shapes."""
    term = np.ones_like(x)
    total = np.ones_like(x)
    for i in range(1, L):
        term = term * x / i
        total += term
    return 1.0 - np.exp(-x) * total


def gamma_cdf_path(run, sample, span=_no_span):
    """gamma_cdf through the KS statistic, as check_channel_statistics uses it.

    Returns the seconds spent inside gamma_cdf, one call per shape.
    """
    spent = 0.0
    for L, x in sample:
        seen = []

        def cdf(v, L=L):
            nonlocal spent
            t0 = time.perf_counter()
            with span("numerics.gamma_cdf"):
                f = numerics.gamma_cdf(v, L)
            spent += time.perf_counter() - t0
            seen.append((v, f))
            return f

        d = numerics.ks_statistic(x, cdf)
        run.gate("gamma_cdf sample passes KS at alpha=1e-6",
                 d < numerics.ks_critical(x.size, KS_ALPHA), f"L={L}: D={d:.5f}")
        v, f = seen[0]
        err = float(np.max(np.abs(f - integer_shape_cdf(v, L))))
        run.gate("gamma_cdf matches the integer-shape series to 1e-12", err <= GAMMA_ATOL,
                 f"L={L}: max error {err:.2e}")
    return spent


def golden_special_functions(run):
    """Reproduce golden/special_functions.csv, mapped as tests/test_golden.py maps it."""
    with open(ROOT / "golden" / "special_functions.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    ei = numerics.exponential_integral_ei
    worst = 0.0
    for row in rows:
        args = [float(a) for a in row["args"].split(",")]
        got = {
            "regularized_gamma": lambda: numerics.lower_incomplete_gamma_regularized(*args),
            "exponential_integral_ei": lambda: ei(*args),
            "integral_x_exp_over_1px": lambda: math.e * ei(-args[0]) + 1.0,
            "integral_exp_over_1px": lambda: -math.exp(args[0]) * ei(-args[0]),
        }[row["function"]]()
        expected = float(row["value"])
        worst = max(worst, abs(got - expected) / abs(expected))
    run.gate("golden/special_functions.csv reproduced to 1e-12 relative",
             bool(rows) and worst <= GOLDEN_RTOL, f"worst relative error {worst:.2e}")


def closed_checks(run, span=_no_span):
    """The two validation checks and the golden table."""
    for name, check in (("special_functions", validation.check_special_functions),
                        ("er_closed_vs_quadrature", validation.check_er_closed_vs_quadrature)):
        with span(f"validation.{name}"):
            result = check()
        run.gate(f"validation {name} PASS", result.status == validation.PASS, result.detail)
    golden_special_functions(run)


def analytic(run):
    """One ``scbsim analytic`` call; returns its CSV bytes."""
    path = run.tmp / "analytic.csv"
    code = cli.main(["analytic", "--config", str(run.cfg_path), "--seed", str(run.seed),
                     "--sweep", run.w.sweep, "--metrics", run.w.metrics, "--out", str(path)])
    run.gate("analytic exits 0", code == 0, f"exit {code}")
    run.count(len(run.values))
    return path.read_bytes()


def closed_pass(run, sample):
    """One untraced pass: analytic, the gamma_cdf KS path, then the checks.

    A reference loop runs before the first part and after each part.  Returns
    (CSV bytes, seconds inside gamma_cdf, {part: seconds}, {part: mean of the
    reference loops on either side}).
    """
    wall, ref = {}, {}
    before = reference_loop()

    def timed(part, fn):
        nonlocal before
        t0 = time.perf_counter()
        value = fn()
        wall[part] = time.perf_counter() - t0
        after = reference_loop()
        ref[part] = (before + after) / 2
        before = after
        return value

    data = timed("analytic", lambda: analytic(run))
    spent = timed("gamma_cdf", lambda: gamma_cdf_path(run, sample))
    timed("checks", lambda: closed_checks(run))
    return data, spent, wall, ref


def closed_rounds(run, times, after=None):
    """One closed-form pass per round; gates that its CSV bytes repeat."""
    sample = gamma_sample(run)
    first = []

    def one_round(i):
        data, spent, wall, ref = closed_pass(run, sample)
        run.note_peak_rss()
        times["analytic"].append(wall["analytic"])
        times["gamma_cdf"].append(spent)
        times["pass"].append(sum(wall.values()))
        times["reference"].append(ref["analytic"])
        times["scaled_analytic"].append(wall["analytic"] * REFERENCE_S / ref["analytic"])
        times["scaled_gamma_cdf"].append(spent * REFERENCE_S / ref["gamma_cdf"])
        times["scaled_pass"].append(sum(wall[p] * REFERENCE_S / ref[p] for p in wall))
        if not first:
            first.append(data)
        run.gate("analytic CSV bytes identical across passes", data == first[0],
                 f"differs in round {i}")
        if after:
            after(i, sample)

    run.rounds(one_round)
    return first[0], sample


def _closed_times():
    return {k: [] for k in ("analytic", "gamma_cdf", "pass", "reference",
                            "scaled_analytic", "scaled_gamma_cdf", "scaled_pass")}


def measure_closed(run):
    """End-to-end metrics of the closed-form workload, scaled to host speed.

    Interpreter-bound scalar code follows the shared host's speed, which moves
    by up to 2x within seconds.  Each part's time is therefore divided by the
    reference loops around it and multiplied by REFERENCE_S: the figures are
    seconds at the host speed where the reference loop takes REFERENCE_S.
    Nothing runs threaded, so trials_per_s and trials_per_s_1t come from the
    same samples.  The raw seconds are in the result's samples.
    """
    times = run.samples = _closed_times()
    csv_data, sample = closed_rounds(run, times)
    samples = sum(x.size for _, x in sample)
    rate = median_rates(times, "scaled_gamma_cdf", samples)
    return {"trials_per_s": rate,
            "trials_per_s_1t": rate,
            "rows_per_s": median_rates(times, "scaled_analytic", csv_data.count(b"\n") - 1),
            "wall_s": statistics.median(times["scaled_pass"])}


def closed_call_args(run):
    """(span, function, argument tuples) for the per-call closed-form timings.

    The closed forms get every user's inputs at every sweep point; the
    regularized gamma gets the arguments the analytic sweep passes it,
    recorded in an untimed sweep.  Returns those, with the calls counted
    in the sweep and in the KS path.
    """
    cfg = run.cfg()
    op_args, er_args = [], []
    for value in run.values:
        point = mc.sweep_config(cfg, run.var, value)
        for m in range(point.M):
            op_args += [(analytics.ClosedFormInputs.from_config(point, m, k), k)
                        for k in range(point.K)]
            er_args.append((analytics.ClosedFormInputs.from_config(point, m, point.K - 1),))
    with replay.recorded_special_functions() as sweep_calls:
        replay.replay_analytic(cfg, run.var, run.values, run.metrics)
    with replay.recorded_special_functions() as ks_calls:
        gamma_cdf_path(run, gamma_sample(run))
    counted = tuple(len(sweep_calls[n]) + len(ks_calls[n]) for n in ("numerics.gamma", "numerics.e1"))
    return ((("analytics.op_closed", analytics.op_closed_form, op_args),
             ("analytics.er_closed", analytics.er_user_K, er_args),
             ("numerics.gamma", numerics.lower_incomplete_gamma_regularized,
              sweep_calls["numerics.gamma"])), counted)


def traced_closed_pass(run, tr, sample, call_args):
    """The closed-form pass with spans, the analytic CSV rebuilt by replay_analytic.

    Then each per-call boundary is timed as one loop over its arguments,
    outside the pass.  Returns (pass seconds, CSV bytes).
    """
    t0 = time.perf_counter()
    with tr.span("scenario.load_config"):
        cfg = run.cfg()
    with tr.span("pathloss.compute_gains"):
        pathloss.compute_gains(cfg)
    with tr.span("analytics.sweep"):
        data = replay.replay_analytic(cfg, run.var, run.values, run.metrics).encode()
    gamma_cdf_path(run, sample, tr.span)
    closed_checks(run, tr.span)
    seconds = time.perf_counter() - t0
    for name, fn, args in call_args:
        with tr.span(name):
            for a in args:
                fn(*a)
    return seconds, data


def trace_closed(run, tr):
    """Per-layer run of the closed-form workload; returns like trace_mc."""
    times = _closed_times()
    traced = []
    replayed = []
    call_args, counted = closed_call_args(run)

    def traced_pass(i, sample):
        tr.run_id = f"pass{i}"
        seconds, data = traced_closed_pass(run, tr, sample, call_args)
        traced.append(seconds)
        replayed.append(data)

    csv_data, sample = closed_rounds(run, times, after=traced_pass)
    run.gate("replayed analytic CSV matches scbsim analytic byte for byte",
             all(data == csv_data for data in replayed))
    cfg = run.cfg()
    samples = sum(x.size for _, x in sample)
    # the analytic sweep (one gamma per OP row and per OP_pair factor, one E1
    # per ER row) and one gamma per KS sample point
    op_rows = sum(m in ("OP_user", "OP_pair", "OP_oma") for m in run.metrics) * cfg.M * cfg.K
    computed = (len(run.values) * op_rows + samples,
                len(run.values) * cfg.M * ("ER_user" in run.metrics))
    return {
        "trace.overhead_ratio": statistics.median(traced) / statistics.median(times["pass"]),
        "montecarlo.failed_trials": 0,
        "montecarlo.thread_scaling_eff": 0.0,
        "beamforming.feasible_ratio": 0.0,
        "beamforming.max_residual_rel": 0.0,
        "computed.normals_per_chunk": 0,
        "computed.draw_bytes_per_chunk": 0,
        "computed.solve_rows": 0,
        "computed.solve_cols": 0,
        "computed.svd_mflop_per_chunk": 0.0,
    }, {name: len(args) for name, _, args in call_args}, counted, computed


# -- per-layer metrics from the spans ---------------------------------------------

SPAN_METRICS = (   # metric, span, scale, inclusive
    ("montecarlo.draw_ms", "montecarlo.draw", 1e3, False),
    ("channel.assemble_ms", "channel.assemble", 1e3, False),
    ("beamforming.build_ms", "beamforming.build", 1e3, False),
    ("beamforming.solve_ms", "beamforming.solve", 1e3, False),
    ("beamforming.quantize_ms", "beamforming.quantize", 1e3, False),
    ("beamforming.residue_ms", "beamforming.residue", 1e3, False),
    ("linkmetrics.sic_ms", "linkmetrics.sic", 1e3, False),
    ("montecarlo.chunk_ms", "montecarlo.chunk", 1e3, True),
    ("montecarlo.estimate_ms", "montecarlo.estimate", 1e3, False),
    ("numerics.gamma_cdf_ms", "numerics.gamma_cdf", 1e3, False),
    ("validation.special_functions_s", "validation.special_functions", 1.0, False),
    ("validation.er_closed_vs_quadrature_s", "validation.er_closed_vs_quadrature", 1.0, False),
    ("scenario.load_config_ms", "scenario.load_config", 1e3, False),
    ("pathloss.compute_gains_ms", "pathloss.compute_gains", 1e3, False),
)

CALL_METRICS = (   # metric, span timing one loop over a boundary's recorded arguments
    ("analytics.op_closed_us", "analytics.op_closed"),
    ("analytics.er_closed_us", "analytics.er_closed"),
    ("numerics.gamma_us", "numerics.gamma"),
)


def trace(run):
    """Traced run: span self times per occurrence (median over passes) and counts."""
    tr = replay.Tracer()
    metrics, calls, counted, computed = (trace_mc if run.w.monte_carlo else trace_closed)(run, tr)
    run.gate("counted gamma/E1 calls equal the computed counts", counted == computed,
             f"counted {counted}, computed {computed}")
    passes = sorted({s[4] for s in tr.spans if s[4].startswith("pass")}, key=lambda p: int(p[4:]))
    per_pass = [tr.times(p) for p in passes]
    for metric, span, scale, inclusive in SPAN_METRICS:
        values = []
        for times in per_pass:
            count, total, own = times.get(span, (0, 0.0, 0.0))
            values.append(scale * (total if inclusive else own) / count if count else 0.0)
        metrics[metric] = statistics.median(values)
    for metric, span in CALL_METRICS:
        n = calls.get(span, 0)
        metrics[metric] = statistics.median(
            1e6 * times[span][2] / n for times in per_pass) if n else 0.0
    metrics["montecarlo.chunks"] = per_pass[0].get("montecarlo.chunk", (0,))[0]
    metrics["numerics.gamma_calls"], metrics["numerics.e1_calls"] = counted
    metrics["computed.gamma_calls"], metrics["computed.e1_calls"] = computed
    return metrics, tr


# -- environment and entry point ------------------------------------------------------

def git_commit():
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return "unavailable (not a git checkout)"
    return "unavailable"


def environment(run):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name', '?')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {"workload": run.w.name, "seed": run.seed, "seconds": run.seconds,
            "nproc": run.nproc,
            "engine_threads": sorted({1, run.nproc}) if run.w.monte_carlo else [],
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_name, "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
            "git_commit": git_commit()}


def setup(run):
    """import + load_config + compute_gains + first-chunk warm-up, in seconds."""
    t0 = time.perf_counter()
    cfg = run.cfg()
    pathloss.compute_gains(cfg)
    point = mc.sweep_config(cfg, run.var, run.values[0])
    if run.w.monte_carlo:
        mc.run_trials(point, min(mc.CHUNK, point.trials), threads=1)
    else:
        for m in range(point.M):
            for k in range(point.K):
                analytics.op_closed_form(analytics.ClosedFormInputs.from_config(point, m, k), k)
            analytics.er_user_K(analytics.ClosedFormInputs.from_config(point, m, point.K - 1))
        numerics.gamma_cdf(np.ones(2), GAMMA_SHAPES[0])
    return {"setup_s": (_T_IMPORTED - _T_START) + (time.perf_counter() - t0)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("setup", "measure", "trace"))
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--config", required=True, help="generated config file")
    ap.add_argument("--tmp", required=True, help="scratch directory for CSV output")
    ap.add_argument("--result", required=True, help="where to write the result JSON")
    ap.add_argument("--spans", help="trace mode: where to write the recorded spans")
    args = ap.parse_args(argv)
    run = Run(args)
    result = {}
    if args.mode == "setup":
        result["metrics"] = setup(run)
    elif args.mode == "measure":
        result["metrics"] = (measure_mc if run.w.monte_carlo else measure_closed)(run)
        result["metrics"]["peak_rss_mb"] = run.peak_rss_mb
    else:
        result["metrics"], tr = trace(run)
    result["env"] = environment(run)   # after setup(), which it must not warm up
    if args.mode == "trace" and args.spans:
        Path(args.spans).write_text(json.dumps({"env": result["env"], **tr.dump()}),
                                    encoding="utf-8")
    result.update(samples=run.samples, attempted=run.attempted, failed=run.failed,
                  correct=run.failed == 0,
                  gates=[[name, *entry] for name, entry in run.gates.items()])
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
