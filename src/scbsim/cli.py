"""Command-line interface: feasibility | table2 | simulate | analytic | validate | dump.

Exit codes: 0 ok, 2 config error, 3 golden-table mismatch, 4 output I/O
error, 5 closed-form assumption violated at some sweep point or in some
validation check (and no check failed), 6 validation check failed.

All numeric CSV fields use repr() formatting ('.' decimal separator, no
locale), so a fixed seed yields byte-identical files for any --threads.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import beamforming as bf
from . import montecarlo as mc
from . import validation
from .analytics import PowerFreeTerms
from .channel import assemble_batch
from .montecarlo import METRICS
from .pathloss import (
    TABLE2_GOLDEN,
    compute_gains,
    diffuse_applicability_warning,
    min_ris_power_bound,
    min_ris_overall,
    table2,
)
from .scenario import (
    AGGREGATE,
    ANOMALOUS,
    DIFFUSE,
    INT_FIELDS,
    NUMERIC_FIELDS,
    PER_SYMBOL,
    ConfigError,
    fingerprint,
    load_config,
    sweep_fingerprint,
)

CSV_HEADER = ("sweep_var,sweep_value,cluster,user,metric,estimate,stderr,"
              "trials,mode,cancellation_mode,scenario,config_fingerprint")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GOLDEN = 3
EXIT_IO = 4
EXIT_ASSUMPTION = 5
EXIT_VALIDATION = 6

DEFAULT_METRICS = ("OP_user", "ER_user")
ANALYTIC_METRICS = ("OP_user", "OP_pair", "OP_oma", "ER_user")
ANALYTIC_BLOCK = 256   # link-key sweep points per closed-form evaluation


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _fmt_sweep(value):
    """A sweep value as rows and progress lines print it: as a float, unless
    it is an integer a float does not hold exactly (a master_seed above 2^53)."""
    as_float = float(value)
    return repr(as_float) if as_float == value else str(value)


def _point_cells(sweep_var, sweep_value, cfg, fp):
    """(head, tail) of a sweep point's rows: the cells before the cluster cell
    (sweep variable and value) and those after the trials cell (mode,
    cancellation, scenario, fingerprint), each with its separating commas."""
    mode = "ideal" if cfg.resolution_bits is None else f"{cfg.resolution_bits}-bit"
    head = f"{_fmt(sweep_var)},{_fmt_sweep(sweep_value)},"
    tail = "," + ",".join(map(_fmt, (mode, cfg.cancellation_mode, cfg.ris_scenario, fp)))
    return head, tail


def _row_cells(m, k, metric):
    """The cluster, user and metric cells of a row; m and k are ints or None (an
    empty cell)."""
    return f"{'' if m is None else m},{'' if k is None else k},{metric}"


def csv_row(sweep_var, sweep_value, m, k, metric, estimate, stderr, trials,
            cfg, fp):
    """One CSV line: m and k are ints or None (an empty cell), estimate and stderr
    floats (repr), trials an int."""
    head, tail = _point_cells(sweep_var, sweep_value, cfg, fp)
    return f"{head}{_row_cells(m, k, metric)},{estimate!r},{stderr!r},{trials}{tail}"


def _write_lines(path, lines):
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise _OutputError(str(exc)) from exc


class _OutputError(Exception):
    pass


def _load_cfg(args):
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    cfg = load_config(text)
    if getattr(args, "threads", None) is not None and args.threads < 1:
        raise ConfigError(f"--threads must be at least 1 (leave it out for automatic), "
                          f"got {args.threads}")
    updates = {}
    if getattr(args, "seed", None) is not None:
        updates["master_seed"] = args.seed
    if getattr(args, "cancellation", None):
        updates["cancellation_mode"] = args.cancellation
    if getattr(args, "scenario", None):
        updates["ris_scenario"] = args.scenario
    if getattr(args, "mode", None):
        if args.mode == "ideal":
            updates["resolution_bits"] = None
        elif args.mode.startswith("bits="):
            try:
                updates["resolution_bits"] = int(args.mode[5:])
            except ValueError:
                raise ConfigError(f"bad --mode value {args.mode!r}") from None
        else:
            raise ConfigError("--mode must be 'ideal' or 'bits=B'")
    return cfg.with_updates(**updates) if updates else cfg


def _sweep_number(text, integer):
    """One number of a sweep spec: exact for an integer literal of an integer
    variable (scenario.INT_FIELDS), a float otherwise."""
    if integer:
        try:
            return int(text)
        except ValueError:
            pass
    return float(text)


def parse_sweep(text):
    """'VAR=a:b:step' or 'VAR=v1,v2,...' -> (variable, tuple of finite values).

    VAR must be a numeric ScenarioConfig field (scenario.NUMERIC_FIELDS).
    """
    if "=" not in text:
        raise ConfigError("--sweep expects VAR=START:STOP:STEP or VAR=v1,v2,...")
    var, _, spec = text.partition("=")
    var = var.strip()
    spec = spec.strip()
    if var not in NUMERIC_FIELDS:
        raise ConfigError(f"cannot sweep {var!r}; choose from {', '.join(NUMERIC_FIELDS)}")
    integer = var in INT_FIELDS
    try:
        if ":" in spec:
            parts = [_sweep_number(p, integer) for p in spec.split(":")]
            if len(parts) != 3:
                raise ValueError
            if not all(isinstance(p, int) for p in parts):
                parts = [float(p) for p in parts]
            start, stop, step = parts
            if step == 0 or (stop - start) * step < 0:
                raise ValueError
            if isinstance(step, int):
                n = abs(stop - start) // abs(step) + 1
            else:
                n = int(abs(stop - start) / abs(step) + 1e-9) + 1
            values = tuple(start + i * step for i in range(n))
        else:
            values = tuple(_sweep_number(p, integer) for p in spec.split(",") if p.strip())
        if not values:
            raise ValueError
        floats = [float(v) for v in values]   # OverflowError for an integer beyond any float
    except (ValueError, OverflowError):   # int() of a nan or infinite point count
        raise ConfigError(f"cannot parse sweep spec {spec!r}") from None
    if not all(map(math.isfinite, floats)):
        raise ConfigError(f"sweep values must be finite, got {spec!r}")
    return var, values


def _sweep_request(args, cfg, allowed):
    """(variable, values, metrics) of a sweep command, checked before any work."""
    var, values = (parse_sweep(args.sweep) if args.sweep
                   else ("tx_power_dbm", (cfg.tx_power_dbm,)))
    metrics = (tuple(m.strip() for m in args.metrics.split(",")) if args.metrics
               else DEFAULT_METRICS)
    unknown = [m for m in metrics if m not in allowed]
    if unknown:
        raise ConfigError(f"unknown metrics {unknown}; choose from {allowed}")
    repeated = sorted({m for m in metrics if metrics.count(m) > 1}, key=metrics.index)
    if repeated:
        raise ConfigError(f"repeated metrics {repeated}; name each once")
    return var, values, metrics


# -- subcommands -------------------------------------------------------------

def cmd_table2(args):
    lines = ["scenario,alpha1,alpha2,alpha3,min_N"]
    got = []
    for scenario, a1, a2, a3, n in table2():
        got.append(n)
        lines.append(f"{scenario},{_fmt(a1)},{_fmt(a2)},{_fmt(a3)},{n}")
    _write_lines(args.out, lines)
    if not args.no_golden and tuple(got) != TABLE2_GOLDEN:
        print(f"golden mismatch: computed {tuple(got)}, expected {TABLE2_GOLDEN}",
              file=sys.stderr)
        return EXIT_GOLDEN
    return EXIT_OK


def cmd_feasibility(args):
    cfg = _load_cfg(args)
    lines = [f"scenario: {cfg.ris_scenario}, cancellation: {cfg.cancellation_mode}"]
    power_bounds = {}
    for m in range(cfg.M):
        for k in range(cfg.K):
            power_bounds[(m, k)] = min_ris_power_bound(cfg, m, k)
            lines.append(f"cluster {m} user {k}: amplitude bound N >= {power_bounds[(m, k)]}")
    rank = bf.system_rows(cfg.M, cfg.K, cfg.L, cfg.cancellation_mode)
    overall = min_ris_overall(cfg)
    binding = "rank" if rank >= max(power_bounds.values()) else "amplitude"
    lines.append(f"rank bound ({cfg.cancellation_mode}): N >= {rank}")
    lines.append(f"overall minimal N: {overall} (binding constraint: {binding})")
    lines.append(f"configured N = {cfg.N}: "
                 + ("satisfies the bound" if cfg.N >= overall else "BELOW the bound"))
    warning = diffuse_applicability_warning(cfg)
    if warning:
        lines.append(f"warning: {warning}")
    _write_lines(args.out, lines)
    return EXIT_OK


def cmd_simulate(args):
    cfg = _load_cfg(args)
    if args.trials is not None:   # the only command that runs montecarlo.trials
        cfg = cfg.with_updates(trials=args.trials)
    var, values, metrics = _sweep_request(args, cfg, METRICS)
    lines = [CSV_HEADER]
    failures = []
    run = mc.sweep_runner(threads=args.threads)   # a link-key sweep builds its surfaces once
    for i, value in enumerate(values):
        def progress(trials):
            print(f"[{i + 1}/{len(values)}] {var}={_fmt_sweep(value)} ({trials} trials)",
                  file=sys.stderr, flush=True)

        point = batch = None   # free the last point's arrays before this point allocates its own
        try:
            point = mc.sweep_config(cfg, var, value)
            progress(point.trials)
            batch = run(point)
            if batch.failures:
                failures.append(
                    (value, f"{batch.failures} trials failed numerically (excluded)"))
            # the whole list is built before any row is added: a point whose
            # metrics do not all succeed writes no rows
            lines += [csv_row(var, value, r.m, r.k, r.metric, r.estimate, r.stderr,
                              r.trials, point, r.fingerprint)
                      for metric in metrics
                      for r in mc.estimates_from_batch(point, batch, metric, args.feasible_only)]
        except Exception as exc:   # noqa: BLE001 - per-point isolation is the contract
            if point is None:   # no valid point config: report the base trial count
                progress(cfg.trials)
            failures.append((value, f"{type(exc).__name__}: {exc}"))
    for value, msg in failures:
        print(f"point {var}={_fmt_sweep(value)} failed: {msg}", file=sys.stderr)
    _write_lines(args.out, lines)
    return EXIT_OK


def cmd_analytic(args):
    cfg = _load_cfg(args)
    var, values, metrics = _sweep_request(args, cfg, ANALYTIC_METRICS)
    # every valid point has cfg's M and K (the distance matrices fix them); ER_user
    # has a closed form for the nearest user only, OP_pair one per cluster.  The
    # rows of a point, in order: the cluster, the key of its closed_forms value,
    # and the cluster, user and metric cells formatted once per sweep
    rows = [(m, (metric, k), _row_cells(m, k, metric))
            for metric in metrics
            for m in range(cfg.M)
            for k in {"ER_user": (cfg.K - 1,), "OP_pair": (None,)}.get(metric, range(cfg.K))]
    fp = sweep_fingerprint(cfg, var)
    lines = [CSV_HEADER]
    assumption_violated = False
    # a link-key sweep builds the power-free terms once, as simulate builds its
    # surfaces once, and evaluates them over a block of points per call: only
    # the transmit power and noise read the swept value.  Any other sweep builds
    # and evaluates them per point
    link = var in mc.LINK_KEYS
    step = ANALYTIC_BLOCK if link else 1
    terms = None
    for start in range(0, len(values), step):
        cells, powers, noises = [], [], []
        for value in values[start:start + step]:
            point = mc.sweep_config(cfg, var, value)
            head, tail = _point_cells(var, value, point, fp(point))
            cells.append((head, ",0.0,0" + tail))   # csv_row's stderr and trials, 0.0 and 0
            powers.append(point.tx_power_watt)
            noises.append(point.noise_watt)
        if terms is None or not link:
            terms = PowerFreeTerms.from_config(point)
        # a block's values are lists, one float per point; a single point's are floats
        closed = (terms.closed_forms(powers, noises, metrics) if link
                  else terms.closed_forms(powers[0], noises[0], metrics))
        for i, (head, tail) in enumerate(cells):
            for m, key, row in rows:
                estimate = closed[m][key]
                if estimate is None:
                    assumption_violated = True
                    lines.append(f"{head}{row}_infeasible,1.0{tail}")
                else:
                    lines.append(f"{head}{row},{estimate[i] if link else estimate!r}{tail}")
    _write_lines(args.out, lines)
    return EXIT_ASSUMPTION if assumption_violated else EXIT_OK


def cmd_validate(args):
    cfg = _load_cfg(args)   # run_checks applies --trials per check, not to the config
    names = [c.strip() for c in args.checks.split(",")] if args.checks else None
    print(f"validating config {fingerprint(cfg)} "
          f"({'quick' if args.quick else 'full'} trial counts, "
          f"threads={args.threads or 'auto'})", file=sys.stderr)
    results = validation.run_checks(cfg, names=names, quick=args.quick,
                                    threads=args.threads, trials=args.trials)
    _write_lines(args.out, [f"{r.status} {r.name} ({r.seconds:.1f}s): {r.detail}"
                            for r in results])
    if any(r.status == validation.FAIL for r in results):
        return EXIT_VALIDATION
    return EXIT_ASSUMPTION if any(r.infeasible for r in results) else EXIT_OK


def cmd_dump(args):
    """Debug dump of one trial: channels, stacked system, solution, residues."""
    cfg = _load_cfg(args)
    if not 0 <= args.trial < 2 ** 64:
        raise ConfigError(f"--trial must be in [0, 2^64), got {args.trial}")
    gains = compute_gains(cfg)
    w, h, g = assemble_batch(cfg, mc.draw_chunk_normals(cfg, args.trial, 1))
    h_tilde, b, phi, _, _, residue = mc.cancel(cfg, gains, w, h, g)
    lines = ["block,row,col,re,im"]

    def emit_matrix(name, mat):
        mat = np.atleast_2d(mat)
        for i in range(mat.shape[0]):
            for j in range(mat.shape[1]):
                z = complex(mat[i, j])
                lines.append(f"{name},{i},{j},{_fmt(z.real)},{_fmt(z.imag)}")

    emit_matrix("H", h[0])
    for m in range(cfg.M):
        for k in range(cfg.K):
            emit_matrix(f"W[{m}][{k}]", w[0, m, k])
            emit_matrix(f"G[{m}][{k}]", g[0, m, k])
    emit_matrix("H_tilde", h_tilde[0])
    emit_matrix("B", b[0].reshape(-1, 1))
    emit_matrix("phi", phi[0].reshape(-1, 1))
    for m in range(cfg.M):
        for k in range(cfg.K):
            lines.append(f"residue,{m},{k},{_fmt(float(residue[0, m, k]))},{_fmt(0.0)}")
    _write_lines(args.out, lines)
    return EXIT_OK


# -- argument parsing ----------------------------------------------------------

_FLAGS = {
    "--config": dict(required=True, help="path to a scenario config file"),
    "--out": dict(help="output path (default: stdout)"),
    "--seed": dict(type=int, help="override montecarlo.master_seed"),
    "--trials": dict(type=int, help="override montecarlo.trials"),
    "--threads": dict(type=int,
                      help="worker threads, at least 1 (default: automatic; results identical)"),
    "--mode": dict(help="ideal | bits=B (override ris.resolution_bits)"),
    "--cancellation": dict(choices=(AGGREGATE, PER_SYMBOL), help="override ris.cancellation_mode"),
    "--scenario": dict(choices=(DIFFUSE, ANOMALOUS), help="override ris.ris_scenario"),
}


def _add_common(p, *flags):
    for flag in ("--config", "--out", *flags, "--cancellation", "--scenario"):
        p.add_argument(flag, **_FLAGS[flag])


def build_parser():
    parser = argparse.ArgumentParser(
        prog="scbsim",
        description="Signal-cancellation passive beamforming simulator "
                    "for RIS-aided MIMO-NOMA downlinks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table2", help="print the reference feasibility table")
    p.add_argument("--out")
    p.add_argument("--no-golden", action="store_true",
                   help="skip the golden-value regression check")
    p.set_defaults(fn=cmd_table2)

    p = sub.add_parser("feasibility", help="minimal element-count report")
    _add_common(p)
    p.set_defaults(fn=cmd_feasibility)

    p = sub.add_parser("simulate", help="Monte Carlo sweep to CSV")
    _add_common(p, "--seed", "--mode", "--trials", "--threads")
    p.add_argument("--sweep", help="VAR=START:STOP:STEP or VAR=v1,v2,...")
    p.add_argument("--metrics", help=f"comma list from {METRICS}")
    p.add_argument("--feasible-only", action="store_true",
                   help="condition estimates on amplitude-feasible trials")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("analytic", help="closed-form sweep to CSV")
    _add_common(p, "--seed", "--mode")
    p.add_argument("--sweep", help="VAR=START:STOP:STEP or VAR=v1,v2,...")
    p.add_argument("--metrics", help=f"comma list from {ANALYTIC_METRICS}")
    p.set_defaults(fn=cmd_analytic)

    p = sub.add_parser("validate", help="simulation-vs-closed-form check suite")
    _add_common(p, "--seed", "--mode", "--trials", "--threads")
    p.add_argument("--checks", help="comma list of check names (default: all)")
    p.add_argument("--quick", action="store_true",
                   help="divide trial counts by 10, to no fewer than "
                        f"{validation.TRIALS_FLOOR} (tolerances unchanged)")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("dump", help="debug dump of one trial as CSV")
    _add_common(p, "--seed", "--mode")
    p.add_argument("--trial", type=int, default=0, help="trial index to dump")
    p.set_defaults(fn=cmd_dump)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
