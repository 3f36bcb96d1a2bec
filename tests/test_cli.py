import math
from pathlib import Path

import pytest

from scbsim import analytics, cli, validation
from scbsim import montecarlo as mc
from scbsim.analytics import ClosedFormInputs, InfeasibleRatesError
from scbsim.montecarlo import run_trials
from scbsim.numerics import ks_critical
from scbsim.scenario import ConfigError, fingerprint, load_config, serialize_config

BASE = Path(__file__).resolve().parents[1] / "configs" / "baseline.cfg"


@pytest.fixture()
def small_cfg_file(tmp_path, baseline_cfg):
    cfg = baseline_cfg.with_updates(N=16, trials=800, tx_power_dbm=0.0)
    path = tmp_path / "small.cfg"
    path.write_text(serialize_config(cfg))
    return path


def run_cli(args):
    return cli.main([str(a) for a in args])


def test_table2_golden_pass(capsys):
    assert run_cli(["table2"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "scenario,alpha1,alpha2,alpha3,min_N"
    assert [int(line.split(",")[-1]) for line in out[1:]] == [1449, 84, 5, 3, 1, 1]


def test_table2_golden_mismatch_exit3(monkeypatch, capsys):
    monkeypatch.setattr(cli, "TABLE2_GOLDEN", (1, 2, 3, 4, 5, 6))
    assert run_cli(["table2"]) == 3
    assert run_cli(["table2", "--no-golden"]) == 0


def test_feasibility_report(capsys):
    assert run_cli(["feasibility", "--config", BASE]) == 0
    out = capsys.readouterr().out
    assert "overall minimal N: 8" in out
    assert "binding constraint: rank" in out
    assert "satisfies the bound" in out


def test_feasibility_applies_overrides(capsys):
    assert run_cli(["feasibility", "--config", BASE, "--cancellation", "per-symbol",
                    "--scenario", "anomalous"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        "scenario: anomalous, cancellation: per-symbol")


def test_feasibility_warns_on_steep_reflected_links(tmp_path, capsys):
    """A diffuse surface whose BS-RIS exponent reaches the direct one gets the
    applicability warning as the report's last line."""
    cfg_path = tmp_path / "steep.cfg"
    cfg_path.write_text(BASE.read_text().replace("geometry.alpha1 = 2.2", "geometry.alpha1 = 3.5"))
    assert run_cli(["feasibility", "--config", cfg_path]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "warning: diffuse scattering with alpha1 or alpha2 >= alpha3 requires a very "
        "large surface; check the feasibility report")


def test_feasibility_single_cluster(tmp_path, baseline_cfg, capsys):
    """At M = 1 the engine's system is empty: the rank bound is 0 and N = 1 suffices."""
    cfg_path = tmp_path / "m1.cfg"
    cfg_path.write_text(serialize_config(baseline_cfg.with_updates(
        M=1, d_user=((160.0, 80.0),), d_direct=((200.0, 100.0),))))
    assert run_cli(["feasibility", "--config", cfg_path]) == 0
    out = capsys.readouterr().out
    assert "rank bound (aggregate): N >= 0\n" in out
    assert "overall minimal N: 1 (binding constraint: amplitude)" in out


@pytest.mark.parametrize("command,flag", [
    ("feasibility", "--seed"), ("feasibility", "--trials"), ("feasibility", "--threads"),
    ("feasibility", "--mode"), ("analytic", "--trials"), ("analytic", "--threads"),
    ("dump", "--trials"), ("dump", "--threads"),
])
def test_flags_a_command_does_not_read_exit2(command, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli([command, "--config", BASE, flag, "1"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


@pytest.mark.parametrize("lines,command,reason", [
    ({"tx_power_dbm": "4000.0"}, "analytic",
     "tx_power_dbm must be finite and positive in watts, got 4000.0"),
    ({"geometry.d1": "0.5", "geometry.alpha1": "1100.0"}, "feasibility",
     "largescale_diffuse(0.5, 160.0, 1100.0"),
    ({"geometry.d_direct": "1e10, 100.0; 200.0, 100.0", "geometry.alpha3": "40.0"}, "analytic",
     "largescale_direct(10000000000.0, 40.0) = 0.0"),
], ids=["tx_power_dbm", "d1_alpha1", "d_direct_alpha3"])
def test_overflowing_config_exit2(tmp_path, baseline_cfg, capsys, lines, command, reason):
    """Finite config values whose power or gain a float cannot hold are a config
    error: at load for a power, whose watts a value rule checks, and when the
    command computes it for a path gain."""
    text = "".join(
        f"{key} = {lines[key]}\n" if key in lines else line
        for line in serialize_config(baseline_cfg).splitlines(keepends=True)
        for key in [line.partition(" = ")[0]])
    cfg_path = tmp_path / "over.cfg"
    cfg_path.write_text(text)
    assert run_cli([command, "--config", cfg_path]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {reason}")


def test_simulate_sweep_of_failing_points_exits_0(small_cfg_file, tmp_path, capsys):
    """A point whose transmit power overflows fails alone; a sweep whose every point
    failed still exits 0, with a header-only CSV."""
    out = tmp_path / "over.csv"
    assert run_cli(["simulate", "--config", small_cfg_file, "--out", out, "--trials", 500,
                    "--sweep", "tx_power_dbm=4000,5000", "--metrics", "OP_user",
                    "--threads", 1]) == 0
    assert out.read_text() == cli.CSV_HEADER + "\n"
    err = capsys.readouterr().err
    for value in ("4000.0", "5000.0"):
        assert (f"point tx_power_dbm={value} failed: ConfigError: tx_power_dbm must be "
                f"finite and positive in watts, got {value}") in err


def test_config_errors_exit2(tmp_path, capsys):
    missing = tmp_path / "nope.cfg"
    assert run_cli(["feasibility", "--config", missing]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text(BASE.read_text().replace("0.6, 0.4", "0.7, 0.4"))
    assert run_cli(["simulate", "--config", bad]) == 2
    assert "sum to 1" in capsys.readouterr().err
    bad.write_text(BASE.read_text().replace("ris.N = 40", "ris.N 40"))
    assert run_cli(["feasibility", "--config", bad]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: line 23: expected 'key = value', got 'ris.N 40'")


@pytest.mark.parametrize("bad", [
    (["--metrics", "bogus"], "unknown metrics ['bogus']"),
    (["--sweep", "tx_power_dbm=nan"], "sweep values must be finite, got 'nan'"),
    (["--sweep", "tx_power_dbm=0:inf:10"], "cannot parse sweep spec '0:inf:10'"),
    (["--mode", "bits=x"], "bad --mode value 'bits=x'"),
    (["--mode", "foo"], "--mode must be 'ideal' or 'bits=B'"),
    (["--sweep", "N"], "--sweep expects VAR=START:STOP:STEP or VAR=v1,v2,..."),
    (["--sweep", "tx_power_dbm=0:10"], "cannot parse sweep spec '0:10'"),
    (["--metrics", "OP_pair,SE,OP_pair"], "repeated metrics ['OP_pair']; name each once"),
])
def test_simulate_bad_sweep_request_exit2(small_cfg_file, bad, capsys):
    """A bad flag value is a config error, with its message, before any work."""
    args, message = bad
    assert run_cli(["simulate", "--config", small_cfg_file, "--trials", "500", *args]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: {message}")
    assert not captured.out


def test_simulate_csv_schema(small_cfg_file, tmp_path, capsys):
    out = tmp_path / "sim.csv"
    code = run_cli(["simulate", "--config", small_cfg_file, "--out", out,
                    "--sweep", "tx_power_dbm=0,10",
                    "--metrics", "OP_user,SE,feasibility_rate", "--threads", "1"])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == cli.CSV_HEADER
    # 2 points x (4 OP rows + 2 SE rows + 1 feasibility row)
    assert len(lines) == 1 + 2 * 7
    cells = lines[1].split(",")
    assert len(cells) == 12
    assert cells[:5] == ["tx_power_dbm", "0.0", "0", "0", "OP_user"]
    point = mc.sweep_config(load_config(small_cfg_file.read_text()), "tx_power_dbm", 0.0)
    assert cells[8:] == ["ideal", "aggregate", "diffuse", fingerprint(point)]


def test_simulate_rows_follow_sweep_order(small_cfg_file, tmp_path):
    out = tmp_path / "order.csv"
    assert run_cli(["simulate", "--config", small_cfg_file, "--out", out, "--trials", 500,
                    "--sweep", "tx_power_dbm=10,0", "--metrics", "OP_user,SE",
                    "--threads", 1]) == 0
    rows = [l.split(",")[1:5] for l in out.read_text().splitlines()[1:]]
    per_point = [("OP_user", m, k) for m in "01" for k in "01"] + [("SE", m, "") for m in "01"]
    assert rows == [[v, m, k, metric] for v in ("10.0", "0.0") for metric, m, k in per_point]


@pytest.mark.parametrize("bad,reason", [("0", "ris.N must be an integer >= 1, got 0"),
                                        ("16.5", "ris.N must be an integer >= 1, got 16.5")],
                         ids=["N=0", "N=16.5"])
def test_simulate_failed_point_is_isolated(small_cfg_file, tmp_path, capsys, bad, reason):
    """A point that cannot run is reported on stderr; the other points keep their rows."""
    out = tmp_path / "n.csv"
    assert run_cli(["simulate", "--config", small_cfg_file, "--out", out, "--trials", 500,
                    "--sweep", f"N=16,{bad},24", "--metrics", "OP_user",
                    "--threads", 1]) == 0
    values = [l.split(",")[1] for l in out.read_text().splitlines()[1:]]
    assert values == ["16.0"] * 4 + ["24.0"] * 4
    err = capsys.readouterr().err
    assert f"[2/3] N={float(bad)!r} (500 trials)" in err
    assert f"point N={float(bad)!r} failed: ConfigError: {reason}" in err


def test_simulate_progress_reports_each_points_trials(small_cfg_file, tmp_path, capsys):
    out = tmp_path / "trials.csv"
    assert run_cli(["simulate", "--config", small_cfg_file, "--out", out,
                    "--sweep", "trials=500,700", "--metrics", "OP_user",
                    "--threads", 1]) == 0
    err = capsys.readouterr().err
    assert "[1/2] trials=500.0 (500 trials)" in err
    assert "[2/2] trials=700.0 (700 trials)" in err
    trials = [l.split(",")[7] for l in out.read_text().splitlines()[1:]]
    assert trials == ["500"] * 4 + ["700"] * 4


@pytest.mark.parametrize("sweep,runs", [("tx_power_dbm=0,10,20", 1), ("bandwidth_hz=1e6,1e8", 1),
                                        ("noise_dbm_override=-100,-90", 1), ("N=16,24", 2),
                                        ("trials=500,700", 2), ("master_seed=1,2", 2)])
def test_simulate_builds_surfaces_once_per_link_sweep(small_cfg_file, tmp_path, monkeypatch,
                                                      sweep, runs):
    """A sweep over a link key shares one surface batch; any other sweep builds one per point."""
    calls = []
    real = mc.surface_stage

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(mc, "surface_stage", counted)
    out = tmp_path / "count.csv"
    assert run_cli(["simulate", "--config", small_cfg_file, "--out", out, "--trials", 500,
                    "--sweep", sweep, "--metrics", "OP_user", "--threads", 1]) == 0
    assert len(calls) == runs
    assert len(out.read_text().splitlines()) == 1 + 4 * len(sweep.split(","))


def test_simulate_point_with_a_failing_metric_writes_no_rows(small_cfg_file, tmp_path, capsys):
    """Under --feasible-only a point with no feasible trial has a feasibility rate
    but no OP_user sample: the point fails whole and writes none of its rows."""
    out = tmp_path / "feasible.csv"
    assert run_cli(["simulate", "--config", small_cfg_file, "--out", out, "--trials", 500,
                    "--sweep", "N=8,16", "--metrics", "feasibility_rate,OP_user",
                    "--feasible-only", "--threads", 1]) == 0
    rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
    assert {row[1] for row in rows} == {"16.0"}
    assert [row[4] for row in rows] == ["feasibility_rate"] + ["OP_user"] * 4
    assert ("point N=8.0 failed: ValueError: no usable trials survived the feasibility "
            "filter") in capsys.readouterr().err


def test_simulate_failed_link_point_is_isolated(small_cfg_file, tmp_path, capsys):
    """A link-key point that cannot run does not stop the points that share its surfaces."""
    outs = []
    for sweep in ("bandwidth_hz=0,1e8", "bandwidth_hz=1e8"):
        out = tmp_path / f"{len(outs)}.csv"
        assert run_cli(["simulate", "--config", small_cfg_file, "--out", out, "--trials", 500,
                        "--sweep", sweep, "--metrics", "OP_user,ER_user",
                        "--threads", 1]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    err = capsys.readouterr().err
    assert ("point bandwidth_hz=0.0 failed: ConfigError: "
            "bandwidth_hz must be strictly positive") in err


def test_simulate_reports_failed_trial_at_every_point(baseline_cfg, tmp_path, fail_trial,
                                                      capsys):
    """A trial the salvage path gives up on is excluded, and reported, at every sweep point."""
    fail_trial(5000)
    cfg_path = tmp_path / "fail.cfg"
    cfg_path.write_text(serialize_config(baseline_cfg.with_updates(trials=6000)))
    out = tmp_path / "fail.csv"
    assert run_cli(["simulate", "--config", cfg_path, "--out", out,
                    "--sweep", "tx_power_dbm=0,20,40", "--metrics", "OP_user,ER_user",
                    "--threads", 2]) == 0
    err = capsys.readouterr().err
    assert err.count("failed: 1 trials failed numerically (excluded)") == 3
    for value in ("0.0", "20.0", "40.0"):
        assert f"point tx_power_dbm={value} failed: 1 trials failed" in err
    rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
    assert len(rows) == 3 * 8 and {r[7] for r in rows} == {"5999"}


def test_simulate_threads_byte_identical(small_cfg_file, tmp_path):
    outs = []
    for threads in (1, 8):
        out = tmp_path / f"t{threads}.csv"
        assert run_cli(["simulate", "--config", small_cfg_file, "--out", out,
                        "--sweep", "tx_power_dbm=0,10", "--metrics", "OP_user,ER_user",
                        "--threads", threads]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("sweep", ["tx_power_dbm=-10,0,10", "N=16,24"])
def test_simulate_rows_are_csv_rows_of_run_trials(small_cfg_file, tmp_path, sweep):
    """simulate's CSV is CSV_HEADER plus csv_row over estimates_from_batch(run_trials(point)),
    the rebuild perfbench gates, for a link-key sweep (one batch of surfaces serves
    every point) and a surface sweep, with every metric."""
    out = tmp_path / "sim.csv"
    assert run_cli(["simulate", "--config", small_cfg_file, "--out", out, "--threads", 1,
                    "--sweep", sweep, "--metrics", ",".join(mc.METRICS)]) == 0
    cfg = load_config(small_cfg_file.read_text())
    var, values = cli.parse_sweep(sweep)
    lines = [cli.CSV_HEADER]
    for value in values:
        point = mc.sweep_config(cfg, var, value)
        batch = run_trials(point, threads=1)
        lines += [cli.csv_row(var, value, r.m, r.k, r.metric, r.estimate, r.stderr, r.trials,
                              point, r.fingerprint)
                  for metric in mc.METRICS for r in mc.estimates_from_batch(point, batch, metric)]
    # four per-user, three per-cluster and one global metric at every point
    assert len(mc.METRICS) == 8 and len(lines) == 1 + len(values) * (4 * 4 + 3 * 2 + 1)
    assert out.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_simulate_mode_override(small_cfg_file, tmp_path):
    out = tmp_path / "bits.csv"
    assert run_cli(["simulate", "--config", small_cfg_file, "--out", out,
                    "--mode", "bits=3", "--metrics", "residue_mean",
                    "--trials", "500"]) == 0
    lines = out.read_text().strip().splitlines()
    assert all(line.split(",")[8] == "3-bit" for line in lines[1:])


def test_io_error_exit4(small_cfg_file, tmp_path):
    assert run_cli(["simulate", "--config", small_cfg_file,
                    "--out", tmp_path / "no" / "dir" / "x.csv",
                    "--trials", "500", "--metrics", "SE"]) == 4


def test_analytic_curves(tmp_path, capsys):
    out = tmp_path / "an.csv"
    assert run_cli(["analytic", "--config", BASE, "--out", out,
                    "--sweep", "tx_power_dbm=0:30:10",
                    "--metrics", "OP_user,ER_user,OP_pair,OP_oma"]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == cli.CSV_HEADER
    rows = [l.split(",") for l in lines[1:]]
    assert all(r[6] == "0.0" and r[7] == "0" for r in rows)   # stderr, trials
    op_rows = [r for r in rows if r[4] == "OP_user"]
    assert len(op_rows) == 4 * 4   # 4 sweep points x (2 clusters x 2 users)
    # outage decreases along the power sweep
    user00 = [float(r[5]) for r in op_rows if r[2] == "0" and r[3] == "0"]
    assert all(a > b for a, b in zip(user00, user00[1:]))


def test_analytic_er_at_eight_antennas_rises_with_power(tmp_path, baseline_cfg):
    """L = 8 (N = 40 still covers the rank bound): C grows tenfold per 10 dB less
    power, and ER_user stays positive, rises with power and stays below Jensen's
    bound log2(1 + L^2 / C).  The former J_i recursion wrote 18007.3 at -50 dBm."""
    cfg = baseline_cfg.with_updates(L=8)
    cfg_path = tmp_path / "l8.cfg"
    cfg_path.write_text(serialize_config(cfg))
    out = tmp_path / "an.csv"
    assert run_cli(["analytic", "--config", cfg_path, "--out", out,
                    "--sweep", "tx_power_dbm=-50:-20:2.5", "--metrics", "ER_user"]) == 0
    rows = [l.split(",") for l in out.read_text().strip().splitlines()[1:]]
    for m in range(cfg.M):
        curve = [(float(r[1]), float(r[5])) for r in rows if r[2] == str(m)]
        assert len(curve) == 13
        rates = [v for _, v in curve]
        assert all(v > 0.0 for v in rates)
        assert all(a < b for a, b in zip(rates, rates[1:]))
        for p_dbm, v in curve:
            point = cfg.with_updates(tx_power_dbm=p_dbm)
            c = ClosedFormInputs.from_config(point, m, cfg.K - 1).rate_threshold_scale
            assert v < math.log2(1.0 + cfg.L ** 2 / c)
    assert rates[0] < 2e-3


def test_analytic_infeasible_rates_exit5(tmp_path, baseline_cfg):
    cfg_path = tmp_path / "inf.cfg"
    cfg_path.write_text(serialize_config(
        baseline_cfg.with_updates(target_rate=(1.4, 1.5))))
    out = tmp_path / "an.csv"
    assert run_cli(["analytic", "--config", cfg_path, "--out", out,
                    "--metrics", "OP_user"]) == 5
    lines = out.read_text().strip().splitlines()
    flagged = [l for l in lines if "OP_user_infeasible" in l]
    assert flagged and all(l.split(",")[5] == "1.0" for l in flagged)


def per_user_law(point, metric, m, k):
    """One analytic value from the per-user laws, as perfbench's replay_analytic
    takes it: each user's inputs from ClosedFormInputs.from_config, OP_pair as the
    running product of its users' op_closed_form."""
    if metric == "OP_pair":
        pair = 1.0
        for j in range(point.K):
            pair *= analytics.op_closed_form(ClosedFormInputs.from_config(point, m, j), j)
        return pair
    inputs = ClosedFormInputs.from_config(point, m, k)
    if metric == "ER_user":
        return analytics.er_user_K(inputs)
    return (analytics.op_closed_form if metric == "OP_user" else analytics.op_oma)(inputs, k)


def reference_analytic(cfg, var, values, metrics):
    """(CSV text, any infeasible row) of analytic, rebuilt row by row: each row's
    value from per_user_law, its line from csv_row."""
    lines, violated = [cli.CSV_HEADER], False
    for value in values:
        point = mc.sweep_config(cfg, var, value)
        fp = fingerprint(point)
        for metric in metrics:
            users = {"ER_user": (point.K - 1,), "OP_pair": (None,)}.get(metric, range(point.K))
            for m in range(point.M):
                for k in users:
                    try:
                        name, estimate = metric, per_user_law(point, metric, m, k)
                    except InfeasibleRatesError:
                        violated, name, estimate = True, metric + "_infeasible", 1.0
                    lines.append(cli.csv_row(var, value, m, k, name, estimate, 0.0, 0, point, fp))
    return "\n".join(lines) + "\n", violated


@pytest.mark.parametrize("target_rate,sweep,metrics", [
    ((1.0, 1.5), "tx_power_dbm=-10:50:5", cli.ANALYTIC_METRICS),
    ((1.4, 1.5), "tx_power_dbm=-10:50:5", cli.ANALYTIC_METRICS),
    ((1.0, 1.5), "resolution_bits=1:4:1", cli.ANALYTIC_METRICS),   # the mode cell, per point
    ((1.0, 1.5), "L=1:4:1", cli.ANALYTIC_METRICS),   # the cluster inputs and the gamma shape
    ((1.0, 1.5), "alpha3=2.0:4.0:0.5", cli.ANALYTIC_METRICS),
    ((1.0, 1.5), "noise_dbm_override=-110,-95.5,-80", cli.ANALYTIC_METRICS),
    ((1.0, 1.5), "tx_power_dbm=-10:50:5", ("OP_pair",)),
    ((1.4, 1.5), "tx_power_dbm=-10:50:5", ("OP_pair",)),
    ((1.0, 1.5), "tx_power_dbm=-10:50:5", ("OP_oma",)),
    ((1.0, 1.5), "bandwidth_hz=1e6,1e7,1e8,3e9", cli.ANALYTIC_METRICS),
    ((1.4, 1.5), "bandwidth_hz=1e6,1e7,1e8,3e9", cli.ANALYTIC_METRICS),
], ids=["baseline", "infeasible", "resolution_bits", "L", "alpha3", "noise_dbm_override",
        "OP_pair", "OP_pair-infeasible", "OP_oma", "bandwidth_hz", "bandwidth_hz-infeasible"])
def test_analytic_bytes_and_calls_match_per_row_reference(tmp_path, baseline_cfg, monkeypatch,
                                                          target_rate, sweep, metrics):
    """analytic writes the bytes and exit code of a per-row reference built from the
    per-user laws, with one regularized-gamma call per user for OP (OP_user and
    OP_pair share it), one per user for OP_oma, and one E1 call per ER_user row.
    perfbench's count gate counts the calls of its own replay_analytic, which takes
    the per-row path; the count pinned here is the one a recorder of scbsim
    analytic's own calls would gate."""
    cfg = baseline_cfg.with_updates(target_rate=target_rate)
    cfg_path = tmp_path / "an.cfg"
    cfg_path.write_text(serialize_config(cfg))
    out = tmp_path / "an.csv"
    calls = {"gamma": 0, "e1": 0}

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    monkeypatch.setattr(analytics, "lower_incomplete_gamma_regularized",
                        counting("gamma", analytics.lower_incomplete_gamma_regularized))
    monkeypatch.setattr(analytics, "exp_scaled_e1", counting("e1", analytics.exp_scaled_e1))
    code = run_cli(["analytic", "--config", cfg_path, "--out", out, "--sweep", sweep,
                    "--metrics", ",".join(metrics)])
    counted = dict(calls)
    var, values = cli.parse_sweep(sweep)
    expected, violated = reference_analytic(cfg, var, values, metrics)
    assert out.read_bytes() == expected.encode()
    assert code == (5 if violated else 0)
    rows = [line.split(",") for line in expected.splitlines()[1:]]
    pair_rows = [r for r in rows if r[4].startswith("OP_pair")]
    assert len(pair_rows) == len(values) * cfg.M * ("OP_pair" in metrics)
    assert all(r[3] == "" for r in pair_rows)
    if target_rate == (1.0, 1.5):
        assert not violated
        gamma_per_user = ("OP_user" in metrics or "OP_pair" in metrics) + ("OP_oma" in metrics)
        assert counted == {"gamma": len(values) * gamma_per_user * cfg.M * cfg.K,
                           "e1": len(values) * cfg.M * ("ER_user" in metrics)}
    else:
        assert violated and code == 5
        names = {r[4] for r in rows}
        assert names == {m + "_infeasible" if m in ("OP_user", "OP_pair") else m
                         for m in metrics}


@pytest.mark.parametrize("sweep,per_point", [
    ("tx_power_dbm=-10:50:20", False), ("bandwidth_hz=1e6,1e8", False),
    ("noise_dbm_override=-110,-90", False), ("alpha3=2.0,3.0,4.0", True), ("L=1:3:1", True)])
def test_analytic_builds_power_free_terms_once_per_link_sweep(tmp_path, baseline_cfg,
                                                              monkeypatch, sweep, per_point):
    """A sweep over a link key takes each user's direct-link gain (largescale_direct)
    once, M*K calls in all; any other sweep takes them at every point, as simulate
    builds its surfaces."""
    calls = []
    real = analytics.largescale_direct

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(analytics, "largescale_direct", counted)
    out = tmp_path / "an.csv"
    assert run_cli(["analytic", "--config", BASE, "--out", out, "--sweep", sweep,
                    "--metrics", ",".join(cli.ANALYTIC_METRICS)]) == 0
    points = len(cli.parse_sweep(sweep)[1])
    assert len(calls) == baseline_cfg.M * baseline_cfg.K * (points if per_point else 1)


def test_analytic_rejects_unsupported_metric(tmp_path):
    assert run_cli(["analytic", "--config", BASE, "--metrics", "residue_mean"]) == 2


def test_analytic_rejects_a_repeated_metric(tmp_path, capsys):
    """A metric named twice would write its rows twice: a config error, no output file."""
    out = tmp_path / "an.csv"
    assert run_cli(["analytic", "--config", BASE, "--out", out,
                    "--metrics", "OP_user,ER_user,OP_user,ER_user"]) == 2
    assert capsys.readouterr().err == (
        "config error: repeated metrics ['OP_user', 'ER_user']; name each once\n")
    assert not out.exists()


@pytest.mark.parametrize("sweep", ["N=16,24", "master_seed=1,9007199254740993"])
def test_analytic_integer_sweeps_match_per_row_reference(tmp_path, baseline_cfg, sweep):
    """Integer sweeps, a seed beyond what a float holds among them, keep the bytes of
    the per-row reference: each point's fingerprint is fingerprint(point)."""
    out = tmp_path / "an.csv"
    assert run_cli(["analytic", "--config", BASE, "--out", out, "--sweep", sweep,
                    "--metrics", ",".join(cli.ANALYTIC_METRICS)]) == 0
    var, values = cli.parse_sweep(sweep)
    expected, violated = reference_analytic(baseline_cfg, var, values, cli.ANALYTIC_METRICS)
    assert not violated and out.read_bytes() == expected.encode()


def test_analytic_stops_at_an_invalid_sweep_point(tmp_path, capsys):
    """A point the config rejects ends analytic with a config error and no output file."""
    out = tmp_path / "bad.csv"
    assert run_cli(["analytic", "--config", BASE, "--out", out,
                    "--sweep", "bandwidth_hz=1e8,0"]) == 2
    assert ("config error: bandwidth_hz must be strictly positive and finite"
            in capsys.readouterr().err)
    assert not out.exists()


def test_csv_rows_leave_cluster_and_user_cells_empty(baseline_cfg):
    def row(m, k, metric, estimate, stderr, trials):
        return cli.csv_row("tx_power_dbm", 30, m, k, metric, estimate, stderr, trials,
                           baseline_cfg, "0123456789ab")

    assert row(None, None, "feasibility_rate", 0.5, 0.125, 7) == (
        "tx_power_dbm,30.0,,,feasibility_rate,0.5,0.125,7,ideal,aggregate,diffuse,0123456789ab")
    assert row(1, None, "SE", 2.0, 0.0, 7) == (
        "tx_power_dbm,30.0,1,,SE,2.0,0.0,7,ideal,aggregate,diffuse,0123456789ab")
    assert row(0, 1, "OP_user", 1e-300, 0.0, 0) == (
        "tx_power_dbm,30.0,0,1,OP_user,1e-300,0.0,0,ideal,aggregate,diffuse,0123456789ab")


def test_simulate_and_analytic_write_empty_cluster_and_user_cells(small_cfg_file, tmp_path):
    """Global and cluster rows of simulate and the OP_pair rows of analytic, as written."""
    out = tmp_path / "sim.csv"
    assert run_cli(["simulate", "--config", small_cfg_file, "--out", out, "--threads", 1,
                    "--metrics", "SE,EE,feasibility_rate"]) == 0
    assert [line.split(",")[:5] for line in out.read_text().splitlines()[1:]] == [
        ["tx_power_dbm", "0.0", "0", "", "SE"], ["tx_power_dbm", "0.0", "1", "", "SE"],
        ["tx_power_dbm", "0.0", "0", "", "EE"], ["tx_power_dbm", "0.0", "1", "", "EE"],
        ["tx_power_dbm", "0.0", "", "", "feasibility_rate"]]
    assert run_cli(["analytic", "--config", small_cfg_file, "--out", out,
                    "--metrics", "OP_pair"]) == 0
    assert [line.split(",")[:5] for line in out.read_text().splitlines()[1:]] == [
        ["tx_power_dbm", "0.0", "0", "", "OP_pair"], ["tx_power_dbm", "0.0", "1", "", "OP_pair"]]


@pytest.mark.parametrize("line,bad", [
    ("ris.N = 40", "ris.N = inf"),
    ("montecarlo.trials = 100000", "montecarlo.trials = inf"),
    ("rician_k2 = 3", "rician_k2 = inf"),
], ids=["N", "trials", "rician_k2"])
def test_simulate_non_finite_config_exit2(tmp_path, capsys, line, bad):
    """A non-finite config value is a config error before any work, not a traceback
    or a header-only CSV."""
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(BASE.read_text().replace(line, bad))
    out = tmp_path / "sim.csv"
    assert run_cli(["simulate", "--config", cfg_path, "--trials", 100, "--out", out]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith(f"config error: {bad.split()[0]}")


def test_sweep_parsing():
    var, values = cli.parse_sweep("tx_power_dbm=0:30:10")
    assert var == "tx_power_dbm" and values == (0.0, 10.0, 20.0, 30.0)
    var, values = cli.parse_sweep("N=8,16,40")
    assert values == (8.0, 16.0, 40.0)
    var, values = cli.parse_sweep("N=16:40:8")   # an integer range stays integer
    assert values == (16, 24, 32, 40) and all(type(v) is int for v in values)
    # and counts its points exactly: a float quotient rounds 2.99...9 up and passes the stop
    step = (2 ** 64 - 1) // 3
    var, values = cli.parse_sweep(f"master_seed=0:{2 ** 64 - 2}:{step}")
    assert values == (0, step, 2 * step)
    for bad in ("N=", "N=1,nan", "N=1,inf", "N=0:inf:10", "N=nan:10:1"):
        with pytest.raises(ConfigError):
            cli.parse_sweep(bad)


@pytest.mark.parametrize("sweep", ["foo=1,2", "ris_scenario=1", "p_bs_watt=1,2", "d_user=1"])
@pytest.mark.parametrize("command", ["simulate", "analytic"])
def test_sweep_of_non_numeric_field_exit2(small_cfg_file, tmp_path, monkeypatch, capsys,
                                          command, sweep):
    """Only a numeric ScenarioConfig field can be swept; any other name is a config
    error before any work, for every sweep command."""
    def no_point(*args, **kwargs):
        raise AssertionError("ran a sweep point")

    monkeypatch.setattr(mc, "sweep_config", no_point)
    out = tmp_path / "never.csv"
    assert run_cli([command, "--config", small_cfg_file, "--out", out,
                    "--sweep", sweep]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith(
        f"config error: cannot sweep {sweep.split('=')[0]!r}; choose from M, K, L,")


BIG_SEEDS = [2 ** 53 + 1, 2 ** 64 - 1]   # a float holds neither exactly


@pytest.mark.parametrize("seed", BIG_SEEDS)
def test_sweep_keeps_integer_values_exact(baseline_cfg, seed):
    var, values = cli.parse_sweep(f"master_seed={seed},7")
    assert values == (seed, 7) and all(type(v) is int for v in values)
    assert mc.sweep_config(baseline_cfg, var, values[0]).master_seed == seed
    # values a float holds keep printing as floats
    assert cli.csv_row(var, values[1], 0, 0, "OP_user", 0.5, 0.0, 1, baseline_cfg,
                       "f").split(",")[1] == "7.0"


@pytest.mark.parametrize("seed", BIG_SEEDS)
def test_simulate_sweeps_big_seeds_exactly(small_cfg_file, tmp_path, capsys, seed):
    """--sweep master_seed=S simulates the rows --seed S does."""
    rows = {}
    for name, args in (("sweep", ["--sweep", f"master_seed={seed}"]),
                       ("seed", ["--seed", seed])):
        out = tmp_path / f"{name}.csv"
        assert run_cli(["simulate", "--config", small_cfg_file, "--out", out, "--trials", 500,
                        "--metrics", "OP_user,ER_user", "--threads", 1, *args]) == 0
        rows[name] = [l.split(",") for l in out.read_text().splitlines()[1:]]
    assert len(rows["sweep"]) == 8
    assert [r[:2] for r in rows["sweep"]] == [["master_seed", str(seed)]] * 8
    assert [r[2:] for r in rows["sweep"]] == [r[2:] for r in rows["seed"]]
    err = capsys.readouterr().err
    assert f"[1/1] master_seed={seed} (500 trials)" in err and "failed" not in err


def test_dump_blocks(small_cfg_file, tmp_path):
    out = tmp_path / "dump.csv"
    assert run_cli(["dump", "--config", small_cfg_file, "--trial", "2",
                    "--out", out]) == 0
    lines = out.read_text().strip().splitlines()
    blocks = {l.split(",")[0] for l in lines[1:]}
    assert {"H", "W[0][0]", "G[1][1]", "H_tilde", "B", "phi", "residue"} <= blocks


@pytest.mark.parametrize("trial", [-1, 2 ** 64])
def test_dump_trial_out_of_range_exit2(small_cfg_file, capsys, trial):
    assert run_cli(["dump", "--config", small_cfg_file, "--trial", trial]) == 2
    assert "--trial must be in [0, 2^64)" in capsys.readouterr().err


def test_dump_last_trial_index(small_cfg_file, tmp_path):
    out = tmp_path / "last.csv"
    assert run_cli(["dump", "--config", small_cfg_file, "--trial", 2 ** 64 - 1,
                    "--out", out]) == 0
    assert any(l.startswith("residue,") for l in out.read_text().splitlines())


@pytest.mark.parametrize("threads", [0, -3])
@pytest.mark.parametrize("command", ["simulate", "validate"])
def test_threads_below_one_exit2(small_cfg_file, tmp_path, monkeypatch, capsys,
                                 command, threads):
    def no_run(*args, **kwargs):
        raise AssertionError("ran trials")

    monkeypatch.setattr(mc, "surface_stage", no_run)
    out = tmp_path / "never.csv"
    assert run_cli([command, "--config", small_cfg_file, "--out", out,
                    "--threads", threads]) == 2
    assert "--threads must be at least 1" in capsys.readouterr().err
    assert not out.exists()


SINGLE_CLUSTER = {"M": 1, "d_user": ((160.0, 80.0),), "d_direct": ((200.0, 100.0),)}


@pytest.mark.parametrize("mode,bits,cancellation,updates", [
    ("ideal", None, "aggregate", {}),
    ("bits=3", 3, "aggregate", {}),
    ("ideal", None, "per-symbol", {}),
    ("bits=3", 3, "per-symbol", {}),
    ("ideal", None, "aggregate", SINGLE_CLUSTER),
], ids=["ideal-None", "bits=3-3", "per-symbol-ideal", "per-symbol-bits=3", "M1"])
def test_dump_residues_are_the_engine_residues(small_cfg_file, tmp_path, mode, bits,
                                               cancellation, updates):
    cfg = load_config(small_cfg_file.read_text()).with_updates(**updates)
    cfg_path = tmp_path / "dump.cfg"
    cfg_path.write_text(serialize_config(cfg))
    cfg = cfg.with_updates(resolution_bits=bits, cancellation_mode=cancellation)
    for t in (0, 2):
        out = tmp_path / f"dump{t}.csv"
        assert run_cli(["dump", "--config", cfg_path, "--mode", mode,
                        "--cancellation", cancellation, "--trial", t, "--out", out]) == 0
        residue = run_trials(cfg, t + 1, threads=1).residue[t]
        lines = out.read_text().splitlines()
        rows = [l.split(",") for l in lines if l.startswith("residue,")]
        assert len(rows) == cfg.M * cfg.K
        for _, m, k, re, im in rows:
            assert re == repr(float(residue[int(m), int(k)])) and im == "0.0"
        if cfg.M == 1:   # no other cluster to cancel: an empty system, exact zero residues
            blocks = {l.split(",")[0] for l in lines[1:]}
            assert "H_tilde" not in blocks and "B" not in blocks and "phi" in blocks
            assert all(re == "0.0" for _, _, _, re, _ in rows)


def test_validate_subset_quick(small_cfg_file, capsys):
    code = run_cli(["validate", "--config", small_cfg_file,
                    "--checks", "table2,special_functions", "--quick"])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS table2" in out and "PASS special_functions" in out


def test_validate_writes_report_to_out(small_cfg_file, tmp_path, capsys):
    """--out receives the report lines, and stdout stays empty."""
    out = tmp_path / "report.txt"
    assert run_cli(["validate", "--config", small_cfg_file, "--checks", "special_functions",
                    "--out", out]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 and lines[0].startswith("PASS special_functions (")
    assert capsys.readouterr().out == ""


def test_validate_unknown_check_exit2(small_cfg_file, capsys):
    assert run_cli(["validate", "--config", small_cfg_file, "--checks", "bogus"]) == 2
    assert "config error: unknown checks ['bogus']" in capsys.readouterr().err


def test_validate_trials_override(small_cfg_file, capsys):
    """--trials replaces the per-point count, at least 2000; --quick divides it by 10."""
    args = ["validate", "--config", small_cfg_file, "--checks", "channel_statistics"]
    assert run_cli(args + ["--trials", 500]) == 2
    assert "at least 2000 trials" in capsys.readouterr().err
    for extra, draws in ((["--trials", 3000], 3000), (["--quick", "--trials", 30000], 3000),
                         (["--quick", "--trials", 5000], 2000)):
        assert run_cli(args + extra) == 0
        assert f"crit={ks_critical(draws, alpha=0.01):.5f}" in capsys.readouterr().out


def test_validate_trials_leave_config_fingerprint(small_cfg_file, capsys):
    """--trials sets the checks' per-point counts, not montecarlo.trials."""
    headers = []
    for extra in ([], ["--trials", 3000]):
        assert run_cli(["validate", "--config", small_cfg_file, "--checks", "table2",
                        *extra]) == 0
        headers.append(capsys.readouterr().err.split(" (")[0])
    assert headers[0] == headers[1]
    assert headers[0].startswith("validating config ")


def test_validate_failing_check_exit6(small_cfg_file, capsys):
    code = run_cli(["validate", "--config", small_cfg_file,
                    "--checks", "noma_vs_oma"])
    out = capsys.readouterr().out
    # the closed-form pair outage of NOMA exceeds OMA at this operating point
    assert "FAIL noma_vs_oma" in out
    assert code == 6


def test_validate_skips_infeasible_rates_and_runs_on(tmp_path, baseline_cfg, monkeypatch,
                                                     capsys):
    """A check with no closed form under the config's target rates is a SKIP that
    says why; the next check runs, and validate exits 5, or 6 once a check FAILs."""
    cfg_path = tmp_path / "inf.cfg"
    cfg_path.write_text(serialize_config(baseline_cfg.with_updates(target_rate=(1.4, 1.5))))
    args = ["validate", "--config", cfg_path, "--quick", "--checks", "noma_vs_oma,table2"]
    assert run_cli(args) == 5
    skip, after = capsys.readouterr().out.splitlines()
    assert skip.startswith("SKIP noma_vs_oma (")
    assert skip.endswith("s): no closed form to compare: "
                         "power allocation cannot sustain the target rates")
    assert after.startswith("PASS table2 (")
    monkeypatch.setattr(validation, "check_table2", lambda: validation.CheckResult(
        "table2", validation.FAIL, "forced", 0.0))
    assert run_cli(args) == 6
    assert capsys.readouterr().out.splitlines()[1] == "FAIL table2 (0.0s): forced"


def test_validate_skips_closed_form_checks_for_quantized(small_cfg_file, tmp_path,
                                                         baseline_cfg, capsys):
    cfg_path = tmp_path / "ni.cfg"
    cfg_path.write_text(serialize_config(baseline_cfg.with_updates(resolution_bits=3)))
    code = run_cli(["validate", "--config", cfg_path, "--quick",
                    "--checks", "op_vs_closed_form,er_vs_closed_form"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("SKIP") == 2
