"""Run one scbsim benchmark workload and print its metrics.

    python3 perfbench/run.py --workload mc_baseline --seed 1 --seconds 10 --trace 0

Run it from the repository root.  ``--trace 0`` reports the end-to-end metrics
of BENCHMARK.json, measured untraced; ``--trace 1`` reports its per-layer
metrics from a separate traced run.  Every metric is printed by name with its
unit; the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when every
correctness gate passed, 1 when one failed or a measuring process broke, and
2 when the checkout lacks scbsim's sources.

Measurement happens in child processes (worker.py) with BLAS pinned to one
thread, so that engine threads plus BLAS threads never exceed nproc: setup_s
is the median of SETUP_REPS fresh processes, and peak memory belongs to one
workload.  Scratch files and the recorded spans go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
REQUIRED = ("src/scbsim/__init__.py", "configs/baseline.cfg", "golden/special_functions.csv")
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPS = 5
DEADLINE_MARGIN_S = 60   # set-up processes, the round that overruns --seconds, the gates


class WorkerError(RuntimeError):
    pass


def run_worker(mode, args, cfg_path, tmp, deadline):
    """Run worker.py in one mode and return its result object."""
    result = Path(tmp) / f"{mode}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--config", str(cfg_path),
           "--tmp", str(tmp), "--result", str(result)]
    if mode == "trace":
        cmd += ["--spans", str(OUT / f"spans-{args.workload}-seed{args.seed}.json")]
    env = dict(os.environ, **PINNED)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{mode} run exceeded the time limit") from exc
    if proc.returncode != 0 or not result.is_file():
        raise WorkerError(f"{mode} run exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(result.read_text(encoding="utf-8"))


def main(argv=None):
    ap = argparse.ArgumentParser(description="scbsim benchmark: one workload, one seed")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True, help="measuring time of the run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: {', '.join(missing)} not found; run from an scbsim checkout",
              file=sys.stderr)
        return 2
    if not (0 <= args.seed < 2 ** 64 and args.seconds >= 1):
        print("perfbench: --seed must be an unsigned 64-bit integer, --seconds >= 1",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + 2 * args.seconds + DEADLINE_MARGIN_S
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    w = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            cfg_path = Path(tmp) / f"{w.name}.cfg"
            base = (ROOT / "configs" / "baseline.cfg").read_text(encoding="utf-8")
            cfg_path.write_text(workloads.config_text(base, w.overrides), encoding="utf-8")
            setups = [] if args.trace else [
                run_worker("setup", args, cfg_path, tmp, deadline)["metrics"]["setup_s"]
                for _ in range(SETUP_REPS)]
            result = run_worker("trace" if args.trace else "measure", args, cfg_path, tmp,
                                deadline)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    metrics = result["metrics"]
    if setups:
        metrics["setup_s"] = statistics.median(setups)
    if set(metrics) != set(declared):
        print(f"perfbench: measured {sorted(metrics)} but BENCHMARK.json declares "
              f"{sorted(declared)}", file=sys.stderr)
        return 1

    for name, unit in declared.items():
        print(f"{w.name:13s} {name:40s} {metrics[name]!r:>24} {unit}")
    for name, checks, failures, detail in result["gates"]:
        print(f"gate {'PASS' if not failures else 'FAIL'} {name} ({checks} checks"
              + (f"; {failures} failed: {detail})" if failures else ")"))
    if result["samples"]:
        print("samples (seconds per pass) " + json.dumps(result["samples"]))
    print("env " + json.dumps(result["env"], sort_keys=True))
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
