"""The benchmark's workloads and the config text each one hands to scbsim.

Pure Python (no numpy), so run.py can write the config files before any
measured process starts.  Every config is ``configs/baseline.cfg`` with a few
keys replaced; the seed is not part of the text but passed as ``--seed``.
"""

from __future__ import annotations

from dataclasses import dataclass

CHUNK = 2048   # montecarlo.CHUNK: trial counts are whole chunks, at least two per engine thread

MC_METRICS = "OP_user,OP_pair,OP_oma,ER_user,SE,EE,feasibility_rate"
CLOSED_FORM_METRICS = "OP_user,OP_pair,OP_oma,ER_user"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    overrides: dict        # config key -> value text, applied to configs/baseline.cfg
    sweep: str             # --sweep argument
    metrics: str           # --metrics argument
    monte_carlo: bool = True


WORKLOADS = {w.name: w for w in (
    Workload(
        "mc_baseline",
        "the shipped baseline run; solve-bound, with the largest per-trial Python share in draw",
        {"montecarlo.trials": str(4 * CHUNK)},
        "tx_power_dbm=0,10,20,30", MC_METRICS,
    ),
    Workload(
        "mc_wide_3bit",
        "N=256 at 3 bits: bulk-array-bound draw and assemble, the only workload that quantizes",
        {"montecarlo.trials": str(2 * CHUNK), "ris.N": "256", "ris.resolution_bits": "3"},
        "tx_power_dbm=20,40", MC_METRICS,
    ),
    Workload(
        "mc_tall_m3",
        "24x96 systems: the solver at its largest share and draw at its smallest",
        {"montecarlo.trials": str(2 * CHUNK), "M": "3", "L": "4", "ris.N": "96",
         "geometry.d_user": "160, 80; 160, 80; 160, 80",
         "geometry.d_direct": "200, 100; 200, 100; 200, 100"},
        "tx_power_dbm=0,20", MC_METRICS,
    ),
    Workload(
        "closed_form",
        "no Monte Carlo: analytic sweep, gamma_cdf KS path and quadrature checks on scalar special functions",
        {},
        "tx_power_dbm=-10:50:0.05", CLOSED_FORM_METRICS, monte_carlo=False,
    ),
)}


def config_text(base_text, overrides):
    """``base_text`` with each overridden key's line replaced; missing keys are appended."""
    lines, seen = [], set()
    for raw in base_text.splitlines():
        key = raw.split("#", 1)[0].partition("=")[0].strip()
        if key in overrides:
            lines.append(f"{key} = {overrides[key]}")
            seen.add(key)
        else:
            lines.append(raw)
    lines += [f"{key} = {value}" for key, value in overrides.items() if key not in seen]
    return "\n".join(lines) + "\n"
