import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from scbsim import montecarlo
from scbsim.scenario import load_config

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


@pytest.fixture(scope="session")
def baseline_cfg():
    """The shipped two-cluster baseline scenario."""
    return load_config((CONFIG_DIR / "baseline.cfg").read_text())


@pytest.fixture()
def fail_trial(monkeypatch):
    """fail_trial(i): from then on, every surface chunk that contains trial i raises.

    The engine's salvage path then reruns that chunk one trial at a time, and
    only trial i's one-trial chunk raises again.
    """
    def inject(trial):
        real = montecarlo._surface_chunk

        def chunk(cfg, gains, start, count, out=None):
            if start <= trial < start + count:
                raise np.linalg.LinAlgError(f"injected failure of trial {trial}")
            return real(cfg, gains, start, count, out)

        monkeypatch.setattr(montecarlo, "_surface_chunk", chunk)

    return inject


@pytest.fixture()
def baseline_text():
    return (CONFIG_DIR / "baseline.cfg").read_text()
