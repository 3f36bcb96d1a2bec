"""Property test of the reproducibility contract: chunk, block and thread invariance.

Trial i is a pure function of (config, seed, i), so the surface stage's
arrays must not change with how [0, T) is cut into chunks and cache blocks,
nor with the number of threads the chunks run on.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from scbsim import montecarlo as mc
from scbsim.beamforming import system_rows
from scbsim.scenario import CANCELLATION_MODES

PROPERTY = settings(derandomize=True, database=None, max_examples=40, deadline=None)
FIELDS = ("eff_gain", "residue", "feasible", "residual_rel", "failed")


@st.composite
def surface_updates(draw):
    """Config updates: M, K, L in 1..3, N from 1 to 3x the rank bound, any seed."""
    M, K, L = (draw(st.integers(1, 3)) for _ in range(3))
    mode = draw(st.sampled_from(CANCELLATION_MODES))
    rows = max(1, system_rows(M, K, L, mode))
    return dict(
        M=M, K=K, L=L, N=draw(st.integers(1, 3 * rows)), cancellation_mode=mode,
        d_user=[[160.0 - 40.0 * k for k in range(K)]] * M,
        d_direct=[[200.0 - 50.0 * k for k in range(K)]] * M,
        power_alloc=[1.0 / K] * K, target_rate=[1.0] * K,
        resolution_bits=draw(st.none() | st.integers(1, 6)),
        master_seed=draw(st.integers(0, 2 ** 64 - 1)))


def arrays_of(surfaces):
    return [getattr(surfaces, f).tobytes() for f in FIELDS]


@PROPERTY
@given(updates=surface_updates(), trials=st.integers(1, 40), chunk=st.integers(1, 17),
       block_bytes=st.integers(1, 4096), threads=st.integers(1, 3))
def test_chunk_block_and_thread_invariance(baseline_cfg, updates, trials, chunk,
                                           block_bytes, threads):
    """Any CHUNK, BLOCK_BYTES and thread count give the default-cut 1-thread arrays."""
    cfg = baseline_cfg.with_updates(**updates)
    reference = arrays_of(mc.surface_stage(cfg, trials, threads=1))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mc, "CHUNK", chunk)
        patch.setattr(mc, "BLOCK_BYTES", block_bytes)
        assert arrays_of(mc.surface_stage(cfg, trials, threads=threads)) == reference
