"""Property test of the min-norm solver against the truncated-SVD reference.

Stacks are built as U diag(s) V^H with known singular values: condition
numbers from 1 to 1e14, exact zeros, rows <= columns (the Gram path) and
rows > columns (SVD only).  The eigenvalue-ratio test of a a^H, computed
here with eigvalsh, is the reference for which trials the Gram path keeps.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from scbsim import numerics
from scbsim.numerics import GRAM_MIN_EIG_RATIO, min_norm_solve_batch

PROPERTY = settings(derandomize=True, database=None, max_examples=300, deadline=None)


def _unitary(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q


@st.composite
def systems(draw):
    """(a, b, s): T stacked r x c systems with singular values s (T, min(r, c))."""
    T, r, c = draw(st.integers(1, 6)), draw(st.integers(1, 7)), draw(st.integers(1, 8))
    k = min(r, c)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    s = np.empty((T, k))
    for t in range(T):
        # half the draws near the Gram threshold cond(a) = 100
        log_cond = draw(st.floats(0.0, 14.0) | st.floats(1.8, 2.05))
        # spread out, or clustered at the two ends, where cond_F is furthest from cond_2
        spread = rng.uniform(0.0, log_cond, k) if draw(st.booleans()) else \
            log_cond * rng.integers(0, 2, k)
        s[t] = np.sort(10.0 ** -spread)[::-1]
        s[t, 0], s[t, -1] = 1.0, 10.0 ** -log_cond if k > 1 else 1.0
        s[t, k - draw(st.integers(0, k)):] = 0.0   # exact zeros at the bottom
        s[t] *= 10.0 ** draw(st.integers(-30, 30) | st.integers(-110, 110))
    a = np.stack([(_unitary(rng, r)[:, :k] * s[t]) @ _unitary(rng, c)[:, :k].conj().T
                  for t in range(T)])
    b = rng.standard_normal((T, r)) + 1j * rng.standard_normal((T, r))
    if draw(st.booleans()):   # a consistent target
        b = np.einsum("tij,tj->ti", a, rng.standard_normal((T, c)) + 0j)
    return a, b, s


@PROPERTY
@given(systems())
def test_min_norm_matches_truncated_svd(system):
    a, b, s = system
    x, resid = min_norm_solve_batch(a, b)
    x_ref, resid_ref = numerics._svd_min_norm(a, b)
    r, c = a.shape[-2:]
    accepted = np.zeros(len(a), dtype=bool)
    if r <= c:
        _, _, accepted = numerics._gram_min_norm(a, b)
        ev = np.linalg.eigvalsh(a @ a.conj().swapaxes(-1, -2))
        lo, hi = ev[:, 0], ev[:, -1]
        assert not accepted[(s == 0).any(axis=-1)].any()   # no rank-deficient trial
        assert (lo > GRAM_MIN_EIG_RATIO * hi)[accepted].all()   # the eigenvalue-ratio test
        # and it keeps every trial that passes by more than eigvalsh's rounding
        assert accepted[lo > (1 + 1e-9) * GRAM_MIN_EIG_RATIO * hi].all()
    # a Gram solve agrees with the SVD to the error bound of cond(a) <= 100
    norm_b = np.linalg.norm(b, axis=-1)
    x_norm, x_ref_norm = np.linalg.norm(x, axis=-1), np.linalg.norm(x_ref, axis=-1)
    assert (abs(x_norm - x_ref_norm) <= 1e-10 * x_ref_norm)[accepted].all()
    assert (abs(resid - resid_ref) <= 1e-10 * norm_b)[accepted].all()
    # every other trial is the SVD's answer
    assert np.array_equal(x[~accepted], x_ref[~accepted])
    assert np.array_equal(resid[~accepted], resid_ref[~accepted])
