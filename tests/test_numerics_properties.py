"""Property tests of the min-norm solver and of the array regularized gamma.

Solver stacks are built as U diag(s) V^H with known singular values:
condition numbers from 1 to 1e14, exact zeros, rows <= columns (the Gram path)
and rows > columns (SVD only).  The eigenvalue-ratio test of a a^H, computed
here with eigvalsh, is the reference for which trials the Gram path keeps.

The array P(s, x) must equal the scalar P on every element, byte for byte:
arguments are drawn over 1e-300 to 1e3, across the scalar's branches (0 to
2s + 2) and at their edges.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from scbsim import numerics
from scbsim.numerics import (
    GRAM_MIN_EIG_RATIO,
    lower_incomplete_gamma_regularized,
    lower_incomplete_gamma_regularized_array,
    min_norm_solve_batch,
)

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


def _q_edge(s):
    """The x at which Q(s, x) = 1 - P(s, x) crosses 0.9, by bisection on the scalar."""
    lo, hi = 0.0, s + 50.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if lower_incomplete_gamma_regularized(s, mid) < 0.1 else (lo, mid)
    return hi


def _branch_edges(s):
    """x at and beside each edge of the scalar's branches under shape s: s/2,
    s + 1, 708 and Q = 0.9, with 0 and inf."""
    edges = [0.0, math.inf]
    for x in (0.5 * s, s + 1.0, 708.0, _q_edge(s)):
        edges += [np.nextafter(x, 0.0), x, np.nextafter(x, math.inf)]
    return [float(x) for x in edges]


@st.composite
def gamma_arguments(draw):
    """(s, x): an integer shape, and x as a 0-d, 1-D (maybe empty) or 2-D array."""
    s = draw(st.integers(1, 12) | st.sampled_from([50, 200, 999]))
    value = (st.floats(-300.0, 3.0).map(lambda e: 10.0 ** e) | st.floats(1e-300, 1e3)
             | st.floats(0.0, 2.0 * s + 2.0) | st.sampled_from(_branch_edges(s)))
    xs = draw(st.lists(value, max_size=40))
    kind = draw(st.sampled_from(["0-d", "1-D", "2-D"]))
    if kind == "0-d":
        return s, np.array(xs[0] if xs else 1.0)
    if kind == "2-D":
        return s, np.array(xs[:len(xs) // 2 * 2]).reshape(2, -1)
    return s, np.array(xs)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(gamma_arguments())
def test_array_gamma_is_the_scalar_bit_for_bit(args):
    s, x = args
    got = lower_incomplete_gamma_regularized_array(s, x)
    expected = np.array([lower_incomplete_gamma_regularized(s, v) for v in x.ravel().tolist()])
    assert got.shape == x.shape
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("s", [1, 2, 7])
@pytest.mark.parametrize("bad", [math.nan, -1.0, -1e-300])
def test_array_gamma_raises_the_scalars_error(s, bad):
    x = np.array([0.5, bad, 3.0])
    with pytest.raises(ValueError) as scalar_error:
        lower_incomplete_gamma_regularized(s, bad)
    with pytest.raises(ValueError) as array_error:
        lower_incomplete_gamma_regularized_array(s, x)
    assert str(array_error.value) == str(scalar_error.value)


@pytest.mark.parametrize("s", [2.5, 1000, 1e4])
def test_array_gamma_hands_other_shapes_to_the_scalar(monkeypatch, s):
    """A non-integer shape or one from 1e3 on sends every element to the scalar,
    looked up at call time (which itself takes shape 1 at x = 0 and inf)."""
    calls = []
    scalar = numerics.lower_incomplete_gamma_regularized

    def counted(shape, v):
        if shape == s:
            calls.append(v)
        return scalar(shape, v)

    x = np.array([0.0, 1e-3, 0.4 * s, s, 3.0 * s, math.inf])
    monkeypatch.setattr(numerics, "lower_incomplete_gamma_regularized", counted)
    got = lower_incomplete_gamma_regularized_array(s, x)
    assert calls == x.tolist()
    assert got.tobytes() == np.array([scalar(s, v) for v in x.tolist()]).tobytes()
