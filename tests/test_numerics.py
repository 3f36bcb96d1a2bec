import math
import sys
import time
import warnings

import numpy as np
import pytest

from scbsim import numerics
from scbsim.numerics import (
    NumericsError,
    adaptive_quadrature,
    exp_scaled_e1,
    exp_scaled_en,
    exponential_integral_ei,
    gamma_cdf,
    ks_critical,
    ks_statistic,
    lower_incomplete_gamma_regularized,
    min_norm_solve_batch,
    quadrature_semi_infinite,
)


# -- minimum-norm solver ------------------------------------------------------

def test_min_norm_axis_solution():
    x, resid = min_norm_solve_batch([[1.0, 0.0, 0.0]], [2.0])
    assert np.allclose(x, [2.0, 0.0, 0.0])
    assert resid == pytest.approx(0.0, abs=1e-14)


def test_min_norm_identity():
    x, resid = min_norm_solve_batch(np.eye(2), [1.0, 1j])
    assert np.allclose(x, [1.0, 1j])
    assert resid < 1e-14


def test_min_norm_underdetermined_null_space_oracle():
    rng = np.random.default_rng(42)
    a = (rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8))) / np.sqrt(2)
    b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    x, resid = min_norm_solve_batch(a, b)
    assert resid <= 1e-10 * np.linalg.norm(b)
    # any null-space perturbation must increase the norm
    pinv = np.linalg.pinv(a)
    proj = np.eye(8) - pinv @ a
    for seed in range(5):
        z = np.random.default_rng(seed).standard_normal(8) * (1 + 0.5j)
        alt = x + proj @ z
        assert np.linalg.norm(a @ alt - b) <= 1e-9 * np.linalg.norm(b)
        assert np.linalg.norm(x) <= np.linalg.norm(alt) + 1e-12


def test_min_norm_overdetermined_least_squares():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    b = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    x, resid = min_norm_solve_batch(a, b)
    lstsq = np.linalg.lstsq(a, b, rcond=None)[0]
    assert np.allclose(x, lstsq, atol=1e-10)
    assert resid == pytest.approx(np.linalg.norm(a @ x - b), rel=1e-12)
    # a stack of tall systems never takes the Gram path
    a = np.stack([a, 2.0 * a, a.conj()])
    b = np.stack([b, b, b.conj()])
    xs, resids = min_norm_solve_batch(a, b)
    for t in range(3):
        lstsq = np.linalg.lstsq(a[t], b[t], rcond=None)[0]
        assert np.allclose(xs[t], lstsq, atol=1e-10)
        assert resids[t] == pytest.approx(np.linalg.norm(a[t] @ lstsq - b[t]), rel=1e-10)


def test_min_norm_batch_matches_single():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((5, 3, 7)) + 1j * rng.standard_normal((5, 3, 7))
    b = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    xs, resids = min_norm_solve_batch(a, b)
    for t in range(5):
        x, r = min_norm_solve_batch(a[t], b[t])
        assert np.allclose(xs[t], x, atol=1e-12)
        assert resids[t] == pytest.approx(r, abs=1e-12)


def test_min_norm_rejects_bad_input():
    with pytest.raises(ValueError, match="dimension"):
        min_norm_solve_batch(np.eye(3), [1.0, 2.0])
    with pytest.raises(ValueError, match="finite"):
        min_norm_solve_batch([[np.nan, 1.0]], [1.0])


def test_min_norm_rank_deficient_truncation():
    a = np.array([[1.0, 0.0], [1.0, 0.0]])   # rank 1
    x, resid = min_norm_solve_batch(a, [1.0, 0.0])
    assert np.isfinite(x).all()
    assert resid == pytest.approx(np.sqrt(0.5), rel=1e-10)


def _complex_normals(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


@pytest.mark.parametrize("r,c", [(8, 40), (8, 256), (24, 96), (3, 4)])
def test_min_norm_gram_path_matches_svd(r, c):
    rng = np.random.default_rng(r * 1000 + c)
    a = _complex_normals(rng, (64, r, c))
    b = _complex_normals(rng, (64, r))
    _, _, accepted = numerics._gram_min_norm(a, b)
    assert accepted.all()
    x, resid = min_norm_solve_batch(a, b)
    x_svd, resid_svd = numerics._svd_min_norm(a, b)
    rel = np.linalg.norm(x - x_svd, axis=-1) / np.linalg.norm(x_svd, axis=-1)
    assert rel.max() <= 1e-12
    assert resid.max() <= 1e-12 * np.linalg.norm(b, axis=-1).min()
    assert resid_svd.max() <= 1e-12 * np.linalg.norm(b, axis=-1).min()


def test_min_norm_gram_fallback_is_per_trial():
    rng = np.random.default_rng(7)
    a = _complex_normals(rng, (6, 2, 3))
    b = _complex_normals(rng, (6, 2))
    # trial 1: two parallel rows with a consistent target (rank 1); its Gram
    # matrix is singular up to rounding
    a[1] = [[1.0, 1j, 0.5], [2.0, 2j, 1.0]]
    b[1] = [1.0, 2.0]
    # trial 4: an all-zero row; its Gram matrix is exactly singular, which
    # would make a stacked LU solve raise
    a[4] = [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
    b[4] = [3.0, 0.0]
    _, _, accepted = numerics._gram_min_norm(a, b)
    assert accepted.tolist() == [True, False, True, True, False, True]

    x, resid = min_norm_solve_batch(a, b)
    alone = [0, 2, 3, 5]
    x_alone, resid_alone = min_norm_solve_batch(a[alone], b[alone])
    assert np.array_equal(x[alone], x_alone)
    assert np.array_equal(resid[alone], resid_alone)
    x_svd, resid_svd = numerics._svd_min_norm(a[[1, 4]], b[[1, 4]])
    assert np.array_equal(x[[1, 4]], x_svd)
    assert np.array_equal(resid[[1, 4]], resid_svd)
    assert np.allclose(x[4], [3.0, 0.0, 0.0], atol=1e-14)
    assert np.allclose(x[1], np.linalg.pinv(a[1]) @ b[1], atol=1e-12)
    assert resid[1] <= 1e-12


def _count_calls(monkeypatch, name):
    """Record the argument shape of each np.linalg.<name> call."""
    calls, real = [], getattr(np.linalg, name)

    def counted(m, *args, **kwargs):
        calls.append(np.shape(m))
        return real(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_min_norm_gram_path_makes_one_lapack_call(monkeypatch):
    """A well-conditioned stack costs one stacked inv: no eigvalsh and no solve."""
    rng = np.random.default_rng(64)
    a = _complex_normals(rng, (64, 8, 256))
    b = _complex_normals(rng, (64, 8))
    x_svd, _ = numerics._svd_min_norm(a, b)

    def refuse(*args, **kwargs):
        raise AssertionError("the Gram path called eigvalsh or solve")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "solve", refuse)
    inv_calls = _count_calls(monkeypatch, "inv")
    x, resid = min_norm_solve_batch(a, b)
    assert inv_calls == [(64, 8, 8)]
    rel = np.linalg.norm(x - x_svd, axis=-1) / np.linalg.norm(x_svd, axis=-1)
    assert rel.max() <= 1e-12
    assert resid.max() <= 1e-12 * np.linalg.norm(b, axis=-1).min()


@pytest.mark.parametrize("spectrum, accepted, eig_calls", [
    ((1.0, 1 / 5e3), True, []),                     # cond_F = cond_2 + 1/cond_2 < 1e4
    ((1.0, 1 / (1e4 * (1 - 1e-9))), True, [(1, 2, 2)]),
    ((1.0, 1 / (1e4 * (1 + 1e-9))), False, []),     # cond_F >= (r/2)(1e4 + 1e-4)
    ((1.0,) * 3 + (1 / 9.9e3,) * 3, True, [(1, 6, 6)]),
    ((1.0,) * 3 + (1 / 1.01e4,) * 3, False, []),
], ids=["cond_F_passes", "just_below", "just_above", "clustered_below", "clustered_above"])
def test_min_norm_gram_boundary(monkeypatch, spectrum, accepted, eig_calls):
    """Diagonal Grams near cond_2 = 1e4.

    At r = 2, cond_F = cond_2 + 1/cond_2, so cond_2 just below 1e4 has cond_F
    above 1e4 and takes eigvalsh of that trial alone; just above 1e4, cond_F
    reaches (r/2)(1e4 + 1e-4) and fails it without eigenvalues.  Three
    eigenvalues at each end give cond_F = 3 (cond_2 + 1/cond_2), the most
    any r = 6 spectrum can have."""
    r = len(spectrum)
    a = np.hstack([np.diag(np.sqrt(spectrum)), np.zeros((r, 1))])[None]
    b = np.sqrt(spectrum)[None]
    calls = _count_calls(monkeypatch, "eigvalsh")
    _, _, ok = numerics._gram_min_norm(a, b)
    assert ok.tolist() == [accepted] and calls == eig_calls
    x, resid = min_norm_solve_batch(a, b)
    if accepted:
        assert np.allclose(x, [[1.0] * r + [0.0]], rtol=0, atol=1e-12)
    else:
        x_svd, resid_svd = numerics._svd_min_norm(a, b)
        assert np.array_equal(x, x_svd) and np.array_equal(resid, resid_svd)


@pytest.mark.parametrize("scale", [1e79, 1e-79])
def test_min_norm_gram_norm_overflow_takes_eigenvalues(monkeypatch, scale):
    """||G||_F^2 ||G^-1||_F^2 overflows although G and G^-1 are finite and
    cond_2 = 4: eigvalsh, not the overflow, decides, and the trial stays on
    the Gram path."""
    a = np.array([[[scale, 0.0, 0.0], [0.0, 0.5 * scale, 0.0]]])
    b = np.array([[scale, 0.5 * scale]])
    calls = _count_calls(monkeypatch, "eigvalsh")
    _, _, ok = numerics._gram_min_norm(a, b)
    assert ok.tolist() == [True] and calls == [(1, 2, 2)]
    x, _ = min_norm_solve_batch(a, b)
    assert np.allclose(x, [[1.0, 1.0, 0.0]], rtol=0, atol=1e-12)


def test_min_norm_gram_overflow_falls_back_quietly():
    # the Gram matrix overflows to inf; the SVD path still solves the system
    a = np.array([[[1e200, 0.0, 0.0], [0.0, 1e200, 0.0]]])
    b = np.ones((1, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, resid = min_norm_solve_batch(a, b)
    assert np.allclose(x, [[1e-200, 1e-200, 0.0]], rtol=1e-12, atol=0.0)
    assert resid[0] <= 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
@pytest.mark.parametrize("where", ["a", "b"])
def test_min_norm_gram_path_rejects_non_finite_trial(bad, where):
    """A non-finite entry in one trial of a Gram-path stack (rows <= columns) raises,
    whether it sits in a, where only its trial's Gram is scanned, or in b."""
    rng = np.random.default_rng(11)
    a = _complex_normals(rng, (5, 3, 8))
    b = _complex_normals(rng, (5, 3))
    if where == "a":
        a[3, 2, 6] = bad
    else:
        b[3, 1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite input"):
            min_norm_solve_batch(a, b)


def test_min_norm_finite_gram_overflow_falls_back_per_trial():
    """A finite stack in which one trial's Gram overflows does not raise: that trial
    takes the SVD, and the others keep the answers they get without it."""
    rng = np.random.default_rng(12)
    a = _complex_normals(rng, (4, 2, 5))
    b = _complex_normals(rng, (4, 2))
    a[2] *= 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, resid = min_norm_solve_batch(a, b)
    x_svd, resid_svd = numerics._svd_min_norm(a[2:3], b[2:3])
    assert np.array_equal(x[2], x_svd[0]) and np.array_equal(resid[2], resid_svd[0])
    rest = [0, 1, 3]
    x_rest, resid_rest = min_norm_solve_batch(a[rest], b[rest])
    assert np.array_equal(x[rest], x_rest) and np.array_equal(resid[rest], resid_rest)


def test_min_norm_batch_leading_shapes():
    rng = np.random.default_rng(9)
    a = _complex_normals(rng, (2, 3, 4, 10))
    b = _complex_normals(rng, (2, 3, 4))
    x, resid = min_norm_solve_batch(a, b)
    assert x.shape == (2, 3, 10) and resid.shape == (2, 3)
    x2, resid2 = min_norm_solve_batch(a[1, 2], b[1, 2])
    assert x2.shape == (10,) and resid2.shape == ()
    assert np.allclose(x2, x[1, 2], atol=1e-14)


@pytest.mark.parametrize("shape", [(4, 3, 8), (4, 6, 3)])
def test_min_norm_batch_rejects_non_finite(shape):
    rng = np.random.default_rng(10)
    a = _complex_normals(rng, shape)
    b = _complex_normals(rng, shape[:2])
    b[2, 1] = np.inf
    with pytest.raises(ValueError, match="non-finite input"):
        min_norm_solve_batch(a, b)
    b[2, 1] = 0.0
    a[3, 0, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite input"):
        min_norm_solve_batch(a, b)


# -- regularized lower incomplete gamma ----------------------------------------

def test_gamma_closed_forms():
    assert lower_incomplete_gamma_regularized(1.0, 1.0) == pytest.approx(
        1.0 - math.exp(-1.0), rel=1e-14)
    assert lower_incomplete_gamma_regularized(2.0, 0.0) == 0.0
    assert lower_incomplete_gamma_regularized(2.0, 1.0) == pytest.approx(
        1.0 - 2.0 * math.exp(-1.0), rel=1e-13)


@pytest.mark.parametrize("s", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("x", [0.1, 1.0, 10.0])
def test_gamma_vs_quadrature(s, x):
    def density(t):
        t = np.maximum(t, 1e-300)
        return np.exp((s - 1) * np.log(t) - t - math.lgamma(s))
    quad = adaptive_quadrature(density, 0.0, x, tol=1e-13)
    assert abs(lower_incomplete_gamma_regularized(s, x) - quad) < 1e-9


def test_gamma_is_a_cdf():
    for s in (0.5, 1.0, 3.0, 64.0):
        values = [lower_incomplete_gamma_regularized(s, x)
                  for x in (0.0, 0.3, 1.0, 3.0, 10.0, 300.0)]
        assert values[0] == 0.0
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert values[-1] > 0.999 or s > 100


def test_gamma_domain_errors():
    with pytest.raises(ValueError):
        lower_incomplete_gamma_regularized(0.0, 1.0)
    with pytest.raises(ValueError):
        lower_incomplete_gamma_regularized(2.0, -0.1)
    with pytest.raises(ValueError):
        lower_incomplete_gamma_regularized(math.nan, 1.0)
    with pytest.raises(ValueError):
        exp_scaled_e1(math.nan)
    # an infinite shape is a domain error, not 20000 series steps
    with pytest.raises(ValueError, match="finite"):
        lower_incomplete_gamma_regularized(math.inf, 1.0)
    with pytest.raises(ValueError, match="finite"):
        gamma_cdf([1.0], math.inf)


def _generic_gamma(s, x):
    """P(s, x) from the series below s + 1 and the continued fraction above alone:
    the routing before the integer-shape branches, as the accuracy floor."""
    if x < s + 1.0:
        return numerics._gamma_series(s, x)
    return 1.0 - math.exp(-x + s * math.log(x) - math.lgamma(s)) * numerics._upper_gamma_cf(s, x)


def _gamma_oracle_points(s, mpmath):
    """x from 1e-300 to 1e3, with each branch switch and its float neighbours:
    x = s/2, Q = 0.9 (P = 0.1), x = s + 1 and x = 708."""
    x_q = float(mpmath.findroot(
        lambda t: mpmath.gammainc(s, 0, t, regularized=True) - 0.1, (1e-3, s + 1.0),
        solver="illinois"))
    switches = [0.5 * s, x_q, s + 1.0, 707.9, 708.0, 709.0]
    near = [v for x in switches for v in (math.nextafter(x, 0.0), x, math.nextafter(x, math.inf))]
    grid = np.concatenate([np.geomspace(1e-300, 1e3, 61), np.geomspace(1e-2, 1e3, 81)])
    return sorted(set(near + grid.tolist()))


@pytest.mark.parametrize("s", [*range(1, 9), 16, 64])
def test_gamma_integer_shape_vs_mpmath(s):
    """The integer-shape branches (s = 1, and 1 - Q where Q <= 0.9) are within 1e-14
    relative of 50-digit mpmath, and no point is less accurate than the generic
    series/continued-fraction pair, up to that same 1e-14.  At s = 16 and 64,
    1 - Q taken where Q > 0.9 would lose several digits near x = s/2."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    checked = 0
    for x in _gamma_oracle_points(s, mpmath):
        ref = mpmath.gammainc(s, 0, x, regularized=True)
        if ref < sys.float_info.min:   # subnormal results carry no relative accuracy
            continue
        got = lower_incomplete_gamma_regularized(s, x)
        err = float(abs(got - ref) / ref)
        err_generic = float(abs(_generic_gamma(s, x) - ref) / ref)
        assert err <= max(err_generic, 1e-14), (s, x, err, err_generic)
        if s == 1 or (0.5 * s <= x <= 708.0 and ref >= 0.1):
            assert err <= 1e-14, (s, x, err)
            checked += 1
    assert checked >= 20


def test_gamma_integer_shape_past_708_takes_the_generic_branches():
    """Past x = 708, where e^-x leaves the normal range, an integer shape falls back
    to the series or the continued fraction, bit for bit."""
    for s in (700, 710, 720):
        for x in np.linspace(708.01, 712.0, 9).tolist():
            assert lower_incomplete_gamma_regularized(s, x) == _generic_gamma(s, x), (s, x)


def test_gamma_large_shape_stays_finite():
    """No overflow, NaN or warning at s = 64, 1000.5 and 1e6 from x = 1e-300 up to
    1e300, and P is a CDF there."""
    for s in (64, 1e3 + 0.5, 1e6):
        xs = sorted(set(np.geomspace(1e-300, 1e300, 601).tolist()
                        + [32.0, 64.0, 65.0, 708.0, 709.0, 0.5 * s, s, s + 1.0, s * 1e-16]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = [lower_incomplete_gamma_regularized(s, x) for x in xs]
        assert all(0.0 <= v <= 1.0 for v in values), s
        assert all(a <= b for a, b in zip(values, values[1:])), s
        assert values[0] == 0.0 and values[-1] == 1.0, s


@pytest.mark.parametrize("s", [1e7, 1e7 + 0.5, 1e8])
def test_gamma_huge_shape_near_the_median_vs_scipy(s):
    """Near x = s the series needs about 8.6 sqrt(s) terms, past a fixed 20000-step
    cap from s = 5.4e6 on; the cap grows with sqrt(s).  Within 1e-11 relative of
    scipy (its Temme expansion is exact to rounding there), the rounding of about
    10 sqrt(s) series terms."""
    special = pytest.importorskip("scipy.special")
    for x in (s - math.sqrt(s), s, s + math.sqrt(s)):
        ref = float(special.gammainc(s, x))
        assert lower_incomplete_gamma_regularized(s, x) == pytest.approx(ref, rel=1e-11, abs=0)


@pytest.mark.parametrize("s, x", [(1e13, 1e13), (1e20, 1e20), (1e20, 2e20)])
def test_gamma_rejects_shapes_past_the_bound(s, x):
    """Past s = 1e12 the series near x = s would run to its 1e7-step cap (~1.2 s, then
    NumericsError), and past 2^53 the continued fraction divides by zero: such a shape
    is a domain error, raised at once, for the scalar and for gamma_cdf alike."""
    for call in (lambda: lower_incomplete_gamma_regularized(s, x), lambda: gamma_cdf([x], s)):
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match=r"at most 1e\+12"):
            call()
        assert time.perf_counter() - t0 < 0.05
    # the bound itself is a valid shape
    assert lower_incomplete_gamma_regularized(1e12, 1e6) == 0.0
    assert lower_incomplete_gamma_regularized(1e12, 2e12) == 1.0


def _mpmath_gamma_series(s, x, mpmath):
    """P(s, x) from its power series in mpmath's working precision."""
    s, x = mpmath.mpf(s), mpmath.mpf(x)
    term = total = 1 / s
    n = 0
    while term > total * mpmath.mpf(10) ** -35:
        n += 1
        term *= x / (s + n)
        total += term
    return total * mpmath.exp(-x + s * mpmath.log(x) - mpmath.loggamma(s))


@pytest.mark.parametrize("s", [1e3, 2.5e4 + 0.5, 1e5])
def test_gamma_large_shape_prefactor_vs_mpmath(s):
    """From s = 1e3 the prefactor x^s e^-x / Gamma(s) comes from Stirling's series:
    written as e^(-x + s log x - lgamma(s)), it carries the rounding of terms near
    s log x (4e-10 relative at s = 1e5), which the lower tail shows."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    for x in (s - 5 * math.sqrt(s), s - math.sqrt(s), s + 0.5):
        ref = _mpmath_gamma_series(s, x, mpmath)
        got = lower_incomplete_gamma_regularized(s, x)
        assert float(abs(got - ref) / ref) <= 1e-12, (s, x)


def test_gamma_nan_argument_raises_at_once():
    """A NaN argument is a domain error, not 20000 continued-fraction steps and a
    convergence failure."""
    with pytest.raises(ValueError, match="argument must be >= 0"):
        lower_incomplete_gamma_regularized(2, math.nan)
    with pytest.raises(ValueError, match="argument must be >= 0"):
        gamma_cdf([1.0, math.nan], 2)


def test_gamma_cdf_helper_vectorizes():
    xs = np.array([0.0, 1.0, 2.0])
    out = gamma_cdf(xs, 2)
    assert out.shape == (3,)
    assert out[0] == 0.0
    assert gamma_cdf(1.0, 2) == pytest.approx(out[1])


@pytest.mark.parametrize("x", [
    np.random.default_rng(5).gamma(2.0, 1.0, (40, 3)),   # both branches, 2-D
    [0.0, -0.0, -1.5, 1e-300, 2.5, 3.0, 700.0, math.inf],   # a list, negatives clipped
    np.float64(2.75),                                     # 0-d
    np.array(-0.0),
])
@pytest.mark.parametrize("shape", [1, 2, 4])
def test_gamma_cdf_is_the_scalar_per_element(x, shape):
    """gamma_cdf(x) equals the scalar P(shape, max(v, 0)) element by element, bit for bit."""
    xs = np.asarray(x, dtype=float)
    out = gamma_cdf(x, shape)
    expected = [lower_incomplete_gamma_regularized(shape, max(float(v), 0.0))
                for v in xs.ravel()]
    if xs.ndim == 0:
        assert type(out) is float and out == expected[0]
    else:
        assert out.shape == xs.shape and out.dtype == np.float64
        assert out.ravel().tobytes() == np.array(expected).tobytes()


def test_gamma_cdf_calls_the_scalar_once_per_element(monkeypatch):
    """One call of the module-level scalar per element, looked up when gamma_cdf runs:
    the benchmark counts calls by patching that name."""
    calls = []
    real = numerics.lower_incomplete_gamma_regularized

    def counted(s, x):
        calls.append((s, x))
        return real(s, x)

    monkeypatch.setattr(numerics, "lower_incomplete_gamma_regularized", counted)
    xs = np.linspace(-1.0, 9.0, 37).reshape(37, 1)
    gamma_cdf(xs, 3)
    assert len(calls) == xs.size
    assert all(type(x) is float and s == 3 for s, x in calls)


# -- exponential integral --------------------------------------------------------

def test_ei_reference_values():
    # frozen from the quadrature oracle below
    assert exponential_integral_ei(-1.0) == pytest.approx(-0.21938393439552029, rel=1e-12)
    assert exponential_integral_ei(-0.5) == pytest.approx(-0.5597735947761607, rel=1e-12)


def test_ei_vs_quadrature_oracle():
    for t in (0.5, 1.0, 7.0):
        quad = quadrature_semi_infinite(lambda u: np.exp(-(t + u)) / (t + u), tol=1e-13)
        assert abs(exponential_integral_ei(-t) + quad) < 1e-12 * max(quad, 1e-6)


def test_ei_decays_to_zero():
    assert abs(exponential_integral_ei(-50.0)) < 1e-23
    assert exponential_integral_ei(-math.inf) == 0.0
    assert exponential_integral_ei(-1e-8) < 0  # large negative, still finite
    assert math.isfinite(exponential_integral_ei(-1e-8))


def test_ei_domain_error():
    with pytest.raises(ValueError):
        exponential_integral_ei(0.0)
    with pytest.raises(ValueError):
        exponential_integral_ei(1.0)


def test_exp_scaled_e1_no_overflow():
    v = exp_scaled_e1(1000.0)
    assert 0 < v < 1e-3  # ~ 1/x for large x
    assert v == pytest.approx(1.0 / 1000.0, rel=0.01)
    # past x ~ 1e16 the continued fraction ends on its first factors
    for x in (1e16, 1e18, 3.162563844937293e28, 1e300):
        assert exp_scaled_e1(x) == pytest.approx(1.0 / x, rel=1e-15)
        assert exp_scaled_en(3, x) == pytest.approx(1.0 / x, rel=1e-15)
    # the limit e^x E_n(x) ~ 1/x, at once rather than 20000 continued-fraction steps
    assert exp_scaled_e1(math.inf) == 0.0
    assert all(exp_scaled_en(n, math.inf) == 0.0 for n in (1, 2, 5))


def test_exp_scaled_en_domain_errors():
    for n, x in ((0, 1.0), (-3, 1.0), (2, 0.0), (2, -1.0), (2, math.nan)):
        with pytest.raises(ValueError):
            exp_scaled_en(n, x)
    for n in (1.5, 2.0, math.inf, math.nan):
        with pytest.raises(TypeError):
            exp_scaled_en(n, 1.0)
    assert exp_scaled_en(np.int64(3), 0.5) == exp_scaled_en(3, 0.5)


@pytest.mark.parametrize("n", range(1, 9))
def test_exp_scaled_en_vs_mpmath(n):
    """e^x E_n(x) to 1e-12 relative of 50-digit mpmath from 1e-6 to 1e6, with and
    without the order below passed in, on both sides of the x = 1 switch."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    xs = np.geomspace(1e-6, 1e6, 97).tolist() + [1.0, math.nextafter(1.0, 2.0)]
    for x in xs:
        ref = mpmath.exp(x) * mpmath.expint(n, x)
        prev = float(mpmath.exp(x) * mpmath.expint(n - 1, x)) if n > 1 else None
        for got in (exp_scaled_en(n, x), exp_scaled_en(n, x, prev)):
            assert float(abs(got - ref) / ref) <= 1e-12, (n, x, got)


def test_exp_scaled_en_does_not_call_exp_scaled_e1(monkeypatch):
    """The benchmark counts exp_scaled_e1 calls by patching the name in numerics
    and analytics: exp_scaled_en must reach neither."""
    from scbsim import analytics

    def forbidden(x):
        raise AssertionError("exp_scaled_e1 called")

    expected = {(n, x): exp_scaled_en(n, x) for n in (1, 2, 4) for x in (0.2, 5.0)}
    monkeypatch.setattr(numerics, "exp_scaled_e1", forbidden)
    monkeypatch.setattr(analytics, "exp_scaled_e1", forbidden)
    assert {(n, x): exp_scaled_en(n, x) for n, x in expected} == expected


# -- quadrature --------------------------------------------------------------------

def test_quadrature_exponential():
    assert quadrature_semi_infinite(lambda x: np.exp(-x)) == pytest.approx(1.0, rel=1e-12)


def test_quadrature_matches_ei_identities():
    got = quadrature_semi_infinite(lambda x: x * np.exp(-x) / (1 + x), tol=1e-13)
    expected = math.e * exponential_integral_ei(-1.0) + 1.0
    assert got == pytest.approx(expected, abs=1e-12)
    got = quadrature_semi_infinite(lambda x: np.exp(-0.5 * x) / (1 + x), tol=1e-13)
    expected = -math.exp(0.5) * exponential_integral_ei(-0.5)
    assert got == pytest.approx(expected, abs=1e-12)


def test_quadrature_finite_interval():
    assert adaptive_quadrature(np.sin, 0.0, math.pi) == pytest.approx(2.0, rel=1e-12)


def test_quadrature_budget_exhaustion():
    rng = np.random.default_rng(0)

    def noisy(x):
        return rng.standard_normal(np.shape(x))

    with pytest.raises(NumericsError):
        adaptive_quadrature(noisy, 0.0, 1.0, tol=1e-14, limit=16)


# -- KS helpers ----------------------------------------------------------------------

def test_ks_statistic_detects_mismatch():
    rng = np.random.default_rng(9)
    uniform = rng.random(20000)
    assert ks_statistic(uniform, lambda x: x) < ks_critical(20000, 0.01)
    assert ks_statistic(uniform, lambda x: x ** 2) > ks_critical(20000, 0.01)


def test_ks_critical_value():
    assert ks_critical(100000, 0.01) == pytest.approx(1.6276236115189502 / math.sqrt(1e5), rel=1e-6)
