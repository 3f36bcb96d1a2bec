import math
import warnings

import numpy as np
import pytest

from scbsim import numerics
from scbsim.numerics import (
    NumericsError,
    adaptive_quadrature,
    exp_scaled_e1,
    exponential_integral_ei,
    gamma_cdf,
    ks_critical,
    ks_statistic,
    lower_incomplete_gamma_regularized,
    min_norm_solve,
    min_norm_solve_batch,
    quadrature_semi_infinite,
)


# -- minimum-norm solver ------------------------------------------------------

def test_min_norm_axis_solution():
    x, resid = min_norm_solve([[1.0, 0.0, 0.0]], [2.0])
    assert np.allclose(x, [2.0, 0.0, 0.0])
    assert resid == pytest.approx(0.0, abs=1e-14)


def test_min_norm_identity():
    x, resid = min_norm_solve(np.eye(2), [1.0, 1j])
    assert np.allclose(x, [1.0, 1j])
    assert resid < 1e-14


def test_min_norm_underdetermined_null_space_oracle():
    rng = np.random.default_rng(42)
    a = (rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8))) / np.sqrt(2)
    b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    x, resid = min_norm_solve(a, b)
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
    x, resid = min_norm_solve(a, b)
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
        x, r = min_norm_solve(a[t], b[t])
        assert np.allclose(xs[t], x, atol=1e-12)
        assert resids[t] == pytest.approx(r, abs=1e-12)


def test_min_norm_rejects_bad_input():
    with pytest.raises(ValueError, match="dimension"):
        min_norm_solve(np.eye(3), [1.0, 2.0])
    with pytest.raises(ValueError, match="finite"):
        min_norm_solve([[np.nan, 1.0]], [1.0])
    with pytest.raises(ValueError, match="rank_tol"):
        min_norm_solve_batch(np.eye(2)[None], np.ones((1, 2)), rank_tol=2.0)


def test_min_norm_rank_deficient_truncation():
    a = np.array([[1.0, 0.0], [1.0, 0.0]])   # rank 1
    x, resid = min_norm_solve(a, [1.0, 0.0])
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
    x_svd, resid_svd = numerics._svd_min_norm(a, b, 1e-10)
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
    x_svd, resid_svd = numerics._svd_min_norm(a[[1, 4]], b[[1, 4]], 1e-10)
    assert np.array_equal(x[[1, 4]], x_svd)
    assert np.array_equal(resid[[1, 4]], resid_svd)
    assert np.allclose(x[4], [3.0, 0.0, 0.0], atol=1e-14)
    assert np.allclose(x[1], np.linalg.pinv(a[1]) @ b[1], atol=1e-12)
    assert resid[1] <= 1e-12


def test_min_norm_large_rank_tol_still_truncates():
    # singular-value ratios 0.1 (trial 0) and 0.9 (trial 1): both pass the
    # Gram eigenvalue bound, but rank_tol = 0.5 must truncate trial 0
    rng = np.random.default_rng(11)
    u = np.linalg.qr(_complex_normals(rng, (2, 2, 2)))[0]
    vh = np.linalg.qr(_complex_normals(rng, (2, 5, 2)))[0].conj().swapaxes(-1, -2)
    s = np.array([[1.0, 0.1], [1.0, 0.9]])
    a = u @ (s[..., None] * vh)
    b = _complex_normals(rng, (2, 2))
    _, _, accepted = numerics._gram_min_norm(a, b, 0.5)
    assert accepted.tolist() == [False, True]
    x, resid = min_norm_solve_batch(a, b, rank_tol=0.5)
    x_svd, resid_svd = numerics._svd_min_norm(a, b, 0.5)
    assert np.array_equal(x[0], x_svd[0])
    assert np.array_equal(resid[0], resid_svd[0])
    assert resid[0] > 0.1 * np.linalg.norm(b[0])   # the small direction was dropped
    assert np.allclose(x[1], x_svd[1], rtol=0.0, atol=1e-13)


def test_min_norm_gram_overflow_falls_back_quietly():
    # the Gram matrix overflows to inf; the SVD path still solves the system
    a = np.array([[[1e200, 0.0, 0.0], [0.0, 1e200, 0.0]]])
    b = np.ones((1, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, resid = min_norm_solve_batch(a, b)
    assert np.allclose(x, [[1e-200, 1e-200, 0.0]], rtol=1e-12, atol=0.0)
    assert resid[0] <= 1e-12


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


def test_gamma_cdf_helper_vectorizes():
    xs = np.array([0.0, 1.0, 2.0])
    out = gamma_cdf(xs, 2)
    assert out.shape == (3,)
    assert out[0] == 0.0
    assert gamma_cdf(1.0, 2) == pytest.approx(out[1])


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
