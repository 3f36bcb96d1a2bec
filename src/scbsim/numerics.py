"""Dense complex least squares and the special functions behind the analytics.

The minimum-norm solver backs the passive beamforming design (the
cancellation system is underdetermined whenever the surface has more elements
than constraint rows).  Stacks with rows <= columns are solved through the
small r x r Gram matrix A A^H; a trial falls back to the truncated SVD when
its Gram matrix is ill-conditioned (eigenvalue ratio at most
GRAM_MIN_EIG_RATIO, or rank_tol**2 when that is larger), its solution is
non-finite or its residual exceeds CONSISTENT_TOL * ||b||.  Stacks with
rows > columns (least squares) always use the SVD.  The regularized lower
incomplete gamma function and the exponential integral feed the closed-form
outage and rate expressions.  An adaptive Gauss-Kronrod quadrature provides
the independent oracle used by the test suite and the validate command; it
never sits on the hot path.
"""

from __future__ import annotations

import math

import numpy as np

_EPS = float(np.finfo(float).eps)
_FPMIN = float(np.finfo(float).tiny) / _EPS
_ITMAX = 20000

CONSISTENT_TOL = 1e-8       # residual/||b|| threshold for an exact (consistent) solve
GRAM_MIN_EIG_RATIO = 1e-4   # smallest lambda_min/lambda_max of a a^H the Gram path accepts
_GRAM_BLOCK = 256           # systems conjugated at a time: the temporary copy stays cache-sized


class NumericsError(ArithmeticError):
    """Raised when an iterative numeric routine fails to converge."""


# -- minimum-norm least squares --------------------------------------------

def min_norm_solve_batch(a, b, rank_tol=1e-10):
    """Minimum-norm least-squares solutions for a stack of complex systems.

    a: (..., r, c), b: (..., r).  Returns (x, residual_norm) with x of shape
    (..., c) minimizing ||x|| among minimizers of ||a x - b||.

    Dispatch: when r <= c each system is first solved through its Gram
    matrix, x = a^H (a a^H)^{-1} b.  A trial keeps that answer only when x is
    finite, the Gram eigenvalue ratio lambda_min / lambda_max exceeds
    max(GRAM_MIN_EIG_RATIO, rank_tol**2) and the residual is at most
    CONSISTENT_TOL * ||b||.  The ratio is tested first, so a trial that fails
    it goes to the SVD without a Gram solve.  The normal equations square the
    condition number, so the ratio bound caps cond(a) at 100 and the
    relative error of x near 1e-12.  Every other trial, and every stack with
    r > c, is solved by SVD with singular values below rank_tol * s_max
    truncated.
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.ndim < 2:
        raise ValueError("matrix must be at least 2-D")
    r, c = a.shape[-2], a.shape[-1]
    if b.shape[-1] != r or a.shape[:-2] != b.shape[:-1]:
        raise ValueError(f"dimension mismatch: a {a.shape}, b {b.shape}")
    if not (0 < rank_tol < 1):
        raise ValueError("rank_tol must be in (0, 1)")
    if r == 0:
        return np.zeros(b.shape[:-1] + (c,), dtype=np.complex128), np.zeros(b.shape[:-1])
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("non-finite input")
    if r > c:
        return _svd_min_norm(a, b, rank_tol)

    lead = b.shape[:-1]
    a = a.reshape(-1, r, c)
    b = b.reshape(-1, r)
    x, resid, ok = _gram_min_norm(a, b, rank_tol)
    if not ok.all():
        bad = ~ok
        x[bad], resid[bad] = _svd_min_norm(a[bad], b[bad], rank_tol)
    return x.reshape(lead + (c,)), resid.reshape(lead)


def _gram_min_norm(a, b, rank_tol=1e-10):
    """Gram-matrix min-norm solve of a (T, r, c) stack; returns (x, residual, accepted).

    The conditioning test runs first, and only the trials that pass it are
    solved; x and residual of the other trials are left zero.  Overflow in a
    trial only makes that trial fail the test, so it raises no floating-point
    warning here.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        gram = _gram(a)
        ok = np.isfinite(gram).all(axis=(-2, -1))
        # LAPACK leaves non-finite input unspecified: keep it out of eigvalsh
        gram[~ok] = np.eye(a.shape[-2])
        ev = np.linalg.eigvalsh(gram)
        # a Gram eigenvalue ratio below rank_tol**2 means a singular value of
        # a below rank_tol * s_max, which the SVD must truncate
        ok &= ev[..., 0] > max(GRAM_MIN_EIG_RATIO, rank_tol ** 2) * ev[..., -1]
        if ok.all():
            return _gram_solve(a, b, gram)
        x = np.zeros(a.shape[:-2] + a.shape[-1:], dtype=np.complex128)
        resid = np.zeros(a.shape[:-2])
        keep = np.flatnonzero(ok)
        if keep.size:
            x[keep], resid[keep], ok[keep] = _gram_solve(a[keep], b[keep], gram[keep])
    return x, resid, ok


def _gram_solve(a, b, gram):
    """x = a^H gram^{-1} b for a well-conditioned stack; returns (x, residual, accepted)."""
    y = np.linalg.solve(gram, b[..., None])
    # x = a^H y = conj(y^H a): no conjugated copy of a is materialized
    x = np.matmul(y.conj().swapaxes(-1, -2), a)[..., 0, :]
    np.conjugate(x, out=x)
    ax = np.matmul(a, x[..., None])[..., 0]
    ax -= b
    resid = np.linalg.norm(ax, axis=-1)
    ok = np.isfinite(x).all(axis=-1) & (resid <= CONSISTENT_TOL * np.linalg.norm(b, axis=-1))
    return x, resid, ok


def _gram(a):
    """a a^H for a (T, r, c) stack, conjugating _GRAM_BLOCK systems at a time."""
    out = np.empty(a.shape[:-1] + a.shape[-2:-1], dtype=np.complex128)
    for s in range(0, a.shape[0], _GRAM_BLOCK):
        blk = a[s:s + _GRAM_BLOCK]
        np.matmul(blk, blk.conj().swapaxes(-1, -2), out=out[s:s + _GRAM_BLOCK])
    return out


def _svd_min_norm(a, b, rank_tol):
    """Truncated-SVD min-norm least squares of a stack; returns (x, residual)."""
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    cutoff = rank_tol * np.max(s, axis=-1, keepdims=True)
    inv = np.where(s > cutoff, 1.0 / np.where(s > 0, s, 1.0), 0.0)
    y = np.einsum("...ij,...i->...j", u.conj(), b)
    x = np.einsum("...kj,...k->...j", vh.conj(), inv * y)
    resid = np.einsum("...ij,...j->...i", a, x) - b
    return x, np.linalg.norm(resid, axis=-1)


def min_norm_solve(a, b, rank_tol=1e-10):
    """Single-system variant of min_norm_solve_batch."""
    a = np.atleast_2d(np.asarray(a, dtype=np.complex128))
    b = np.asarray(b, dtype=np.complex128).reshape(-1)
    x, resid = min_norm_solve_batch(a[None], b[None], rank_tol)
    return x[0], float(resid[0])


# -- regularized lower incomplete gamma ------------------------------------

def _gamma_series(s, x):
    ap = s
    delt = 1.0 / s
    total = delt
    for _ in range(_ITMAX):
        ap += 1.0
        delt *= x / ap
        total += delt
        if abs(delt) < abs(total) * 1e-16:
            return total * math.exp(-x + s * math.log(x) - math.lgamma(s))
    raise NumericsError("incomplete gamma series did not converge")


def _gamma_cf(s, x):
    b = x + 1.0 - s
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, _ITMAX):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delt = d * c
        h *= delt
        if abs(delt - 1.0) < 1e-16:
            return math.exp(-x + s * math.log(x) - math.lgamma(s)) * h
    raise NumericsError("incomplete gamma continued fraction did not converge")


def lower_incomplete_gamma_regularized(s, x):
    """P(s, x) = gamma(s, x) / Gamma(s), series for x < s+1 else continued fraction."""
    if not s > 0:
        raise ValueError(f"shape must be positive, got {s}")
    if x < 0:
        raise ValueError(f"argument must be >= 0, got {x}")
    if x == 0.0:
        return 0.0
    if math.isinf(x):
        return 1.0
    if x < s + 1.0:
        return _gamma_series(s, x)
    return 1.0 - _gamma_cf(s, x)


def gamma_cdf(x, shape, scale=1.0):
    """CDF of a Gamma(shape, scale) variate; accepts arrays."""
    xs = np.asarray(x, dtype=float)
    out = np.array([lower_incomplete_gamma_regularized(shape, max(v, 0.0) / scale)
                    for v in np.ravel(xs)])
    return out.reshape(xs.shape) if xs.ndim else float(out[0])


# -- exponential integral ---------------------------------------------------

_EULER_GAMMA = 0.5772156649015328606


def exp_scaled_e1(x):
    """exp(x) * E1(x) for x > 0; stable for arbitrarily large x."""
    if not x > 0:
        raise ValueError(f"argument must be positive, got {x}")
    if x <= 1.0:
        # power series for E1, then scale
        total = -_EULER_GAMMA - math.log(x)
        term = 1.0
        for k in range(1, _ITMAX):
            term *= -x / k
            contrib = -term / k
            total += contrib
            if abs(contrib) < abs(total) * 1e-16:
                return math.exp(x) * total
        raise NumericsError("E1 series did not converge")
    # continued fraction, already in exp-scaled form
    b = x + 1.0
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, _ITMAX):
        a = -i * i
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delt = c * d
        h *= delt
        if abs(delt - 1.0) < 1e-16:
            return h
    raise NumericsError("E1 continued fraction did not converge")


def exponential_integral_ei(x):
    """Ei(x) for strictly negative x (the only branch the analytics need)."""
    if not x < 0:
        raise ValueError(f"argument must be negative, got {x}")
    return -math.exp(x) * exp_scaled_e1(-x)


# -- adaptive Gauss-Kronrod quadrature --------------------------------------

_XGK = np.array([
    0.99145537112081263921, 0.94910791234275852453, 0.86486442335976907279,
    0.74153118559939443986, 0.58608723546769113029, 0.40584515137739716691,
    0.20778495500789846760, 0.0,
])
_WGK = np.array([
    0.02293532201052922496, 0.06309209262997855329, 0.10479001032225018384,
    0.14065325971552591875, 0.16900472663926790283, 0.19035057806478540991,
    0.20443294007529889241, 0.20948214108472782801,
])
_WG = np.array([
    0.12948496616886969327, 0.27970539148927666790,
    0.38183005050511894495, 0.41795918367346938776,
])

_NODES = np.concatenate([-_XGK[:7], [0.0], _XGK[6::-1]])
_KW = np.concatenate([_WGK[:7], [_WGK[7]], _WGK[6::-1]])
_GW = np.zeros(15)
for _i, _w in ((1, 0), (3, 1), (5, 2)):
    _GW[_i] = _WG[_w]
    _GW[14 - _i] = _WG[_w]
_GW[7] = _WG[3]


def _gk15(f, a, b):
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    y = np.asarray(f(center + half * _NODES), dtype=float)
    kron = half * float(_KW @ y)
    gauss = half * float(_GW @ y)
    return kron, abs(kron - gauss)


def adaptive_quadrature(f, a, b, tol=1e-12, limit=4096):
    """Adaptive 15-point Gauss-Kronrod integral of a vectorized integrand.

    Bisects the interval with the largest Kronrod-Gauss discrepancy until the
    summed error estimate drops below tol relative to the running total (or
    below tol absolute when the total is essentially zero).
    """
    val, err = _gk15(f, a, b)
    segments = [(err, a, b, val)]
    for _ in range(limit):
        total = math.fsum(seg[3] for seg in segments)
        total_err = math.fsum(seg[0] for seg in segments)
        if total_err <= tol * max(abs(total), 1e-300) or total_err <= tol:
            return total
        worst = max(range(len(segments)), key=lambda i: segments[i][0])
        _, lo, hi, old_val = segments.pop(worst)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            # interval exhausted at machine precision; accept its estimate
            segments.append((0.0, lo, hi, old_val))
            continue
        v1, e1 = _gk15(f, lo, mid)
        v2, e2 = _gk15(f, mid, hi)
        segments.append((e1, lo, mid, v1))
        segments.append((e2, mid, hi, v2))
    raise NumericsError(f"quadrature did not converge within {limit} refinements")


def quadrature_semi_infinite(f, tol=1e-12, limit=4096):
    """Adaptive integral of f over [0, inf) via the x = t/(1-t) transform.

    The integrand must be continuous and absolutely integrable; it is called
    with numpy arrays of abscissae.
    """
    def transformed(t):
        x = t / (1.0 - t)
        return f(x) / (1.0 - t) ** 2

    return adaptive_quadrature(transformed, 0.0, 1.0, tol=tol, limit=limit)


# -- Kolmogorov-Smirnov helpers ----------------------------------------------

def ks_statistic(sample, cdf):
    """Two-sided KS distance between an empirical sample and a CDF callable."""
    xs = np.sort(np.asarray(sample, dtype=float))
    n = xs.size
    if n == 0:
        raise ValueError("empty sample")
    f = np.asarray(cdf(xs), dtype=float)
    grid = np.arange(1, n + 1) / n
    return float(max(np.max(grid - f), np.max(f - (grid - 1.0 / n))))


def ks_critical(n, alpha=0.01):
    """Asymptotic two-sided KS critical value at level alpha."""
    return math.sqrt(-0.5 * math.log(alpha / 2.0)) / math.sqrt(n)
