"""Dense complex least squares and the special functions behind the analytics.

The minimum-norm solver backs the passive beamforming design (the
cancellation system is underdetermined whenever the surface has more elements
than constraint rows).  Stacks with rows <= columns are solved through the
small r x r Gram matrix G = A A^H, inverted by one stacked ``inv`` per
block; a trial falls back to the truncated SVD when G is ill-conditioned
(eigenvalue ratio at most GRAM_MIN_EIG_RATIO), its solution is non-finite or
its residual exceeds CONSISTENT_TOL * ||b||.  The Frobenius condition number
||G||_F ||G^-1||_F settles the ratio test for most trials without
eigenvalues; eigvalsh runs only on the trials it leaves open.  If ``inv``
raises because one G of a block is exactly singular, that block is inverted
trial by trial and the singular trials fall back.  Stacks with rows >
columns (least squares) always use the SVD.  The regularized lower
incomplete gamma function and the exponential integrals feed the
closed-form outage and rate expressions.
P(s, x) is -expm1(-x) at s = 1.  Otherwise, in its lower tail (x < s/2),
it sums the power series, whose terms are all positive, so it keeps its
relative accuracy however small P is.  Above that, an integer shape (every
closed form has one) gives 1 - Q with Q = e^-x sum_{i<s} x^i/i! wherever
Q <= 0.9: there P >= 0.1, so the subtraction loses at most one digit.  The
rest goes to the series below x = s + 1 and to the continued fraction above
it: non-integer shapes, Q > 0.9, and x past 708, where e^-x would leave the
normal range.  From s = 1e3 on, the series and the fraction take their
prefactor x^s e^-x / Gamma(s) from Stirling's series, and the series may take
a number of steps that grows with sqrt(s).  e^x E_n(x) is an upward
recurrence from the E1 series up to x = 1 and the same continued fraction
above it.
``gamma_cdf`` evaluates the scalar P(s, x) once per element, on Python
floats, so its arrays match the scalar function bit for bit.
``lower_incomplete_gamma_regularized_array`` gives the same bits for an
integer shape below 1e3 with one numpy pass per branch: the same float
operations in the same order, with math's exp, log, lgamma and expm1 taken
per element; every other element goes to the scalar.  An adaptive
Gauss-Kronrod quadrature provides the independent oracle used by the test
suite and the validate command; it never sits on the hot path.
"""

from __future__ import annotations

import math
import operator

import numpy as np

_EPS = float(np.finfo(float).eps)
_FPMIN = float(np.finfo(float).tiny) / _EPS
_ITMAX = 20000
_LARGE_SHAPE = 1e3     # P(s, x) takes _gamma_large_shape from here on
_SERIES_ITMAX = 10 ** 7   # its series' step cap: 8.6 sqrt(s) steps reach it at s ~ 1e12
_MAX_SHAPE = 1e12      # the largest shape P(s, x) takes, so that the series stays under its cap
_EXP_ARG_MAX = 708.0   # e^-x is a normal float and e^x finite up to here

CONSISTENT_TOL = 1e-8       # residual/||b|| threshold for an exact (consistent) solve
RANK_TOL = 1e-10            # the SVD truncates singular values below RANK_TOL * s_max
GRAM_MIN_EIG_RATIO = 1e-4   # smallest lambda_min/lambda_max of G = a a^H the Gram path accepts;
                            # ||G||_F ||G^-1||_F below its inverse passes without eigenvalues


class NumericsError(ArithmeticError):
    """Raised when an iterative numeric routine fails to converge."""


# -- minimum-norm least squares --------------------------------------------

def min_norm_solve_batch(a, b, norm_b=None):
    """Minimum-norm least-squares solutions for a stack of complex systems.

    a: (..., r, c), b: (..., r).  Returns (x, residual_norm) with x of shape
    (..., c) minimizing ||x|| among minimizers of ||a x - b||.

    Dispatch: when r <= c each system is first solved through its Gram
    matrix G = a a^H, x = a^H G^{-1} b, with G^{-1} from one stacked inv
    (trial by trial when one G of the stack is exactly singular; that trial
    falls back).  A trial keeps that answer only when x is finite, the Gram
    eigenvalue ratio lambda_min / lambda_max exceeds GRAM_MIN_EIG_RATIO and
    the residual is at most CONSISTENT_TOL * ||b||.  The ratio test is read
    first through the Frobenius condition number ||G||_F ||G^{-1}||_F, which
    is at least lambda_max / lambda_min: below 1 / GRAM_MIN_EIG_RATIO it
    passes a trial without eigenvalues.  The normal equations square the
    condition number, so the ratio bound caps cond(a) at 100 and the
    relative error of x near 1e-12.  Every other trial, and every stack
    with r > c, is solved by SVD with singular values below RANK_TOL * s_max
    truncated; GRAM_MIN_EIG_RATIO >> RANK_TOL**2, so no trial with such a
    singular value passes the ratio test.

    A non-finite entry of a or b is a ValueError.  On the Gram path only b
    is scanned up front: a non-finite entry of a makes its row's diagonal
    Gram entry non-finite, so a is scanned only in the trials whose Gram is.
    norm_b, when given, is np.linalg.norm(b, axis=-1), which the caller
    already holds.
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.ndim < 2:
        raise ValueError("matrix must be at least 2-D")
    r, c = a.shape[-2], a.shape[-1]
    if b.shape[-1] != r or a.shape[:-2] != b.shape[:-1]:
        raise ValueError(f"dimension mismatch: a {a.shape}, b {b.shape}")
    if r == 0:
        return np.zeros(b.shape[:-1] + (c,), dtype=np.complex128), np.zeros(b.shape[:-1])
    if not (np.isfinite(b).all() and (r <= c or np.isfinite(a).all())):
        raise ValueError("non-finite input")
    if r > c:
        return _svd_min_norm(a, b)

    lead = b.shape[:-1]
    a = a.reshape(-1, r, c)
    b = b.reshape(-1, r)
    x, resid, ok = _gram_min_norm(a, b, None if norm_b is None else np.reshape(norm_b, -1))
    if not ok.all():
        bad = ~ok
        x[bad], resid[bad] = _svd_min_norm(a[bad], b[bad])
    return x.reshape(lead + (c,)), resid.reshape(lead)


def _gram_min_norm(a, b, norm_b=None):
    """Gram-matrix min-norm solve of a (T, r, c) stack; returns (x, residual, accepted).

    norm_b, when given, holds the (T,) norms of b.  A non-finite entry of a
    is a ValueError, found through the non-finite Grams it makes.

    One stacked LAPACK call, inv, serves the conditioning test and the
    solve; y = G^{-1} b and x = a^H y are BLAS products.  The test is the
    eigenvalue ratio lambda_min / lambda_max of G against
    GRAM_MIN_EIG_RATIO, read first through cond_F = ||G||_F ||G^{-1}||_F,
    which brackets cond_2 = lambda_max / lambda_min: cond_2 <= cond_F <=
    (r/2)(cond_2 + 1/cond_2).  A block in which cond_F settles every trial
    makes no other LAPACK call; eigvalsh runs on the trials in between.
    cond_F alone would be loose at large r: at r = 48 (per-symbol, M = 3)
    it passes almost none of the trials that the ratio test passes.  When
    inv raises because some G of the stack is exactly singular, the stack
    is inverted trial by trial and the singular trials fail.  Overflow in a
    trial only makes that trial fail, so it raises no floating-point warning
    here; the x and residual of a trial that fails are meaningless.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        gram = np.matmul(a, a.conj().swapaxes(-1, -2))
        ok = np.isfinite(gram).all(axis=(-2, -1))
        if not ok.all():
            bad = ~ok
            if not np.isfinite(a[bad]).all():
                raise ValueError("non-finite input")
            # LAPACK leaves non-finite input unspecified: keep it out of inv
            gram[bad] = np.eye(a.shape[-2])
        try:
            ginv = np.linalg.inv(gram)
        except np.linalg.LinAlgError:
            ginv = np.zeros_like(gram)
            for t, g in enumerate(gram):
                try:
                    ginv[t] = np.linalg.inv(g)
                except np.linalg.LinAlgError:
                    ok[t] = False
        # Squared, cond_F passes a trial below the bound and fails it from
        # (r/2)(bound + 1/bound) on.  A squared norm past the float range
        # makes cond_sq inf or nan, and eigvalsh decides.  cond_F >= r, so
        # while ||G^-1||_F^2 is finite and r >= 2, ||G||_F^2 is a normal
        # float: underflow passes no trial.
        bound = 1.0 / GRAM_MIN_EIG_RATIO
        cond_sq = _frobenius_sq(gram) * _frobenius_sq(ginv)
        passed = cond_sq < bound ** 2
        worst = (0.5 * a.shape[-2] * (bound + 1.0 / bound)) ** 2
        failed = np.isfinite(cond_sq) & (cond_sq >= worst)
        unsure = np.flatnonzero(ok & ~passed & ~failed)
        if unsure.size:
            ev = np.linalg.eigvalsh(gram[unsure])
            passed[unsure] = ev[:, 0] > GRAM_MIN_EIG_RATIO * ev[:, -1]
        ok &= passed
        y = np.matmul(ginv, b[..., None])
        # x = a^H y = conj(y^H a): no conjugated copy of a is materialized
        x = np.matmul(y.conj().swapaxes(-1, -2), a)[..., 0, :]
        np.conjugate(x, out=x)
        ax = np.matmul(a, x[..., None])[..., 0]
        ax -= b
        resid = np.linalg.norm(ax, axis=-1)
        ok &= np.isfinite(x).all(axis=-1)
        if norm_b is None:
            norm_b = np.linalg.norm(b, axis=-1)
        ok &= resid <= CONSISTENT_TOL * norm_b
    return x, resid, ok


def _frobenius_sq(m):
    """Squared Frobenius norms of a C-contiguous stack of complex matrices."""
    v = m.view(np.float64)
    return np.einsum("...ij,...ij->...", v, v)


def _svd_min_norm(a, b):
    """Truncated-SVD min-norm least squares of a stack; returns (x, residual)."""
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    cutoff = RANK_TOL * np.max(s, axis=-1, keepdims=True)
    inv = np.where(s > cutoff, 1.0 / np.where(s > 0, s, 1.0), 0.0)
    y = np.einsum("...ij,...i->...j", u.conj(), b)
    x = np.einsum("...kj,...k->...j", vh.conj(), inv * y)
    resid = np.einsum("...ij,...j->...i", a, x) - b
    return x, np.linalg.norm(resid, axis=-1)


# -- regularized lower incomplete gamma ------------------------------------

def _gamma_series(s, x, steps=_ITMAX, log_prefactor=None):
    ap = s
    delt = 1.0 / s
    total = delt
    for _ in range(steps):
        ap += 1.0
        delt *= x / ap
        total += delt
        if delt < total * 1e-16:   # both positive for x > 0
            if log_prefactor is None:
                log_prefactor = -x + s * math.log(x) - math.lgamma(s)
            return total * math.exp(log_prefactor)
    raise NumericsError("incomplete gamma series did not converge")


def _upper_gamma_cf(s, x):
    """h with Gamma(s, x) = e^-x x^s h, by modified Lentz (fast for x >= s + 1);
    s = 1 - n gives h = e^x E_n(x), so s = 0 gives e^x E1(x)."""
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
        # a bound below _EPS would demand delt == 1.0, which rounding can miss
        # forever (x past ~1e16)
        if abs(delt - 1.0) <= _EPS:
            return h
    raise NumericsError("incomplete gamma continued fraction did not converge")


def _gamma_large_shape(s, x):
    """P(s, x) for s >= _LARGE_SHAPE.

    There the prefactor x^s e^-x / Gamma(s) of the series and the fraction,
    as e^(-x + s log x - lgamma(s)), keeps its terms' rounding, near s log(x)
    ulp (4e-7 relative in P at s = 1e9).  Stirling's lgamma(s) = (s - 1/2) log s
    - s + log(2 pi)/2 + mu(s) leaves an error near s |d| ulp, d = (x - s)/s,
    and mu(s) = 1/(12 s) - 1/(360 s^3) is exact to rounding there.  Near x = s
    the series takes about 8.6 sqrt(s) steps.
    """
    if not 0.0 < x < math.inf:   # the domain error, 0 or 1, whatever the shape
        return lower_incomplete_gamma_regularized(1.0, x)
    d = (x - s) / s
    if d == -1.0:   # x/s below the rounding unit: P < (e x/s)^s underflows
        return 0.0
    mu = (1.0 - 1.0 / (30.0 * s * s)) / (12.0 * s)
    log_prefactor = s * (math.log1p(d) - d) + 0.5 * math.log(s / (2.0 * math.pi)) - mu
    if x < s + 1.0:
        steps = min(_ITMAX + int(10.0 * math.sqrt(s)), _SERIES_ITMAX)
        return _gamma_series(s, x, steps, log_prefactor)
    return 1.0 - math.exp(log_prefactor) * _upper_gamma_cf(s, x)


def lower_incomplete_gamma_regularized(s, x):
    """P(s, x) = gamma(s, x) / Gamma(s), the CDF of a Gamma(s, 1) variate at x.

    Branches, in the order they are tried:

    - s >= _LARGE_SHAPE: _gamma_large_shape, the series below x = s + 1 and
      the continued fraction above, with Stirling's prefactor.
    - s = 1: P = 1 - e^-x, computed as -expm1(-x), exact to rounding at
      every x.
    - x < s/2: the power series (_gamma_series).  Every term is positive, so
      it keeps its relative accuracy however small P is; this cheap test
      comes before the sum below, so the deep lower tail pays nothing for it.
    - integer s and x <= _EXP_ARG_MAX: P = 1 - Q with
      Q = e^-x sum_{i<s} x^i / i!, taken wherever Q <= 0.9.  The sum has
      only positive terms, and with P >= 0.1 the subtraction loses at most
      one decimal digit.  Up to _EXP_ARG_MAX, e^-x stays a normal float and
      the sum (at most e^x) stays finite.  A larger Q falls through.
    - x < s + 1 (non-integer s, or Q > 0.9): the power series.
    - otherwise: the modified-Lentz continued fraction for Gamma(s, x),
      which converges fast there; for integer s it is reached only past
      _EXP_ARG_MAX.

    A shape above _MAX_SHAPE = 1e12 is a ValueError: near x = s the series
    would pass its step cap (P(1e13, 1e13)), and past 2^53 the fraction's
    first step divides by x + 1 - s, which rounds to 0 (P(1e20, 1e20)).
    """
    if not 0 < s < _LARGE_SHAPE:   # NaN and infinity too
        if not 0 < s <= _MAX_SHAPE:
            raise ValueError(f"shape must be positive and finite, at most {_MAX_SHAPE:g}, "
                             f"got {s}")
        return _gamma_large_shape(s, x)
    if not x >= 0:   # NaN too: the continued fraction would never converge on it
        raise ValueError(f"argument must be >= 0, got {x}")
    if x == 0.0:
        return 0.0
    if math.isinf(x):
        return 1.0
    if s == 1:
        return -math.expm1(-x)
    if x < 0.5 * s:
        return _gamma_series(s, x)
    if x <= _EXP_ARG_MAX and s == int(s):
        term = total = 1.0
        for i in range(1, int(s)):
            term *= x / i
            total += term
        q = math.exp(-x) * total
        if q <= 0.9:
            return 1.0 - q
    if x < s + 1.0:
        return _gamma_series(s, x)
    return 1.0 - math.exp(-x + s * math.log(x) - math.lgamma(s)) * _upper_gamma_cf(s, x)


def _map(fn, a):
    """fn (a math function) of each element of the 1-D float array a, as an array."""
    return np.fromiter(map(fn, a.tolist()), float, a.size)


def _gamma_series_array(s, x):
    """_gamma_series(s, v) of each element v of the 1-D array x, bit for bit: each
    element steps until its own term is below 1e-16 of its sum."""
    ap = s
    delt = np.full(x.size, 1.0 / s)
    total = delt.copy()
    sums = np.empty(x.size)
    todo, v = np.arange(x.size), x
    for _ in range(_ITMAX):
        ap += 1.0
        delt *= v / ap
        total += delt
        done = delt < total * 1e-16
        if done.any():
            sums[todo[done]] = total[done]
            keep = ~done
            todo, v, delt, total = todo[keep], v[keep], delt[keep], total[keep]
            if not todo.size:
                return sums * _map(math.exp, -x + s * _map(math.log, x) - math.lgamma(s))
    raise NumericsError("incomplete gamma series did not converge")


def lower_incomplete_gamma_regularized_array(s, x):
    """P(s, x) over an array x: each element is
    lower_incomplete_gamma_regularized(s, v) of the element v as a Python float,
    bit for bit.  Returns an array of x's shape (0-d for a scalar).

    An integer shape 1 <= s < _LARGE_SHAPE takes the scalar's branches in its
    order, each on all of its elements at once: -expm1(-x) at s = 1, the series
    below x = s/2, the finite sum where Q <= 0.9, then the series below
    x = s + 1.  numpy does the +, -, * and /, which round as Python's do;
    exp, log, lgamma and expm1 come from math per element, because numpy's
    SIMD versions can differ from them by an ulp.  Every other element (x = 0
    or inf, x past _EXP_ARG_MAX, NaN or negative x, and every element under
    any other shape) goes to the scalar function, looked up at call time, which
    also raises its ValueError.
    """
    xs = np.asarray(x, dtype=float)
    flat = xs.ravel()
    out = np.empty(flat.size)
    if 1 <= s < _LARGE_SHAPE and s == int(s):
        fast = (flat > 0.0) & (flat <= _EXP_ARG_MAX)
    else:
        fast = np.zeros(flat.size, dtype=bool)
    if s == 1:
        out[fast] = -_map(math.expm1, -flat[fast])
    elif fast.any():
        series = fast & (flat < 0.5 * s)
        summed = np.flatnonzero(fast & ~series)
        if summed.size:
            v = flat[summed]
            term, total = np.ones(v.size), np.ones(v.size)
            for i in range(1, int(s)):
                term *= v / i
                total += term
            q = _map(math.exp, -v) * total
            ok = q <= 0.9
            out[summed[ok]] = 1.0 - q[ok]
            over = summed[~ok]   # Q > 0.9: the series below s + 1, the scalar above
            below = flat[over] < s + 1.0
            series[over[below]] = True
            fast[over[~below]] = False
        if series.any():
            out[series] = _gamma_series_array(s, flat[series])
    rest = np.flatnonzero(~fast)
    if rest.size:
        scalar = lower_incomplete_gamma_regularized
        out[rest] = [scalar(s, v) for v in flat[rest].tolist()]
    return out.reshape(xs.shape)


def gamma_cdf(x, shape):
    """CDF of a Gamma(shape, 1) variate; accepts arrays.

    Element by element, the result is bit for bit
    lower_incomplete_gamma_regularized(shape, max(v, 0.0)) on the element as a
    Python float, with one call of the module-level function per element, looked
    up at call time.  A NaN element raises ValueError.
    """
    xs = np.asarray(x, dtype=float)
    scalar = lower_incomplete_gamma_regularized
    # Python floats: numpy float64 scalars make the scalar loops several times slower
    out = np.array([scalar(shape, v) for v in np.maximum(xs, 0.0).ravel().tolist()])
    return out.reshape(xs.shape) if xs.ndim else float(out[0])


# -- exponential integral ---------------------------------------------------

_EULER_GAMMA = 0.5772156649015328606


def _exp_scaled_e1_series(x):
    """exp(x) * E1(x) for 0 < x <= 1, from the power series of E1."""
    total = -_EULER_GAMMA - math.log(x)
    term = 1.0
    minus_x = -x
    for k in range(1, _ITMAX):
        term *= minus_x / k
        contrib = -term / k
        total += contrib
        if abs(contrib) < total * 1e-16:   # total nears E1(x) > 0 before this can hold
            return math.exp(x) * total
    raise NumericsError("E1 series did not converge")


def exp_scaled_e1(x):
    """exp(x) * E1(x) for x > 0; stable for arbitrarily large x, 0 at x = inf."""
    if not x > 0:
        raise ValueError(f"argument must be positive, got {x}")
    if x <= 1.0:
        return _exp_scaled_e1_series(x)
    if math.isinf(x):
        return 0.0   # the limit of e^x E1(x) ~ 1/x
    return _upper_gamma_cf(0.0, x)   # E1(x) = Gamma(0, x)


def exp_scaled_en(n, x, prev=None):
    """exp(x) * E_n(x) for integer n >= 1 and x > 0, 0 at x = inf.

    For x <= 1, the upward recurrence e^x E_{i+1}(x) = (1 - x e^x E_i(x)) / i,
    started from prev = e^x E_{n-1}(x) when the caller has it (n >= 2), else
    from the E1 series.  With e^x E_i(x) < 1/(x + i - 1), each step scales
    the relative error by x e^x E_i / (1 - x e^x E_i): at most 1.5 at i = 1
    and below 1/(i - 1) after, so nothing grows.  For x > 1 (prev unused),
    the continued fraction of Gamma(1 - n, x) = x^(1-n) E_n(x).
    """
    n = operator.index(n)   # TypeError unless n is an integer
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    if not x > 0:
        raise ValueError(f"argument must be positive, got {x}")
    if x <= 1.0:
        if prev is None or n == 1:
            prev, first = _exp_scaled_e1_series(x), 1
        else:
            first = n - 1
        for i in range(first, n):
            prev = (1.0 - x * prev) / i
        return prev
    if math.isinf(x):
        return 0.0   # the limit of e^x E_n(x) ~ 1/x
    return _upper_gamma_cf(1.0 - n, x)


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
