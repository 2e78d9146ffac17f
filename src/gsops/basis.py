"""Bernstein basis evaluation and the scalar machinery built on it.

Provides stable evaluation of the basis P_{n,k}(x) = C(n,k) x^k (1-x)^(n-k)
by the degree-raising (de Casteljau style) triangular recurrence, a faster
closed-form (log-domain) evaluation for screening with an a-priori bound on
its error, the rational functions T_{n,k} that represent the action of
Dtilde on the basis and their first two derivatives (one vectorized
t_matrix, at interior points), the interior zeros xi_k of T'_{n,k}, the
closed-form central moments of the Bernstein operator, and the tail sums

    lambda(n) = sum_{k>=n} 1/(k^2 (k+1)),
    theta(n)  = sum_{k>=n} 1/(k^2 (k+1)^2),

with a certified truncation bound.

Everything here is a pure function of its arguments; no shared mutable state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation

__all__ = [
    "TailSums",
    "bernstein_matrix",
    "closed_form_basis",
    "closed_form_error",
    "t_matrix",
    "xi_zero",
    "moment",
    "tail_sums",
    "phi_big",
]

#: Floats in each work array of the basis and de Casteljau kernels (256 KiB).
EVAL_WORKSPACE = 2**15


def _eval_chunk(n: int) -> int:
    """Points per kernel chunk at degree n: at most 256, and (n+1) of them fit the workspace."""
    return max(1, min(256, EVAL_WORKSPACE // (n + 1)))


def bernstein_matrix(n: int, xs) -> np.ndarray:
    """Basis values at many points: out[i, k] = P_{n,k}(xs[i]).

    Computed by the degree-raising recurrence
    P_{j,k} = x P_{j-1,k-1} + (1-x) P_{j-1,k}, vectorized over the points.
    Never forms binomial coefficients, so there is no overflow for any n and
    no loss from huge intermediate products.  NaN points are rejected.

    The points are taken in chunks of w = _eval_chunk(n).  A chunk runs level
    by level, in place, over flat arrays in which row k holds P_{j,k} at each
    of its points, so level j is three contiguous ufunc calls on prefixes of
    length j * w and a copy of the new top row.  Every entry is still
    x P_{j-1,k-1} + (1-x) P_{j-1,k}, rounded as in the level-by-level form.
    Each of the four work arrays holds at most EVAL_WORKSPACE floats.
    """
    xs = _basis_points(n, xs)
    out = np.empty((xs.size, n + 1))
    width = max(1, min(_eval_chunk(n), xs.size))
    b_buf = np.empty((n + 1) * width)
    x_buf, s_buf, tmp = np.empty((3, n * width))
    for start in range(0, xs.size, width):
        x = xs[start : start + width]
        w = x.size
        b = b_buf[: (n + 1) * w]
        X, S = x_buf[: n * w], s_buf[: n * w]
        X.reshape(n, w)[:] = x
        np.subtract(1.0, X, out=S)
        b[:w] = 1.0
        for jw in range(w, n * w + 1, w):
            head, prod = b[:jw], tmp[:jw]
            np.multiply(X[:jw], head, out=prod)
            np.multiply(S[:jw], head, out=head)
            np.add(b[w:jw], prod[: jw - w], out=b[w:jw])
            b[jw : jw + w] = prod[jw - w :]
        out[start : start + w] = b.reshape(n + 1, w).T
    return out


def _basis_points(n: int, xs) -> np.ndarray:
    if n < 0:
        raise ValueError("degree must be >= 0")
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if xs.size and not (xs.min() >= 0.0 and xs.max() <= 1.0):
        raise ValueError("evaluation points must lie in [0, 1]")
    return xs


#: Safety factor C of closed_form_error; its docstring derives 5.6 as enough.
CLOSED_FORM_SAFETY = 8.0


def closed_form_basis(n: int, xs) -> np.ndarray:
    """Basis values from the closed form: out[i, k] ~ P_{n,k}(xs[i]), for screening.

    Each interior entry is exp(log C(n,k) + k log x + (n-k) log1p(-x)), with
    log C(n,k) taken from the exact integer C(n,k); rows at x = 0 and x = 1
    are the unit vectors.  O(n) work per point against the recurrence's
    O(n^2), but the entries are not those of bernstein_matrix: each is within
    the bound of closed_form_error.  The rows are built in blocks of
    w = _eval_chunk(n) points directly in the result, with one work array of
    at most EVAL_WORKSPACE floats.
    """
    xs = _basis_points(n, xs)
    out = np.empty((xs.size, n + 1))
    k = np.arange(n + 1, dtype=float)
    log_binom = np.empty(n + 1)
    c = 1
    for j in range(n + 1):
        log_binom[j] = math.log(c)
        c = c * (n - j) // (j + 1)
    # endpoint rows get the finite stand-in logs -1 (every entry then lies in
    # (0, 1], since C(n,k) < e^n) and are set to unit vectors below
    inner = (xs > 0.0) & (xs < 1.0)
    log_x = np.log(xs, out=np.full(xs.size, -1.0), where=inner)
    log_1mx = np.log1p(-xs, out=np.full(xs.size, -1.0), where=inner)
    width = max(1, min(_eval_chunk(n), xs.size))
    tmp = np.empty((width, n + 1))
    for start in range(0, xs.size, width):
        block = out[start : start + width]
        w = block.shape[0]
        np.multiply(log_x[start : start + w, None], k, out=block)
        np.multiply(log_1mx[start : start + w, None], n - k, out=tmp[:w])
        block += tmp[:w]
        block += log_binom
        np.exp(block, out=block)
    out[xs == 0.0] = k == 0
    out[xs == 1.0] = k == n
    return out


def closed_form_error(n: int, xs) -> np.ndarray:
    """r(xs[i]): a bound on the relative error of every entry of row i of closed_form_basis.

    Each entry B of row i satisfies |B - P_{n,k}(x)| <= r(x) P_{n,k}(x) + tiny,
    tiny = 2^-1022 standing for an underflow to 0 or to a subnormal, where

        r(x) = C eps (max_k log C(n,k) + n (|log x| + |log1p(-x)|) + 1),

    C = CLOSED_FORM_SAFETY.  Assumed: numpy's log, log1p and exp and
    math.log of an integer each err by at most 4 ULP (4 eps relative) on
    normal results.  The computed exponent L then errs by at most
    (4 + 1/2 + 1) eps S, from the logs, the products with k and n - k and
    the two sums, where S = log C(n,k) + k |log x| + (n-k) |log1p(-x)|
    bounds every partial sum; so exp(L) errs by at most 1.01 * 5.5 eps S +
    4.1 eps relative while 5.5 eps S <= 0.01, that is for every n below
    1e10.  S is at most the bracket above, so C = 5.6 would do and 8 leaves
    room.  The endpoint rows are exact.
    """
    xs = _basis_points(n, xs)
    inner = (xs > 0.0) & (xs < 1.0)
    spread = np.zeros(xs.size)
    spread[inner] = np.abs(np.log(xs[inner])) + np.abs(np.log1p(-xs[inner]))
    eps = float(np.finfo(float).eps)
    return CLOSED_FORM_SAFETY * eps * (math.log(math.comb(n, n // 2)) + n * spread + 1.0)


def t_matrix(n: int, xs, order: int = 0) -> np.ndarray:
    """T_{n,k} (order 0), T'_{n,k} (1) or T''_{n,k} (2) at xs[i], as a (len(xs), n+1) array.

    T_{n,k}(x)   = k(k-1)(1-x)/x - 2k(n-k) + (n-k)(n-k-1)x/(1-x) is the
    eigen-factor of the Bernstein basis under Dtilde: Dtilde P_{n,k} = T_{n,k} P_{n,k};
    T'_{n,k}(x)  = -k(k-1)/x^2 + (n-k)(n-k-1)/(1-x)^2;
    T''_{n,k}(x) = 2k(k-1)/x^3 + 2(n-k)(n-k-1)/(1-x)^3, positive on (0, 1).
    The points must lie strictly inside (0, 1).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if order not in (0, 1, 2):
        raise ValueError(f"order must be 0, 1 or 2, got {order!r}")
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if xs.size == 0 or not (xs.min() > 0.0 and xs.max() < 1.0):
        raise ValueError("x must lie strictly inside (0, 1)")
    k = np.arange(n + 1, dtype=float)
    kk1 = k * (k - 1.0)
    mm1 = (n - k) * (n - k - 1.0)
    if order == 0:
        return np.outer((1.0 - xs) / xs, kk1) - 2.0 * k * (n - k) + np.outer(xs / (1.0 - xs), mm1)
    inv_x = 1.0 / xs
    inv_1mx = 1.0 / (1.0 - xs)
    if order == 1:
        return -np.outer(inv_x**2, kk1) + np.outer(inv_1mx**2, mm1)
    return 2.0 * np.outer(inv_x**3, kk1) + 2.0 * np.outer(inv_1mx**3, mm1)


def xi_zero(n: int, k: int) -> float:
    """The unique interior zero of T'_{n,k} for 2 <= k <= n-2.

    xi_k = sqrt(C(k,2)) / (sqrt(C(k,2)) + sqrt(C(n-k,2))), which lies strictly
    between (k-1)/n and k/n.
    """
    if not 2 <= k <= n - 2:
        raise ValueError(f"k={k} must satisfy 2 <= k <= n-2 (n={n})")
    a = math.sqrt(math.comb(k, 2))
    b = math.sqrt(math.comb(n - k, 2))
    return a / (a + b)


def moment(n: int, i: int, x: float) -> float:
    """Closed form of the Bernstein central moment mu_{n,i}(x).

    mu_{n,i}(x) = sum_k (k/n - x)^i P_{n,k}(x); only orders 0..4 have closed
    forms housed here.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    phi = x * (1.0 - x)
    if i == 0:
        return 1.0
    if i == 1:
        return 0.0
    if i == 2:
        return phi / n
    if i == 3:
        return (1.0 - 2.0 * x) * phi / n**2
    if i == 4:
        return (3.0 * (n - 2) * phi * phi + phi) / n**3
    raise ValueError(f"no closed form for moment order {i} (supported: 0..4)")


@dataclass(frozen=True)
class TailSums:
    """lambda(n) and theta(n) with a guaranteed truncation bound.

    ``abs_err`` bounds the absolute error of both fields; it is tiny relative
    to lambda (<= 1e-14 * lam by construction).
    """

    n: int
    lam: float
    theta: float
    abs_err: float


def tail_sums(n: int) -> TailSums:
    """Compute lambda(n), theta(n) by direct summation plus a certified tail.

    Terms k = n .. K-1 are summed directly (compensated summation).  The
    remainder from K on is an enveloping asymptotic tail whose error is
    bounded by the first omitted term; as a self-validating certificate the
    correction is required to lie inside the telescoping brackets

        1/(2K(K+1))     < tail_lambda(K) < 1/(2K(K-1)),
        1/(3K(K+1)(K+2)) < tail_theta(K) < 1/(3(K-1)K(K+1)),

    the same brackets that prove 1/(2n^2) <= lambda(n) <= 1/n^2 and
    theta(n) <= 4/(9 n^3).
    """
    if n < 2:
        raise ValueError("tail sums are defined for n >= 2")
    K = max(n + 16, 100)

    lam_direct = math.fsum(1.0 / (k * k * (k + 1)) for k in range(n, K))
    theta_direct = math.fsum(1.0 / (k * k * (k + 1) * (k + 1)) for k in range(n, K))

    Kf = float(K)
    lam_tail = 1.0 / (2 * Kf**2) + 1.0 / (6 * Kf**3) - 1.0 / (30 * Kf**5) + 1.0 / (42 * Kf**7)
    lam_tail_err = 1.0 / (30 * Kf**9)
    theta_tail = 1.0 / (3 * Kf**3) - 1.0 / (15 * Kf**5) + 1.0 / (21 * Kf**7)
    theta_tail_err = 1.0 / (15 * Kf**9)

    if not 1.0 / (2 * Kf * (Kf + 1)) < lam_tail < 1.0 / (2 * Kf * (Kf - 1)):
        raise InvariantViolation(f"lambda tail correction escaped its bracket at K={K}")
    if not 1.0 / (3 * Kf * (Kf + 1) * (Kf + 2)) < theta_tail < 1.0 / (3 * (Kf - 1) * Kf * (Kf + 1)):
        raise InvariantViolation(f"theta tail correction escaped its bracket at K={K}")

    lam = lam_direct + lam_tail
    theta = theta_direct + theta_tail
    eps = float(np.finfo(float).eps)
    abs_err = max(lam_tail_err, theta_tail_err) + 4.0 * eps * lam
    return TailSums(n=n, lam=lam, theta=theta, abs_err=abs_err)


def phi_big(alpha: float, n: int, x):
    """Direct summation of Phi(alpha) = sum_k (alpha - T_{n,k}(x)/n)^2 P_{n,k}(x).

    Deliberately computed term by term; the closed form alpha^2 + 2 - 2/n is
    the independent oracle, not the implementation.  x may be a scalar or an
    array of strictly interior points.
    """
    xs = np.asarray(x, dtype=float)
    pts = np.atleast_1d(xs)
    t = t_matrix(n, pts)
    p = bernstein_matrix(n, pts)
    out = np.sum((alpha - t / n) ** 2 * p, axis=1)
    return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)
