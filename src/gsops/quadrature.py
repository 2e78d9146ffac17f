"""The operator coefficients u_{n,k}(f) of catalog functions, in closed form.

u_{n,0} = f(0), u_{n,n} = f(1), and each interior coefficient is the integral
(n-1) int_0^1 P_{n-2,k-1}(t) f(t) dt.  A function carries its route to them
(FunctionSpec.route): a callable that takes n >= 2 and returns the interior
coefficients together with a bound on the error of every one of them.  Two
routes cover the catalog, and neither evaluates f:

* ``entire_route``: a power series sum_q a_q t^q, truncated after Q terms.
  Termwise u_{n,k}(t^q) = (k)_q / (n)_q (rising factorials), a ratio in
  [0, 1], so the truncation error is at most sum_{q>Q} |a_q|.
* ``kink_power_route``: |t - 1/2|^gamma.  The integral splits at 1/2, and the
  left half is the mirror of the right.  On t = (1+s)/2 the right half of
  P_{N,j} has the nonnegative Bernstein coefficients C(N-i, j-i) 2^-(N-i)
  (de Casteljau subdivision), and int B_{N,i}(s) s^gamma ds = M_i with
  M_i / M_{i-1} = (i + gamma) / i.  The sums over i are taken by the
  transpose of the subdivision, halvings and additions of positive numbers.

The bounds count every rounding of float64 arithmetic (unit roundoff u =
2^-53), so a coefficient is certified to its bound, not estimated.
``u_coefficients_numeric`` checks that bound against ``COEFFICIENT_TOL``.

Routes are pure functions of n: they hold read-only data and may run in any
number of threads.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import ToleranceError

__all__ = ["entire_route", "kink_power_route", "u_coefficients_numeric"]

#: Interior coefficients of U_n f and a bound on the error of each, for n >= 2.
Route = Callable[[int], tuple[np.ndarray, float]]

UNIT_ROUNDOFF = 2.0**-53

#: The error bound every route must certify; the catalog's routes state at
#: most 1.6e-13 up to n = 512.
COEFFICIENT_TOL = 1e-10


def _gamma_bound(m: int) -> float:
    """gamma_m = m u / (1 - m u), the relative error of m roundings."""
    return m * UNIT_ROUNDOFF / (1.0 - m * UNIT_ROUNDOFF)


def entire_route(taylor: Sequence[float], tail: float) -> Route:
    """The route of f(t) = sum_q a_q t^q + r(t), where |r| <= tail on [0, 1].

    ``taylor`` holds each a_q rounded to the nearest float.  u_{n,k} =
    sum_{q<=Q} a_q (k)_q / (n)_q by Horner's rule over the ratios
    (k+q)/(n+q), vectorized over k: the term of a_q meets at most 3q + 2
    roundings, its own among them, so the computed value is off by at most
    gamma_{3Q+4} sum_q |a_q| (two spare roundings for the float sum), plus
    ``tail`` for the truncation.
    """
    a = list(taylor) or [0.0]
    bound = _gamma_bound(3 * len(a) + 1) * math.fsum(abs(c) for c in a) + tail

    def route(n: int) -> tuple[np.ndarray, float]:
        k = np.arange(1, n, dtype=float)
        total = np.full(n - 1, a[-1])
        for q in range(len(a) - 2, -1, -1):
            total = a[q] + (k + q) / (n + q) * total
        return total, bound

    return route


def kink_power_route(gamma: float) -> Route:
    """The route of f(t) = |t - 1/2|^gamma, gamma > -1.

    With N = n - 2 and j = k - 1, u_{n,k} = (n-1) 2^{-gamma-1} (R_j + R_{N-j}),
    R_j = sum_{i<=j} C(N-i, j-i) 2^-(N-i) M_i.  Every term is positive, so the
    relative errors add: at most 3N + 2 roundings in M_0 = B(gamma+1, N+1),
    3 per step of the ratios, N in the additions of the subdivision and 6 in
    the scaling, gamma_{7N+10} relative in all.  Halvings are exact until
    they reach subnormal numbers, which costs at most 2^-1074 per operation.
    """
    if not gamma > -1.0:
        raise ValueError("the kink power needs gamma > -1")

    def route(n: int) -> tuple[np.ndarray, float]:
        N = n - 2
        i = np.arange(1, N + 1, dtype=float)
        M = np.empty(N + 1)
        M[0] = math.prod(m / (m + gamma) for m in range(1, N + 1)) / (N + gamma + 1)
        M[1:] = (i + gamma) / i
        M = np.cumprod(M)
        R = np.empty(N + 1)  # the transpose of the subdivision, one level per step
        R[0] = M[0]
        for width in range(1, N + 1):
            half = R[:width] * 0.5
            R[:width] = half
            R[1:width] += half[:-1]
            R[width] = half[-1] + M[width]
        u = (n - 1) * 2.0 ** (-gamma - 1.0) * (R + R[::-1])
        scale = (n - 1) * 2.0 ** (-gamma)
        return u, _gamma_bound(7 * N + 10) * float(u.max()) + scale * (N + 1) ** 2 * math.ulp(0.0)

    return route


def u_coefficients_numeric(f, n: int) -> np.ndarray:
    """The coefficients u_{n,k}(f), k = 0..n, by f's route, endpoints from f.eval.

    Raises ToleranceError when the route's bound exceeds ``COEFFICIENT_TOL``
    or a coefficient is not finite (then the bound is inf).
    (analysis.Sweep takes polynomials by the exact path.)
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if f.route is None:
        raise ValueError(f"function {f.name!r} has no coefficient route")
    interior, bound = f.route(n) if n > 1 else (np.empty(0), 0.0)
    u = np.concatenate(([float(f.eval(0.0))], interior, [float(f.eval(1.0))]))
    if not np.all(np.isfinite(u)):
        bound = math.inf
    if not bound <= COEFFICIENT_TOL:
        raise ToleranceError(
            f"u_{{{n},k}}({f.name}) is certified to {bound:.3e}, not to tol={COEFFICIENT_TOL:g}"
        )
    return u
