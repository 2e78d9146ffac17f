"""Gauss-Legendre rules on [0,1] and the numeric coefficient integrals.

Rule generation finds the Legendre roots by Newton iteration from Chebyshev
initial guesses; a rule of size m integrates polynomials up to degree 2m-1
exactly.  The adaptive computation of the operator coefficients u_{n,k}(f)
by composite rules lives here too.

Rules are immutable and shareable across threads; a function's evaluation
must be safe for concurrent invocation (it receives a whole ndarray of
points).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .basis import bernstein_matrix
from .errors import IntegrationError, ToleranceError

if TYPE_CHECKING:  # pragma: no cover
    from .catalog import FunctionSpec

__all__ = ["QuadratureRule", "gauss_legendre", "u_coefficients_numeric"]

MAX_RULE_SIZE = 512
MAX_PANELS = 1024  # 2**10
NEWTON_TOL = 1e-15
NEWTON_MAX_ITER = 100


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre nodes/weights mapped to [0,1].

    ``exactness`` = 2m - 1 is the highest polynomial degree integrated
    exactly.  Weights sum to 1; nodes are strictly increasing and symmetric
    about 1/2.
    """

    m: int
    nodes: np.ndarray
    weights: np.ndarray
    exactness: int


def _legendre_and_derivative(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_m(x) and P'_m(x) on [-1,1] by the three-term recurrence."""
    p_prev = np.ones_like(x)
    p = x.copy()
    for j in range(2, m + 1):
        p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
    dp = m * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


@lru_cache(maxsize=None)
def gauss_legendre(m: int) -> QuadratureRule:
    """Generate the m-point Gauss-Legendre rule on [0,1].

    Roots are found by Newton iteration started from the Chebyshev-type
    guesses cos(pi (i + 3/4) / (m + 1/2)) and polished until the update falls
    below 1e-15; weights come from the standard derivative formula.
    """
    if not 1 <= m <= MAX_RULE_SIZE:
        raise ValueError(f"rule size must be in 1..{MAX_RULE_SIZE}, got {m}")
    i = np.arange(m)
    x = np.cos(np.pi * (i + 0.75) / (m + 0.5))
    for _ in range(NEWTON_MAX_ITER):
        p, dp = _legendre_and_derivative(m, x)
        dx = p / dp
        x = x - dx
        if np.max(np.abs(dx)) < NEWTON_TOL:
            break
    else:
        raise RuntimeError(f"Legendre root search did not converge for m={m}")
    _, dp = _legendre_and_derivative(m, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)

    nodes = ((1.0 + x) / 2.0)[::-1].copy()
    weights = (w / 2.0)[::-1].copy()
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(m=m, nodes=nodes, weights=weights, exactness=2 * m - 1)


def _panel_points(rule: QuadratureRule, panels: int) -> tuple[np.ndarray, np.ndarray]:
    offsets = np.arange(panels, dtype=float)[:, None]
    pts = ((offsets + rule.nodes[None, :]) / panels).ravel()
    wts = np.tile(rule.weights / panels, panels)
    return pts, wts


def _interior_coefficients(
    f: "FunctionSpec", n: int, rule: QuadratureRule, panels: int
) -> np.ndarray:
    pts, wts = _panel_points(rule, panels)
    vals = np.asarray(f.eval(pts), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise IntegrationError(f"function {f.name!r} non-finite at a quadrature node")
    basis = bernstein_matrix(n - 2, pts)
    return (n - 1) * (basis.T @ (wts * vals))


def u_coefficients_numeric(f: "FunctionSpec", n: int, target_tol: float) -> np.ndarray:
    """The coefficients u_{n,k}(f) by quadrature, endpoints taken exactly.

    A fixed 24-point rule with panel doubling until two successive sweeps of
    all interior coefficients agree to ``target_tol`` in max norm.  (apply_U
    takes polynomials by the exact path.)

    Raises ToleranceError (carrying the best estimate) if 2**10 panels are
    not enough.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    u0 = float(f.eval(0.0))
    un = float(f.eval(1.0))
    if n == 1:
        return np.array([u0, un])

    rule = gauss_legendre(24)

    prev: np.ndarray | None = None
    achieved = math.inf
    panels = 1
    while panels <= MAX_PANELS:
        interior = _interior_coefficients(f, n, rule, panels)
        if prev is not None:
            achieved = float(np.max(np.abs(interior - prev)))
            if achieved < target_tol:
                return np.concatenate(([u0], interior, [un]))
        prev = interior
        panels *= 2
    raise ToleranceError(
        f"u_{{{n},k}}({f.name}) did not reach tol={target_tol:g} within {MAX_PANELS} panels "
        f"(last change {achieved:.3e})",
        best=np.concatenate(([u0], prev, [un])),
        achieved=achieved,
    )
