"""The numeric coefficient integrals, by composite 24-point Gauss-Legendre rules.

The rule on [0,1] is built on first use, by Newton iteration for the
Legendre roots from Chebyshev initial guesses, and integrates polynomials up
to degree 47 exactly.  The adaptive computation of the operator coefficients
u_{n,k}(f) applies it on 1, 2, 4, ... panels.

The rule is read-only and shareable across threads; a function's evaluation
must be safe for concurrent invocation (it receives a whole ndarray of
points).
"""

from __future__ import annotations

import math
from functools import cache
from typing import Sequence

import numpy as np

from .basis import bernstein_matrix
from .catalog import FunctionSpec
from .errors import IntegrationError, ToleranceError

__all__ = ["u_coefficients_numeric"]

MAX_PANELS = 1024  # 2**10
NEWTON_TOL = 1e-15
NEWTON_MAX_ITER = 100


def _legendre_and_derivative(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_m(x) and P'_m(x) on [-1,1] by the three-term recurrence."""
    p_prev = np.ones_like(x)
    p = x.copy()
    for j in range(2, m + 1):
        p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
    dp = m * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


def _gauss_legendre(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights of the m-point Gauss-Legendre rule on [0,1].

    Roots are found by Newton iteration started from the Chebyshev-type
    guesses cos(pi (i + 3/4) / (m + 1/2)) and polished until the update falls
    below 1e-15; weights come from the standard derivative formula.  Nodes
    increase and weights sum to 1.
    """
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
    return nodes, weights


@cache
def _rule() -> tuple[np.ndarray, np.ndarray]:
    """The 24-point rule of every panel, built once."""
    return _gauss_legendre(24)


def _panel_points(panels: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = _rule()
    offsets = np.arange(panels, dtype=float)[:, None]
    pts = ((offsets + nodes[None, :]) / panels).ravel()
    wts = np.tile(weights / panels, panels)
    return pts, wts


def _refinement(f: FunctionSpec, n: int, target_tol: float):
    """u_{n,k}(f) as a generator, sent (points, weights, basis) of 1, 2, 4, ... panels in turn."""
    u0 = float(f.eval(0.0))
    un = float(f.eval(1.0))
    if n == 1:
        return np.array([u0, un])
    prev: np.ndarray | None = None
    achieved = math.inf
    for _ in range(MAX_PANELS.bit_length()):
        pts, wts, basis = yield
        vals = np.asarray(f.eval(pts), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise IntegrationError(f"function {f.name!r} non-finite at a quadrature node")
        interior = (n - 1) * (basis.T @ (wts * vals))
        del basis  # so that no frame holds it while the next one is built
        if prev is not None:
            achieved = float(np.max(np.abs(interior - prev)))
            if achieved < target_tol:
                return np.concatenate(([u0], interior, [un]))
        prev = interior
    raise ToleranceError(
        f"u_{{{n},k}}({f.name}) did not reach tol={target_tol:g} within {MAX_PANELS} panels "
        f"(last change {achieved:.3e})",
        best=np.concatenate(([u0], prev, [un])),
        achieved=achieved,
    )


def u_coefficients_numeric(fs: Sequence[FunctionSpec], n: int, target_tol: float) -> list:
    """The coefficients u_{n,k}(f) of each f in fs by quadrature, endpoints taken exactly.

    The 24-point rule with panel doubling until two successive sweeps of
    all interior coefficients agree to ``target_tol`` in max norm.
    (analysis.Sweep takes polynomials by the exact path.)  Returns a list with
    each function's coefficients or its error: a ToleranceError (carrying the
    best estimate) if 2**10 panels are not enough.  The functions share each
    panel count's basis, and each closes where it would alone, bit for bit as
    in a call of its own.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    pending = {i: _refinement(f, n, target_tol) for i, f in enumerate(fs)}
    results: list = [None] * len(pending)

    def advance(sweep) -> None:
        for i, gen in list(pending.items()):
            try:
                gen.send(sweep)
                continue
            except StopIteration as stop:
                results[i] = stop.value
            except Exception as exc:
                results[i] = exc
            del pending[i]

    advance(None)
    panels = 1
    while pending:
        pts, wts = _panel_points(panels)
        advance((pts, wts, bernstein_matrix(n - 2, pts)))
        panels *= 2
    return results
