"""Float algebra on Bernstein forms: U_n and Utilde_n of a form, powers of Dtilde.

Operator outputs are closed-form polynomials held as BernsteinForm (degree-n
Bernstein coefficients, de Casteljau evaluation); analysis.Sweep forms U_n f.
Dtilde acts as a closed coefficient map degree n -> degree n, so Dtilde^2 and
Dtilde^3 of operator outputs never involve numerical differentiation.  For
catalog functions the powers of Dtilde are expanded symbolically into exact
coefficient polynomials against the analytic derivatives.

All transformations are pure; grid sweeps may run concurrently without
changing any result (fixed summation orders throughout).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis import _eval_chunk
from .catalog import MAX_DERIVATIVE_ORDER, FunctionSpec
from .exactpoly import PHI, RationalPoly

__all__ = [
    "BernsteinForm",
    "dtilde_form",
    "dtilde_coefficient_map",
    "u_coefficient_matrix",
    "apply_Utilde_to_form",
    "utilde_from_u",
    "dtilde_power_terms",
    "dtilde_of_function",
]


@dataclass(frozen=True, eq=False)
class BernsteinForm:
    """A polynomial as float coefficients in the degree-n Bernstein basis.

    p(x) = sum_k coeffs[k] P_{n,k}(x).  Evaluation always goes through the
    de Casteljau recurrence (numerically stable convex combinations); the
    basis interpolates at the endpoints, so p(0) = coeffs[0] and
    p(1) = coeffs[n] exactly.
    """

    n: int
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim not in (1, 2) or c.shape[-1] != self.n + 1:
            raise ValueError(f"need {self.n + 1} coefficients for degree {self.n}")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    def eval(self, x, rows=None):
        """De Casteljau evaluation at a scalar or an array of points.

        coeffs may also be a (K, n+1) stack of K forms of one degree; then
        ``rows`` gives, for each point of x, the row it is taken with, so one
        call evaluates each form at its own points.  A single form is the
        one-row case and takes no ``rows``.

        The points are taken in chunks of w = _eval_chunk(n).  A chunk runs
        level by level, in place, over flat arrays in which row k holds
        coefficient k of each point's form at that point, gathered per chunk,
        so a level is three contiguous ufunc calls on prefixes of length
        level * w.  Every entry is still (1 - t) b_k + t b_{k+1}, rounded as
        in the textbook recurrence, so a point takes the same bits in a stack
        as alone.  Each of the four work arrays holds at most
        basis.EVAL_WORKSPACE floats, for any degree below it.

        A constant form, every coefficient the same bits, holds one value v per
        point at every level, each entry fl(fl((1 - t) v) + fl(t v)) of the
        level above.  n steps of that update over the points alone give the
        triangle's bits at O(n) per point instead of O(n^2); in a stack, the
        points of constant rows take it and the others the triangle.
        Constancy is read from the bits, so a form mixing 0.0 and -0.0 takes
        the triangle.
        """
        xs = np.asarray(x, dtype=float)
        pts = np.atleast_1d(xs).ravel()
        c = self.coeffs
        if rows is None:
            if c.ndim != 1:
                raise ValueError("a stack of forms needs the row of each point")
            bits = c.view(np.int64)
            out = _flat_levels(c[0], pts, self.n) if np.all(bits == bits[0]) else _triangle(c[None], pts, None, self.n)
        else:
            stack = c.reshape(-1, self.n + 1)
            rows = np.asarray(rows, dtype=np.intp).ravel()
            if rows.shape != pts.shape or np.any(rows < 0) or np.any(rows >= len(stack)):
                raise ValueError("need one row of the stack per point")
            bits = stack.view(np.int64)
            on_flat = np.all(bits == bits[:, :1], axis=1)[rows]
            out = np.empty(pts.size)
            if on_flat.any():
                out[on_flat] = _flat_levels(stack[rows[on_flat], 0], pts[on_flat], self.n)
            if not on_flat.all():
                on_triangle = ~on_flat
                out[on_triangle] = _triangle(stack, pts[on_triangle], rows[on_triangle], self.n)
        return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)

    def __sub__(self, other: "BernsteinForm") -> "BernsteinForm":
        if self.n != other.n:
            raise ValueError("degree mismatch")
        return BernsteinForm(self.n, self.coeffs - other.coeffs)

    def scale(self, s: float) -> "BernsteinForm":
        return BernsteinForm(self.n, float(s) * self.coeffs)

    @classmethod
    def from_json_dict(cls, data) -> "BernsteinForm":
        """The form of a parsed {"degree": n, "coeffs": [...]} document, or ValueError.

        n is an int >= 0 and coeffs a list of n + 1 finite numbers; bools are neither.
        """
        if not isinstance(data, dict):
            raise ValueError("a form must be an object with a degree and coeffs")
        n, coeffs = data.get("degree"), data.get("coeffs")
        if type(n) is not int or n < 0:
            raise ValueError("the form's degree must be an integer >= 0")
        if not isinstance(coeffs, list) or len(coeffs) != n + 1:
            raise ValueError(f"the form needs a list of {n + 1} coefficients")
        if any(type(c) not in (int, float) or not abs(c) <= sys.float_info.max for c in coeffs):
            raise ValueError("the form has a non-finite coefficient or one that is not a number")
        return cls(n, np.array(coeffs, dtype=float))


def _flat_levels(start, pts: np.ndarray, n: int) -> np.ndarray:
    """n levels of v <- fl(fl((1 - t) v) + fl(t v)) from v = start (one value or one per point)."""
    out = np.full(pts.size, start)
    S, prod = 1.0 - pts, np.empty(pts.size)
    for _ in range(n):
        np.multiply(pts, out, out=prod)
        np.multiply(S, out, out=out)
        np.add(out, prod, out=out)
    return out


def _triangle(stack: np.ndarray, pts: np.ndarray, rows, n: int) -> np.ndarray:
    """The de Casteljau triangle of row rows[i] of stack (row 0 if rows is None) at pts[i]."""
    out = np.empty(pts.size)
    width = max(1, min(_eval_chunk(n), pts.size))
    b_buf = np.empty((n + 1) * width)
    t_buf = np.empty(n * width)
    s_buf = np.empty(n * width)
    tmp = np.empty(n * width)
    columns = stack.T
    for start in range(0, pts.size, width):
        t = pts[start : start + width]
        w = t.size
        b = b_buf[: (n + 1) * w]
        T = t_buf[: n * w]
        S = s_buf[: n * w]
        if rows is None:
            b.reshape(n + 1, w)[:] = columns
        else:
            np.take(columns, rows[start : start + w], axis=1, out=b.reshape(n + 1, w), mode="clip")
        T.reshape(n, w)[:] = t
        np.subtract(1.0, T, out=S)
        for m in range(n * w, 0, -w):
            head, prod = b[:m], tmp[:m]
            np.multiply(T[:m], b[w : m + w], out=prod)
            np.multiply(S[:m], head, out=head)
            np.add(head, prod, out=head)
        out[start : start + w] = b[:w]
    return out


def dtilde_coefficient_map(coeffs: np.ndarray) -> np.ndarray:
    """The action of Dtilde on degree-n Bernstein coefficients along the last axis.

    d_j = j(n-j) (c_{j-1} - 2c_j + c_{j+1}), d_0 = d_n = 0: p'' in the
    degree-(n-2) basis is n(n-1) times the second differences, and
    phi P_{n-2,j-1} = (j(n-j) / ((n-1)n)) P_{n,j}.  The formula of the exact
    engine (exactpoly._dtilde_bernstein).  Annihilates coefficient vectors
    that are affine in j.  Each row of a stack maps as it would alone.
    """
    c = np.asarray(coeffs, dtype=float)
    n = c.shape[-1] - 1
    out = np.zeros_like(c)
    if n < 2:
        return out
    j = np.arange(1, n, dtype=float)
    out[..., 1:n] = j * (n - j) * np.diff(c, n=2, axis=-1)
    return out


def dtilde_form(p: BernsteinForm) -> BernsteinForm:
    """Dtilde p as a closed coefficient map (degree n -> degree n)."""
    return BernsteinForm(p.n, dtilde_coefficient_map(p.coeffs))


@lru_cache(maxsize=None)
def u_coefficient_matrix(n: int, operand_degree: int) -> np.ndarray:
    """Matrix taking degree-N Bernstein coefficients of p to u_{n,k}(p).

    Entries are the exact Beta-product integrals

        (n-1) * int P_{n-2,k-1} P_{N,j}
            = (n-1) C(n-2,k-1) C(N,j) / (C(n-2+N, k-1+j) * (n-1+N)),

    each one integer quotient, which int/int true division rounds once,
    correctly, to float.  The endpoint rows pick off p(0) and p(1).  Entry
    (n-k, N-j) is the same quotient as entry (k, j), so the rows past n/2
    are copies of the first, reversed.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    N = operand_degree
    A = np.zeros((n + 1, N + 1))
    A[0, 0] = 1.0
    A[n, N] = 1.0
    col = [math.comb(N, j) for j in range(N + 1)]
    den = [(n - 1 + N) * math.comb(n - 2 + N, i) for i in range(n // 2 + N)]
    for k in range(1, n // 2 + 1):
        top = (n - 1) * math.comb(n - 2, k - 1)
        A[k] = [top * c / d for c, d in zip(col, den[k - 1:])]
    mirrored = np.arange(n // 2 + 1, n)
    A[mirrored] = A[n - mirrored, ::-1]
    A.setflags(write=False)
    return A


def utilde_from_u(p: BernsteinForm) -> BernsteinForm:
    """Utilde_n f = U_n f - (1/n) Dtilde U_n f from p = U_n f of degree n."""
    return p - dtilde_form(p).scale(1.0 / p.n)


def apply_Utilde_to_form(p: BernsteinForm, n: int) -> BernsteinForm:
    """Utilde_n applied to a polynomial already in Bernstein form."""
    return utilde_from_u(BernsteinForm(n, u_coefficient_matrix(n, p.n) @ p.coeffs))


@lru_cache(maxsize=None)
def dtilde_power_terms(ell: int) -> tuple[tuple[int, RationalPoly], ...]:
    """Dtilde^ell as a differential expression sum_j c_j(x) d^j/dx^j.

    The coefficient functions c_j are exact polynomials built by iterating
    Dtilde(sum c_j f^(j)) = phi sum (c_j'' f^(j) + 2 c_j' f^(j+1) + c_j f^(j+2));
    orders up to 2*ell appear.
    """
    if ell < 0:
        raise ValueError("ell must be >= 0")
    terms: dict[int, RationalPoly] = {0: RationalPoly([1])}
    for _ in range(ell):
        nxt: dict[int, RationalPoly] = {}

        def add(order: int, poly: RationalPoly) -> None:
            nxt[order] = nxt.get(order, RationalPoly()) + poly

        for j, c in terms.items():
            add(j, PHI * c.derivative().derivative())
            add(j + 1, 2 * c.derivative() * PHI)
            add(j + 2, PHI * c)
        terms = {j: p for j, p in nxt.items() if not p.is_zero()}
    return tuple(sorted(terms.items()))


def dtilde_of_function(f: FunctionSpec, ell: int):
    """Dtilde^ell f as a vectorized callable built from analytic derivatives.

    Requires derivatives up to order 2*ell; callers must check the smoothness
    flags first when treating the result as an element of L_inf.
    """
    if 2 * ell > MAX_DERIVATIVE_ORDER:
        raise ValueError(
            f"Dtilde^{ell} of {f.name!r} needs derivative order {2 * ell}, "
            f"only {MAX_DERIVATIVE_ORDER} available"
        )
    terms = dtilde_power_terms(ell)

    def apply(x):
        xs = np.asarray(x, dtype=float)
        pts = np.atleast_1d(xs)
        acc = np.zeros_like(pts)
        for order, cpoly in terms:
            acc = acc + cpoly.eval_float(pts) * f.derivative(order, pts)
        return float(acc[0]) if xs.ndim == 0 else acc.reshape(xs.shape)

    return apply
