"""Sup-norm machinery and verifiers for the named inequalities.

Implements the uniform-norm estimator (Chebyshev-distributed grid plus
golden-section refinement), the Lebesgue-function bound for the modified
operator's norm, the Jackson / Voronovskaya / Bernstein-type inequality
checks, the decomposition checks behind the Bernstein-type constant, the
K-functional sandwich (constructive upper candidate plus the direct-theorem
lower bound), the strong-converse check at two operator scales, and the
log-log slope of convergence rates.

Sweeps over (function, n) pairs are independent pure computations; reports
can be produced concurrently and merged by key without affecting values.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .basis import bernstein_matrix, t_matrix, tail_sums, xi_zero
from .catalog import FunctionSpec
from .errors import PreconditionError
from .operators import (
    DEFAULT_TOL,
    BernsteinForm,
    apply_U,
    apply_Utilde,
    apply_Utilde_to_form,
    dtilde_coefficient_map,
    dtilde_form,
    dtilde_of_function,
    u_coefficient_matrix,
)

__all__ = [
    "SQRT3",
    "BERNSTEIN_CONSTANT",
    "CONVERSE_SCALE_FACTOR",
    "CONVERSE_CONSTANT",
    "PASS_RTOL",
    "PASS_ATOL",
    "DEFAULT_GRID",
    "SupNormEstimate",
    "KfSandwich",
    "InequalityReport",
    "Residual",
    "sup_norm",
    "distance",
    "dtilde_sup_norm",
    "lebesgue_bound",
    "check_contraction_U",
    "check_jackson",
    "check_voronovskaya",
    "check_bernstein_inequality",
    "bernstein_probe_max_ratio",
    "check_bn_decomposition",
    "kfunctional_sandwich",
    "check_direct",
    "check_converse",
    "loglog_slope",
]

SQRT3 = math.sqrt(3.0)
#: Constant in the Bernstein-type inequality ||Dtilde Utilde_n f|| <= C n ||f||.
BERNSTEIN_CONSTANT = 6.5 + math.sqrt(6.0)
#: The converse theorem needs the second scale ell >= (16 C / 9) n.
CONVERSE_SCALE_FACTOR = 16.0 * BERNSTEIN_CONSTANT / 9.0
#: Constant in the converse bound on the K-functional.
CONVERSE_CONSTANT = 4.0 + SQRT3 + BERNSTEIN_CONSTANT**2

#: Inequality pass rule: lhs <= rhs*(1+PASS_RTOL) + PASS_ATOL.  Absorbs float
#: rounding without masking real violations (observed margins are orders of
#: magnitude larger).
PASS_RTOL = 1e-9
PASS_ATOL = 1e-12

DEFAULT_GRID = 2001
GOLDEN_ITERATIONS = 50
#: Golden-section iterations whose possible probe points (2^k - 1 of them)
#: are evaluated in one call.
LOOKAHEAD_DEPTH = 4
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

#: Bytes of grid bases B(n, grid) kept between sup norms.  20 MiB holds every
#: degree of a default sweep (n up to 512 on the default grid); a basis larger
#: than the budget is used once and not kept.
GRID_BASIS_BUDGET = 20 * 2**20
#: Candidate grid points re-evaluated by de Casteljau per call.
_CONFIRM_CHUNK = 128
#: Row block of check_bn_decomposition.
_DECOMPOSITION_BLOCK = 256
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class SupNormEstimate:
    """A certified-from-below estimate of a uniform norm on [0,1]."""

    value: float
    argmax: float
    grid_size: int


@dataclass(frozen=True)
class KfSandwich:
    """Two-sided enclosure of the K-functional at t = 1/n^2.

    ``upper`` is achieved by a concrete admissible candidate (recorded in
    ``candidate_id``), hence a true upper bound of the infimum; ``err`` is
    the operator error ||Utilde_n f - f||, and ``lower`` = err / (1 + sqrt 3)
    is a true lower bound by the direct theorem.
    """

    t: float
    err: float
    upper: float
    candidate_id: str

    @property
    def lower(self) -> float:
        return self.err / (1.0 + SQRT3)


@dataclass(frozen=True)
class InequalityReport:
    """One verified inequality: lhs <= rhs up to the fixed pass rule."""

    name: str
    f: str
    n: int
    lhs: float
    rhs: float
    ell: int | None = None
    note: str = ""

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def passed(self) -> bool:
        return self.lhs <= self.rhs * (1.0 + PASS_RTOL) + PASS_ATOL


@lru_cache(maxsize=8)
def _chebyshev_grid(grid_size: int) -> np.ndarray:
    """grid_size Chebyshev-distributed interior points plus both endpoints."""
    i = np.arange(grid_size)
    interior = (1.0 - np.cos(np.pi * (2 * i + 1) / (2 * grid_size))) / 2.0
    xs = np.unique(np.concatenate(([0.0, 1.0], interior)))
    xs.setflags(write=False)
    return xs


class _GridBasisCache:
    """Read-only bases B(n, grid) by (n, grid_size), least recently used first out.

    Filled lazily and bounded by ``budget`` bytes in total; a lock keeps it
    safe for concurrent sweeps, and the arrays themselves are immutable.
    """

    def __init__(self, budget: int) -> None:
        self.budget = budget
        self.nbytes = 0
        self._entries: OrderedDict[tuple[int, int], np.ndarray] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, n: int, grid_size: int) -> np.ndarray:
        key = (n, grid_size)
        with self._lock:
            basis = self._entries.get(key)
            if basis is not None:
                self._entries.move_to_end(key)
                return basis
        basis = bernstein_matrix(n, _chebyshev_grid(grid_size))
        basis.setflags(write=False)
        with self._lock:
            if basis.nbytes <= self.budget and key not in self._entries:
                while self.nbytes + basis.nbytes > self.budget:
                    _, old = self._entries.popitem(last=False)
                    self.nbytes -= old.nbytes
                self._entries[key] = basis
                self.nbytes += basis.nbytes
        return basis


_GRID_BASES = _GridBasisCache(GRID_BASIS_BUDGET)


@dataclass(frozen=True, eq=False)
class Residual:
    """The function x -> p(x) - f(x) + scale * g(x) for a Bernstein form p.

    ``f`` and ``g`` are optional vectorized callables; ``Residual(p)`` is p
    itself.  Calling it evaluates p by de Casteljau, in this operation order,
    so its values are those of the equivalent lambda.  sup_norm screens the
    grid of a Residual with the cached basis first.
    """

    p: BernsteinForm
    f: Callable | None = None
    g: Callable | None = None
    scale: float = 0.0

    def __call__(self, xs):
        out = self.p.eval(xs)
        if self.f is not None:
            out = out - self.f(xs)
        if self.g is not None:
            out = out + self.scale * self.g(xs)
        return out


_NON_FINITE = "non-finite value while estimating a sup norm"


def _abs_values(fn, xs: np.ndarray, finite: bool = True) -> np.ndarray:
    """|fn| at xs; raises on a non-finite value unless ``finite`` is False."""
    vals = np.abs(np.asarray(fn(xs), dtype=float))
    if finite and not np.all(np.isfinite(vals)):
        raise ValueError(_NON_FINITE)
    return vals


def _screened_grid_max(fn: Residual, xs: np.ndarray, grid_size: int) -> tuple[int, float]:
    """Index and value of max |fn| on the grid, as a full de Casteljau pass gives them.

    The polynomial part is first screened as a matvec with the cached basis.
    That and de Casteljau each err by at most about 2n u sum|c_k| P_{n,k}, so
    delta = 8(n+1) eps max|c_k|, plus the rounding of the additions of -f and
    scale * g, bounds their gap; every point whose screened value is within
    2 delta of the screened max is re-evaluated by calling fn, which includes
    every point where the exact values attain their max.  f and g are
    pointwise, so that call gives the values of a full pass.  Non-finite
    screened values fall back to the full pass, which raises as before.
    """
    p = fn.p
    terms = [] if fn.f is None else [-fn.f(xs)]
    if fn.g is not None:
        terms.append(fn.scale * fn.g(xs))
    with np.errstate(all="ignore"):
        screened = _GRID_BASES.get(p.n, grid_size) @ p.coeffs
        delta = 8.0 * (p.n + 1) * _EPS * float(np.max(np.abs(p.coeffs)))
        for term in terms:
            delta += 4.0 * _EPS * (float(np.max(np.abs(screened))) + float(np.max(np.abs(term))))
            screened = screened + term
        screened = np.abs(screened)
    if not (np.all(np.isfinite(screened)) and math.isfinite(delta)):
        vals = _abs_values(fn, xs)
        i = int(np.argmax(vals))
        return i, float(vals[i])

    candidates = np.flatnonzero(screened >= np.max(screened) - 2.0 * delta)
    best_i, best_v = -1, -math.inf
    for start in range(0, candidates.size, _CONFIRM_CHUNK):
        idx = candidates[start : start + _CONFIRM_CHUNK]
        vals = _abs_values(fn, xs[idx])
        j = int(np.argmax(vals))
        if vals[j] > best_v:
            best_i, best_v = int(idx[j]), float(vals[j])
    return best_i, best_v


def _probe_points(a: float, b: float, c: float, d: float, left: bool, depth: int) -> list[float]:
    """Every point the next ``depth`` golden-section iterations can probe.

    The first iteration keeps the left part (fc > fd) if ``left``; the later
    branches are unknown, so both are followed: 2^depth - 1 points, each
    computed with the walk's own expression.
    """
    if depth == 0:
        return []
    if left:
        b, d = d, c
        x = c = b - _INVPHI * (b - a)
    else:
        a, c = c, d
        x = d = a + _INVPHI * (b - a)
    return [x, *_probe_points(a, b, c, d, True, depth - 1), *_probe_points(a, b, c, d, False, depth - 1)]


def _probed(values: dict[float, float], x: float) -> float:
    v = values[x]
    if not math.isfinite(v):
        raise ValueError(_NON_FINITE)
    return v


def sup_norm(fn: BernsteinForm | Residual | Callable, grid_size: int = DEFAULT_GRID) -> SupNormEstimate:
    """Estimate ||fn||_inf on [0,1] from below.

    Takes the max of |fn| over a Chebyshev-distributed grid (denser near the
    endpoints, where the weight degenerates) plus both endpoints, then runs a
    fixed number of golden-section iterations around the best point.
    Deterministic for a fixed grid size; refinement can only increase the
    value.  A BernsteinForm p is taken as Residual(p).  For a Residual the
    grid max is found by screening with a cached basis and confirming by de
    Casteljau, which gives the same point and value, bit for bit, as a de
    Casteljau pass over the whole grid.

    The iterations run in blocks of LOOKAHEAD_DEPTH: every point a block can
    probe is evaluated in one call, and the sequential walk then reads its
    values.  Evaluation is pointwise, so the result is bit for bit that of
    one-point probes; a non-finite value raises only if the walk reads it.
    """
    if grid_size < 64:
        raise ValueError("grid_size must be >= 64")
    xs = _chebyshev_grid(grid_size)
    if isinstance(fn, BernsteinForm):
        fn = Residual(fn)
    if isinstance(fn, Residual):
        i, best_v = _screened_grid_max(fn, xs, grid_size)
    else:
        vals = _abs_values(fn, xs)
        i = int(np.argmax(vals))
        best_v = float(vals[i])
    best_x = float(xs[i])

    a = float(xs[max(i - 1, 0)])
    b = float(xs[min(i + 1, xs.size - 1)])
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = _abs_values(fn, np.array([c, d])).tolist()
    for start in range(0, GOLDEN_ITERATIONS, LOOKAHEAD_DEPTH):
        depth = min(LOOKAHEAD_DEPTH, GOLDEN_ITERATIONS - start)
        points = _probe_points(a, b, c, d, fc > fd, depth)
        values = dict(zip(points, _abs_values(fn, np.array(points), finite=False).tolist()))
        for _ in range(depth):
            if fc > fd:
                b, d, fd = d, c, fc
                c = b - _INVPHI * (b - a)
                fc = _probed(values, c)
            else:
                a, c, fc = c, d, fd
                d = a + _INVPHI * (b - a)
                fd = _probed(values, d)
    for x, v in ((c, fc), (d, fd)):
        if v > best_v:
            best_x, best_v = x, v
    return SupNormEstimate(value=best_v, argmax=best_x, grid_size=grid_size)


def distance(p: BernsteinForm, f: FunctionSpec, grid_size: int = DEFAULT_GRID) -> float:
    """The operator error ||p - f|| of a Bernstein form p against f."""
    return sup_norm(Residual(p, f.eval), grid_size).value


def dtilde_sup_norm(f: FunctionSpec, ell: int, grid_size: int = DEFAULT_GRID) -> float:
    """||Dtilde^ell f|| for a catalog function, via analytic derivatives."""
    return sup_norm(dtilde_of_function(f, ell), grid_size).value


def _ptilde_abs_sums(n: int, xs: np.ndarray) -> np.ndarray:
    """sum_k |Ptilde_{n,k}(x)| with Ptilde = P - (1/n) Dtilde P, vectorized.

    Dtilde P_{n,k} is expanded on the neighbouring basis elements, which is
    finite at the endpoints (equals |1 - T_{n,k}/n| P_{n,k} on the interior).
    """
    B = bernstein_matrix(n, xs)
    k = np.arange(n + 1, dtype=float)
    D = (-2.0 * k * (n - k)) * B
    D[:, 1:] += ((k[1:] - 1.0) * (n - k[1:] + 1.0)) * B[:, :-1]
    D[:, :-1] += ((k[:-1] + 1.0) * (n - k[:-1] - 1.0)) * B[:, 1:]
    return np.sum(np.abs(B - D / n), axis=1)


def lebesgue_bound(n: int, grid_size: int = DEFAULT_GRID) -> SupNormEstimate:
    """Sup of the Lebesgue function of the modified operator.

    Majorizes ||Utilde_n||; by construction it never exceeds sqrt(3 - 2/n)
    and is at least 1 (the endpoint functionals are point evaluations).
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    return sup_norm(lambda xs: _ptilde_abs_sums(n, np.atleast_1d(np.asarray(xs, float))), grid_size)


def _require(flag: bool, f: FunctionSpec, requirement: str) -> None:
    if not flag:
        raise PreconditionError(f"{f.name}: requires {requirement}")


def check_contraction_U(
    f: FunctionSpec, n: int, grid_size: int = DEFAULT_GRID, tol: float = DEFAULT_TOL
) -> InequalityReport:
    """||U_n f - f|| <= (1/n) ||Dtilde f||."""
    _require(f.smoothness.w2, f, "f in W^2(phi)")
    lhs = distance(apply_U(f, n, tol), f, grid_size)
    rhs = dtilde_sup_norm(f, 1, grid_size) / n
    return InequalityReport("contraction_U", f.name, n, lhs, rhs)


def check_jackson(
    f: FunctionSpec, n: int, grid_size: int = DEFAULT_GRID, tol: float = DEFAULT_TOL
) -> InequalityReport:
    """Jackson-type bound ||Utilde_n f - f|| <= (1/n^2) ||Dtilde^2 f||."""
    _require(f.smoothness.w20, f, "f in W^2_0(phi)")
    _require(f.smoothness.dtilde_w2, f, "Dtilde f in W^2(phi)")
    lhs = distance(apply_Utilde(f, n, tol), f, grid_size)
    rhs = dtilde_sup_norm(f, 2, grid_size) / n**2
    return InequalityReport("jackson", f.name, n, lhs, rhs)


def check_voronovskaya(
    f: FunctionSpec, n: int, grid_size: int = DEFAULT_GRID, tol: float = DEFAULT_TOL
) -> InequalityReport:
    """Voronovskaya-type bound on the leading-term residual.

    ||Utilde_n f - f + lambda(n) Dtilde^2 f|| <= theta(n) ||Dtilde^3 f||.
    """
    _require(f.smoothness.w20, f, "f in W^2_0(phi)")
    _require(f.smoothness.dtilde_w20, f, "Dtilde f in W^2_0(phi)")
    _require(f.smoothness.d3_bounded, f, "Dtilde^3 f bounded")
    ts = tail_sums(n)
    p = apply_Utilde(f, n, tol)
    residual = Residual(p, f.eval, dtilde_of_function(f, 2), ts.lam)
    lhs = sup_norm(residual, grid_size).value
    rhs = ts.theta * dtilde_sup_norm(f, 3, grid_size)
    return InequalityReport("voronovskaya", f.name, n, lhs, rhs)


def check_bernstein_inequality(
    f: FunctionSpec, n: int, grid_size: int = DEFAULT_GRID, tol: float = DEFAULT_TOL
) -> InequalityReport:
    """Bernstein-type bound ||Dtilde Utilde_n f|| <= (6.5 + sqrt 6) n ||f||."""
    if n < 2:
        raise ValueError("n must be >= 2")
    ut = apply_Utilde(f, n, tol)
    lhs = sup_norm(dtilde_form(ut), grid_size).value
    rhs = BERNSTEIN_CONSTANT * n * sup_norm(f.eval, grid_size).value
    return InequalityReport("bernstein", f.name, n, lhs, rhs)


def bernstein_probe_max_ratio(
    n: int, trials: int, rng: np.random.Generator, grid_size: int = DEFAULT_GRID
) -> float:
    """Randomized search for the worst ||Dtilde Utilde_n f|| / (n ||f||).

    Probes are degree-n polynomials with random +-1 Bernstein coefficient
    sign patterns; both norms are plain grid maxima (a lower bound of the
    sup, which only makes the reported ratio conservative w.r.t. violations).
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    B = _GRID_BASES.get(n, grid_size)
    A = u_coefficient_matrix(n, n)

    C = rng.choice([-1.0, 1.0], size=(trials, n + 1))
    U = C @ A.T
    UT = dtilde_coefficient_map(U - dtilde_coefficient_map(U) / n)
    lhs = np.max(np.abs(UT @ B.T), axis=1)
    norms = np.max(np.abs(C @ B.T), axis=1)
    return float(np.max(lhs / (n * norms)))


def _decomposition_parts(n: int, xs: np.ndarray, B: np.ndarray, B1: np.ndarray):
    """a_n, b_n and c_n at interior points xs, given B(n, xs) and B(n-1, xs)."""
    phi = xs * (1.0 - xs)
    k = np.arange(n + 1, dtype=float)

    Pp = np.zeros_like(B)
    Pp[:, 0] = -n * B1[:, 0]
    Pp[:, n] = n * B1[:, n - 1]
    Pp[:, 1:n] = n * (B1[:, : n - 1] - B1[:, 1:n])

    inv_x = 1.0 / xs
    inv_1mx = 1.0 / (1.0 - xs)
    kk1 = k * (k - 1.0)
    mm1 = (n - k) * (n - k - 1.0)

    T = t_matrix(n, xs)
    Tp = -np.outer(inv_x**2, kk1) + np.outer(inv_1mx**2, mm1)
    Tpp = 2.0 * np.outer(inv_x**3, kk1) + 2.0 * np.outer(inv_1mx**3, mm1)

    a = (phi / n) * np.sum(Tpp * B, axis=1)
    b = (2.0 * phi / n) * np.sum(np.abs(Tp * Pp), axis=1)
    c = np.sum(np.abs((1.0 - T / n) * T) * B, axis=1)
    return a, b, c


def check_bn_decomposition(n: int, grid_size: int = DEFAULT_GRID) -> list[InequalityReport]:
    """Pointwise checks of the three-part decomposition behind the Bernstein bound.

    On an interior grid: the convexity part a_n(x) is identically 2(n-1); the
    cross part b_n(x) is compared against 4.5 n and equals 4(n-1) off the
    sign-change windows (xi_k, k/n) and their mirror images; the eigen part
    c_n(x) stays below sqrt(6) n.

    Caveat: on a window the absolute sum equals 4(n-1) + 2 s_k (the flipped
    term counts twice against the signed sum), so the 4.5 n comparison for
    b_n genuinely fails from n = 37 on, peaking below the corrected bound
    5n - 4; the report records the stated comparison regardless.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    xs = _chebyshev_grid(grid_size)[1:-1]
    B = _GRID_BASES.get(n, grid_size)[1:-1]
    B1 = _GRID_BASES.get(n - 1, grid_size)[1:-1]
    a, b, c = (np.empty(xs.size) for _ in range(3))
    for start in range(0, xs.size, _DECOMPOSITION_BLOCK):
        rows = slice(start, start + _DECOMPOSITION_BLOCK)
        a[rows], b[rows], c[rows] = _decomposition_parts(n, xs[rows], B[rows], B1[rows])

    target_a = 2.0 * (n - 1)
    target_s = 4.0 * (n - 1)

    windows = [(0.0, 1.0 / n), (1.0 - 1.0 / n, 1.0)]
    for j in range(2, (n - 1) // 2 + 1):
        xi = xi_zero(n, j)
        windows.append((xi, j / n))
        windows.append((1.0 - j / n, 1.0 - xi))
    off = np.ones_like(xs, dtype=bool)
    for lo, hi in windows:
        off &= ~((xs > lo) & (xs < hi))

    return [
        InequalityReport("a_n_identity", "-", n, float(np.max(np.abs(a - target_a))), 1e-8),
        InequalityReport("b_n_bound", "-", n, float(np.max(b)), 4.5 * n),
        InequalityReport("c_n_bound", "-", n, float(np.max(c)), math.sqrt(6.0) * n),
        InequalityReport(
            "b_n_plateau",
            "-",
            n,
            float(np.max(np.abs(b[off] - target_s))) if np.any(off) else 0.0,
            1e-8 * max(1.0, target_s),
        ),
    ]


def _candidate_norms(f: FunctionSpec, g: BernsteinForm, grid_size: int) -> tuple[float, float]:
    """(||g - f||, ||Dtilde^2 g||) for a K-functional candidate g."""
    return distance(g, f, grid_size), sup_norm(dtilde_form(dtilde_form(g)), grid_size).value


# Memo of one sweep.  Sweeps pass one plain dict per function to the sandwich
# checks, so that each operator output and its norms are computed once per
# sweep; the keys carry every argument the value depends on.


def _memoized(memo: dict, key: tuple, compute: Callable):
    if key not in memo:
        memo[key] = compute()
    return memo[key]


def _utilde(f: FunctionSpec, m: int, tol: float, memo: dict) -> BernsteinForm:
    return _memoized(memo, ("Utilde", f.name, m, tol), lambda: apply_Utilde(f, m, tol))


def _utilde3(f: FunctionSpec, m: int, tol: float, memo: dict) -> BernsteinForm:
    """Utilde_m^3 f from the memoized Utilde_m f, in iterate_Utilde's steps."""

    def build() -> BernsteinForm:
        p = _utilde(f, m, tol, memo)
        for _ in range(2):
            p = apply_Utilde_to_form(p, m)
        return p

    return _memoized(memo, ("Utilde3", f.name, m, tol), build)


def _utilde_error(f: FunctionSpec, m: int, grid_size: int, tol: float, memo: dict) -> float:
    """||Utilde_m f - f||."""
    key = ("error", f.name, m, grid_size, tol)
    return _memoized(memo, key, lambda: distance(_utilde(f, m, tol, memo), f, grid_size))


def _iterate_norms(f: FunctionSpec, m: int, grid_size: int, tol: float, memo: dict) -> tuple[float, float]:
    """_candidate_norms of the candidate Utilde_m^3 f."""
    key = ("iterate_norms", f.name, m, grid_size, tol)
    return _memoized(memo, key, lambda: _candidate_norms(f, _utilde3(f, m, tol, memo), grid_size))


def kfunctional_sandwich(
    f: FunctionSpec,
    n: int,
    grid_size: int = DEFAULT_GRID,
    tol: float = DEFAULT_TOL,
    memo: dict | None = None,
) -> KfSandwich:
    """Certified two-sided estimate of K(f, 1/n^2).

    The upper bound minimizes ||f - g|| + t ||Dtilde^2 g|| over the concrete
    candidates g = Utilde_m^3 f for m = n, 2n, 4n, 8n plus g = f itself
    when f is smooth enough; second derivatives of candidates always come
    from the exact coefficient map, never from numerical differentiation.
    The operator error ||Utilde_n f - f|| is kept as ``err``; divided by
    1 + sqrt(3) it is the lower bound.

    ``memo``, a dict kept by the caller for one function f, holds the
    operator outputs and norms for later calls at other n; without it they
    are shared within this call only.

    Candidates whose costs tie in exact arithmetic (at t2, n = 2 the
    candidates m = 2, m = 4 and f itself all cost 1/4) are ranked by the last
    bit of their computed costs, and the winner is what ``candidate_id``, the
    ``note`` column of the CLI, shows.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    t = 1.0 / n**2
    memo = {} if memo is None else memo

    best_cost = math.inf
    best_id = ""
    for m in (n, 2 * n, 4 * n, 8 * n):
        dist, d2 = _iterate_norms(f, m, grid_size, tol, memo)
        cost = dist + t * d2
        if cost < best_cost:
            best_cost, best_id = cost, f"utilde3_m{m}"
    if f.smoothness.w20 and f.smoothness.dtilde_w2:
        d2f = _memoized(memo, ("dtilde2_norm", f.name, grid_size), lambda: dtilde_sup_norm(f, 2, grid_size))
        cost = t * d2f
        if cost < best_cost:
            best_cost, best_id = cost, "f_itself"

    err_n = _utilde_error(f, n, grid_size, tol, memo)
    return KfSandwich(t=t, err=err_n, upper=best_cost, candidate_id=best_id)


def check_direct(
    f: FunctionSpec,
    n: int,
    grid_size: int = DEFAULT_GRID,
    tol: float = DEFAULT_TOL,
    memo: dict | None = None,
) -> list[InequalityReport]:
    """The sandwich and the direct theorem, both from one sandwich.

    Reports kf_sandwich (lower <= upper) and direct,
    ||Utilde_n f - f|| <= (1 + sqrt 3) K(f, 1/n^2).  Uses the sandwich upper
    bound in place of K, which only strengthens the inequality being verified.
    ``memo`` is kfunctional_sandwich's.
    """
    sw = kfunctional_sandwich(f, n, grid_size, tol, memo)
    return [
        InequalityReport("kf_sandwich", f.name, n, sw.lower, sw.upper, note=sw.candidate_id),
        InequalityReport("direct", f.name, n, sw.err, (1.0 + SQRT3) * sw.upper, note=sw.candidate_id),
    ]


def check_converse(
    f: FunctionSpec,
    n: int,
    ell: int,
    grid_size: int = DEFAULT_GRID,
    tol: float = DEFAULT_TOL,
    memo: dict | None = None,
) -> list[InequalityReport]:
    """Strong converse bound at two operator scales, plus its iterate step.

    Verifies K(f, 1/n^2) <= C (ell/n)^2 (||Utilde_n f - f|| + ||Utilde_ell f - f||)
    with C = 4 + sqrt(3) + (6.5 + sqrt 6)^2, for ell >= ceil(L n),
    L = 16(6.5 + sqrt 6)/9, with the sandwich upper bound standing in for K.
    Also verifies the triple-iterate contraction
    ||f - Utilde_n^3 f|| <= (4 + sqrt 3) ||f - Utilde_n f||, whose left side
    is the sandwich's m = n candidate distance.  ``memo`` is
    kfunctional_sandwich's.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    required = math.ceil(CONVERSE_SCALE_FACTOR * n)
    if ell < required:
        raise PreconditionError(
            f"ell={ell} below threshold: need ell >= ceil(L*n) = {required} "
            f"(L = {CONVERSE_SCALE_FACTOR:.6f})"
        )
    memo = {} if memo is None else memo
    sw = kfunctional_sandwich(f, n, grid_size, tol, memo)
    err_ell = _utilde_error(f, ell, grid_size, tol, memo)
    rhs = CONVERSE_CONSTANT * (ell / n) ** 2 * (sw.err + err_ell)
    main = InequalityReport("converse", f.name, n, sw.upper, rhs, ell=ell, note=sw.candidate_id)

    lhs3, _ = _iterate_norms(f, n, grid_size, tol, memo)
    iterate_report = InequalityReport(
        "iterate_contraction", f.name, n, lhs3, (4.0 + SQRT3) * sw.err
    )
    return [main, iterate_report]


def loglog_slope(name: str, rows: Sequence[tuple[int, float]]) -> float:
    """Least-squares slope of log err against log n over (n, err) rows.

    The ns must be a geometric progression of length >= 4 with ratio >= 2.
    Errors below 1e-13 sit on the rounding floor and are excluded from the
    fit; if fewer than two points survive the fit is rejected.  ``name``
    labels the rejection message.
    """
    ns = [n for n, _ in rows]
    if len(ns) < 4:
        raise ValueError("need at least 4 values of n")
    ratio = ns[1] / ns[0]
    if ratio < 2 or any(abs(ns[i + 1] / ns[i] - ratio) > 1e-12 for i in range(len(ns) - 1)):
        raise ValueError("ns must be geometric with factor >= 2")
    kept = [(n, e) for n, e in rows if e >= 1e-13]
    if len(kept) < 2:
        raise ValueError(f"rate fit rejected for {name}: all errors on the rounding floor")
    logn = np.log([n for n, _ in kept])
    loge = np.log([e for _, e in kept])
    return float(np.polyfit(logn, loge, 1)[0])

