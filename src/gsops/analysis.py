"""Sup-norm machinery and verifiers for the named inequalities.

Implements the uniform-norm estimator (Chebyshev-distributed grid plus
golden-section refinement; the grid max of a Bernstein form or residual is
screened with a closed-form basis under an a-priori error bound and
confirmed by de Casteljau; the walks of the forms of one degree run in
lockstep, so each of their stages is one de Casteljau pass over a stack of
forms, each at its own points, with every value bit for bit that of the walk
alone), the Lebesgue-function bound for the modified
operator's norm, the float identities of the basis layer (partition of
unity, moments, eigen relation, Phi(alpha), tail sums), endpoint
interpolation, the Jackson / Voronovskaya / Bernstein-type inequality
checks and the random Bernstein probes, the decomposition checks behind the
Bernstein-type constant, the K-functional sandwich (constructive upper
candidate, pruned by branch and bound on screened lower bounds of its sup
norms, plus the direct-theorem lower bound), the strong-converse check at
two operator scales, and the errors and log-log slope of convergence rates.
Every report the CLI prints is built here, except the exact identity rows of
``verify``, which the CLI builds from the exactpoly checks.

Each check of a function takes its operator outputs and norms from a Sweep,
which a run builds once and hands to every check; a command fills the Sweep
with the sup norms its checks will take (the fill_* functions), one lockstep
call per degree, before the checks run, and the sandwich fills the two norms
of each candidate it keeps in one lockstep call.  Screens are not kept: each
call that needs one takes it.  One Sweep serves one
thread; the cached screening bases of sup_norm are shared under a lock, so
threads with a Sweep each can produce reports concurrently, and merged by key
they hold the same values.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .basis import (
    bernstein_matrix,
    closed_form_basis,
    closed_form_error,
    moment,
    phi_big,
    t_matrix,
    tail_sums,
    xi_zero,
)
from .catalog import FunctionSpec
from .errors import PreconditionError
from .exactpoly import u_coefficients_exact
from .operators import (
    BernsteinForm,
    apply_Utilde_to_form,
    dtilde_coefficient_map,
    dtilde_form,
    dtilde_of_function,
    u_coefficient_matrix,
    utilde_from_u,
)
from .quadrature import u_coefficients_numeric

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
    "StrictReport",
    "Residual",
    "sup_norm",
    "sup_norms",
    "Sweep",
    "lebesgue_bound",
    "check_lebesgue",
    "check_float_identities",
    "check_interpolation",
    "check_contraction_U",
    "check_jackson",
    "check_voronovskaya",
    "check_bernstein_inequality",
    "bernstein_probe_max_ratio",
    "check_bernstein_probes",
    "check_bn_decomposition",
    "kfunctional_sandwich",
    "check_direct",
    "check_converse",
    "rate_errors",
    "fill_operator_errors",
    "fill_bernstein_inequality",
    "fill_voronovskaya",
    "fill_rate_errors",
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

#: Bytes of screening bases kept between sup norms: closed-form (log-domain)
#: bases of the grid, one per degree and grid size, each within a stated error
#: bound of B(n, grid).  20 MiB holds every degree of a default sweep (n up to
#: 512 on the default grid); a basis larger than the budget is used once and
#: not kept.
GRID_BASIS_BUDGET = 20 * 2**20
#: Row block of check_bn_decomposition.
_DECOMPOSITION_BLOCK = 256
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class SupNormEstimate:
    """The largest computed |f| over sampled points of [0,1]: an estimate of the
    uniform norm from below, up to rounding that nothing certifies."""

    value: float
    argmax: float


@dataclass(frozen=True)
class KfSandwich:
    """Two-sided estimate of the K-functional at t = 1/n^2.

    ``err`` is the operator error ||Utilde_n f - f||, and ``lower`` =
    err / (1 + sqrt 3) is a lower bound of K by the direct theorem, up to
    rounding.  ``upper`` is the cost ||f - g|| + t ||Dtilde^2 g|| of the best
    concrete candidate g (recorded in ``candidate_id``).  Its two norms are
    grid estimates, which sit at or below the true sup norms, so ``upper``
    estimates an upper bound of K but is not certified as one.  Pruning the
    candidates (kfunctional_sandwich) changes neither field.
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
    def passed(self) -> bool:
        return self.lhs <= self.rhs * (1.0 + PASS_RTOL) + PASS_ATOL


@dataclass(frozen=True)
class StrictReport(InequalityReport):
    """An inequality held to lhs <= rhs, with no allowance for rounding."""

    @property
    def passed(self) -> bool:
        return self.lhs <= self.rhs


@lru_cache(maxsize=8)
def _chebyshev_grid(grid_size: int) -> np.ndarray:
    """grid_size Chebyshev-distributed interior points plus both endpoints."""
    i = np.arange(grid_size)
    interior = (1.0 - np.cos(np.pi * (2 * i + 1) / (2 * grid_size))) / 2.0
    xs = np.unique(np.concatenate(([0.0, 1.0], interior)))
    xs.setflags(write=False)
    return xs


class _GridBasisCache:
    """Read-only screening bases closed_form_basis(n, grid) by (n, grid_size),
    least recently used first out.

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
        basis = closed_form_basis(n, _chebyshev_grid(grid_size))
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
    grid of a Residual with the cached closed-form basis first, and only the
    candidates it leaves are evaluated by calling it.  Nothing is kept: each
    call that needs the screen takes it.
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


def _abs_values(fn, xs: np.ndarray) -> np.ndarray:
    """|fn| at xs, as floats; the walks check finiteness where they read."""
    return np.abs(np.asarray(fn(xs), dtype=float))


class _Screen(NamedTuple):
    """What the screen of a Residual leaves on the grid.

    ``candidates`` are the indices with s_i + delta_i >= max_j (s_j - delta_j),
    which include each point where a full de Casteljau pass attains its max,
    or the whole grid if the screen is not finite.  ``lower`` is
    max_i (s_i - delta_i), rounded down, or 0 if the screen is not finite: at
    most the sup_norm value, which is at least every full-pass value
    d_i >= s_i - delta_i.
    """

    candidates: np.ndarray
    lower: float


def _screens(fns: list[Residual], grid_size: int) -> list[_Screen | Exception]:
    """The screens of Residuals of one degree n, against the cached basis.

    Screened values s_i of |fn| on the grid and widths delta_i >= |s_i - d_i|,
    where d_i is the value a full de Casteljau pass gives at point i.  The
    polynomial part is screened against the cached closed-form basis, whose
    row i errs from B(n, grid) by at most r(x_i) per entry, relatively, plus
    2^-1022 (basis.closed_form_error).  The product then errs from the exact
    values by at most max|c_k| (r(x_i) + (n+1) 2^-1022) plus its own
    rounding, in any summation order, and de Casteljau by at most about
    2n u sum|c_k| P_{n,k}; delta_i = 8(n+1) eps max|c_k| + max|c_k| (r(x_i) +
    (n+1) 2^-1022), plus the rounding of the additions of -f and scale * g,
    bounds the gap.  f and g are pointwise, so they take the full pass's
    values; an exception they raise is that Residual's entry.
    """
    if not fns:
        return []
    xs = _chebyshev_grid(grid_size)
    n = fns[0].p.n
    basis = _GRID_BASES.get(n, grid_size)
    with np.errstate(all="ignore"):
        width = 8.0 * (n + 1) * _EPS + (n + 1) * _TINY + closed_form_error(n, xs)
    out: list[_Screen | Exception] = []
    # a form at a time, each with its own terms: a matmul over all the forms runs
    # the threaded BLAS gemm, whose buffers cost 4.5 MB of peak RSS on table
    for fn in fns:
        try:
            terms = [] if fn.f is None else [-fn.f(xs)]
            if fn.g is not None:
                terms.append(fn.scale * fn.g(xs))
        except Exception as exc:
            out.append(exc)
            continue
        with np.errstate(all="ignore"):
            screened = basis @ fn.p.coeffs
            delta = float(np.max(np.abs(fn.p.coeffs))) * width
            for term in terms:
                delta += 4.0 * _EPS * (float(np.max(np.abs(screened))) + float(np.max(np.abs(term))))
                screened = screened + term
            screened = np.abs(screened)
            if not (np.all(np.isfinite(screened)) and np.all(np.isfinite(delta))):
                out.append(_Screen(np.arange(xs.size), 0.0))
                continue
            candidates = np.flatnonzero(screened + delta >= np.max(screened - delta))
            lower = max(0.0, float(np.max(np.nextafter(screened - delta, -np.inf))))
            out.append(_Screen(candidates, lower))
    return out


def _screened_lower_bound(fn: Residual, grid_size: int) -> float:
    """The screen's lower bound of sup_norm(fn, grid_size).value; costs a matvec and no de Casteljau.

    Raises what fn's f or g raises.
    """
    (screen,) = _screens([fn], grid_size)
    if isinstance(screen, Exception):
        raise screen
    return screen.lower


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


def _checked(vals: np.ndarray | Exception, every: bool = True) -> np.ndarray:
    """A walk's values, or raises the exception its terms raised, or, if
    ``every``, one for a non-finite value."""
    if isinstance(vals, Exception):
        raise vals
    if every and not np.all(np.isfinite(vals)):
        raise ValueError(_NON_FINITE)
    return vals


class _Walk:
    """One golden-section walk around a grid max: the bracket [a, b], its probes
    c and d with values fc and fd, and the best point so far."""

    def __init__(self, xs: np.ndarray, i: int, value: float) -> None:
        self.best_x, self.best_v = float(xs[i]), value
        self.a = float(xs[max(i - 1, 0)])
        self.b = float(xs[min(i + 1, xs.size - 1)])
        self.c = self.b - _INVPHI * (self.b - self.a)
        self.d = self.a + _INVPHI * (self.b - self.a)

    def block(self, depth: int) -> list[float]:
        return _probe_points(self.a, self.b, self.c, self.d, self.fc > self.fd, depth)

    def replay(self, points: list[float], vals: np.ndarray, depth: int) -> None:
        """``depth`` iterations of the sequential walk, reading the block's values."""
        values = dict(zip(points, vals.tolist()))
        a, b, c, d, fc, fd = self.a, self.b, self.c, self.d, self.fc, self.fd
        for _ in range(depth):
            if fc > fd:
                b, d, fd = d, c, fc
                c = b - _INVPHI * (b - a)
                fc = _probed(values, c)
            else:
                a, c, fc = c, d, fd
                d = a + _INVPHI * (b - a)
                fd = _probed(values, d)
        self.a, self.b, self.c, self.d, self.fc, self.fd = a, b, c, d, fc, fd

    def estimate(self) -> SupNormEstimate:
        best_x, best_v = self.best_x, self.best_v
        for x, v in ((self.c, self.fc), (self.d, self.fd)):
            if v > best_v:
                best_x, best_v = x, v
        return SupNormEstimate(value=best_v, argmax=best_x)


def _read(
    fns: list, stack: BernsteinForm | None, points: dict[int, np.ndarray]
) -> dict[int, np.ndarray | Exception]:
    """|fns[j]| at points[j] for each j in points, in one evaluation call.

    fns are Residuals of one degree, evaluated by ``stack``, the stack of
    their forms, or one bare callable (``stack`` None).  A Residual's
    f and scale * g are added per walk, in the order of Residual.__call__, so
    each value has the bits of that call.  An exception raised by a walk's
    own terms is its entry; values may be non-finite.
    """
    walks = list(points)
    sizes = [points[j].size for j in walks]
    spans, end = {}, 0
    for j, size in zip(walks, sizes):
        spans[j], end = slice(end, end + size), end + size
    errors: dict[int, Exception] = {}

    def values(pts: np.ndarray) -> np.ndarray:
        fn = fns[walks[0]]
        if not isinstance(fn, Residual):
            try:
                return fn(pts)
            except Exception as exc:
                errors[walks[0]] = exc
                return np.full(pts.size, np.nan)
        out = stack.eval(pts, rows=np.repeat(walks, sizes))
        for j in walks:
            fn, span = fns[j], spans[j]
            try:
                if fn.f is not None:
                    out[span] = out[span] - fn.f(pts[span])
                if fn.g is not None:
                    out[span] = out[span] + fn.scale * fn.g(pts[span])
            except Exception as exc:
                errors[j] = exc
        return out

    vals = _abs_values(values, np.concatenate(list(points.values())))
    return {j: errors.get(j, vals[spans[j]]) for j in walks}


def _lockstep(fns: list, grid_size: int) -> list[SupNormEstimate | Exception]:
    """sup_norms of Residuals of one degree, or of one bare callable: each
    stage of their walks is one _read."""
    xs = _chebyshev_grid(grid_size)
    residuals = isinstance(fns[0], Residual)
    stack = BernsteinForm(fns[0].p.n, np.stack([fn.p.coeffs for fn in fns])) if residuals else None
    results: list = [None] * len(fns)
    walks: dict[int, _Walk] = {}

    def each(points: dict[int, np.ndarray], step) -> None:
        """Read every walk at its points, then step(j, its values); an exception ends walk j."""
        for j, v in (_read(fns, stack, points) if points else {}).items():
            try:
                step(j, v)
            except Exception as exc:
                results[j] = exc
                walks.pop(j, None)

    candidates = {}
    for j, screen in enumerate(_screens(fns, grid_size) if residuals else [None]):
        if isinstance(screen, Exception):
            results[j] = screen
        else:  # a bare callable takes the whole grid
            candidates[j] = np.arange(xs.size) if screen is None else screen.candidates

    def grid_max(j: int, v) -> None:
        k = int(np.argmax(_checked(v)))
        walks[j] = _Walk(xs, int(candidates[j][k]), float(v[k]))

    def first_pair(j: int, v) -> None:
        walks[j].fc, walks[j].fd = _checked(v).tolist()

    each({j: xs[c] for j, c in candidates.items()}, grid_max)
    each({j: np.array([w.c, w.d]) for j, w in walks.items()}, first_pair)
    for start in range(0, GOLDEN_ITERATIONS, LOOKAHEAD_DEPTH):
        depth = min(LOOKAHEAD_DEPTH, GOLDEN_ITERATIONS - start)
        blocks = {j: w.block(depth) for j, w in walks.items()}
        each(
            {j: np.array(points) for j, points in blocks.items()},
            lambda j, v: walks[j].replay(blocks[j], _checked(v, every=False), depth),
        )
    for j, w in walks.items():
        results[j] = w.estimate()
    return results


def sup_norms(
    fns: Sequence[BernsteinForm | Residual | Callable], grid_size: int = DEFAULT_GRID
) -> list[SupNormEstimate | Exception]:
    """Estimate ||fn||_inf on [0,1] from below, for every fn at once.

    Each estimate takes the max of |fn| over a Chebyshev-distributed grid
    (denser near the endpoints, where the weight degenerates) plus both
    endpoints, then runs a fixed number of golden-section iterations around
    the best point.  Deterministic for a fixed grid size; refinement can only
    increase the value.  A BernsteinForm p is taken as Residual(p).  For a
    Residual the grid max is found by screening with a cached closed-form
    basis, widened at each point by an a-priori bound on its error, and
    confirming the candidates by de Casteljau, which gives the same point and
    value, bit for bit, as a de Casteljau pass over the whole grid.

    The iterations run in blocks of LOOKAHEAD_DEPTH: every point a block can
    probe is evaluated in one call, and the sequential walk then reads its
    values.  The walks of the Residuals of one degree run in lockstep: they
    share one screening pass (closed_form_error once per degree), and their
    confirmations, their first probe pairs and each of their blocks are one
    BernsteinForm.eval call on the stack of their forms, each form at its own
    points.  Evaluation is pointwise, so
    every result is bit for bit that of the walk alone with one-point probes.

    Returns, for each fn, its SupNormEstimate or the exception its walk
    raised: a walk fails alone when it reads a non-finite value (one it does
    not read is ignored) or when its own terms raise.
    """
    if grid_size < 64:
        raise ValueError("grid_size must be >= 64")
    fns = [Residual(fn) if isinstance(fn, BernsteinForm) else fn for fn in fns]
    groups: dict[object, list[int]] = {}
    for i, fn in enumerate(fns):
        groups.setdefault(fn.p.n if isinstance(fn, Residual) else ("callable", i), []).append(i)
    results: list = [None] * len(fns)
    for members in groups.values():
        estimates = _lockstep([fns[i] for i in members], grid_size)
        for i, estimate in zip(members, estimates):
            results[i] = estimate
    return results


def sup_norm(fn: BernsteinForm | Residual | Callable, grid_size: int = DEFAULT_GRID) -> SupNormEstimate:
    """Estimate ||fn||_inf on [0,1] from below: the one-walk case of sup_norms,
    raising what its walk raises."""
    (estimate,) = sup_norms([fn], grid_size)
    if isinstance(estimate, Exception):
        raise estimate
    return estimate


class Sweep:
    """The operator outputs and norms of one run, each computed once.

    Every check takes them from here; U_m f is formed here alone, once per
    (f, m): a polynomial takes its exact coefficients, any other function the
    coefficients of its closed-form route, certified to
    ``quadrature.COEFFICIENT_TOL``.  Values are keyed by the function spec, so
    two specs that share a name never share a value, and a computation that
    raises stores nothing.  The sup norms are taken on the grid of
    ``grid_size`` points.

    A sup norm is a request, a key and the function to take it of.  ``fill``
    takes the norms of many requests at once, the walks of each degree in
    lockstep (sup_norms), and stores each that succeeds; a command fills
    before its checks run, and the checks find their values stored.  A walk
    that fails stores nothing, so its check takes it again alone and raises.

    An operator error ||p - f|| is keyed by f and the bits of p's
    coefficients, not by the operator that built p: U_m f and Utilde_m f of a
    linear f, or Utilde_m^3 f and Utilde_m f of a constant, often hold the
    same bits, and then share one sup norm.  The norm ||p|| of a form
    (form_request) is keyed by the bits of p alone, so, for one, the zero
    forms Dtilde^2 Utilde_2^3 f of f = one and of f = t share one.
    """

    def __init__(self, grid_size: int) -> None:
        self.grid_size = grid_size
        self._values: dict[tuple, object] = {}

    def _memoized(self, key: tuple, compute: Callable):
        if key not in self._values:
            self._values[key] = compute()
        return self._values[key]

    def fill(self, requests) -> None:
        """Take the sup norms of the (key, fn) requests not yet stored, in lockstep
        (sup_norms), and store each that succeeds."""
        pending = {key: fn for key, fn in requests if key not in self._values}
        for key, estimate in zip(pending, sup_norms(list(pending.values()), self.grid_size)):
            if not isinstance(estimate, Exception):
                self._values[key] = estimate.value

    def _norm(self, key: tuple, fn) -> float:
        """The sup norm of one request, taken alone if it is not stored."""
        if key not in self._values:
            self._values[key] = sup_norm(fn, self.grid_size).value
        return self._values[key]

    def U(self, f: FunctionSpec, m: int) -> BernsteinForm:
        if f.poly is None:
            coeffs = lambda: u_coefficients_numeric(f, m)
        else:
            def coeffs():
                nums, den = u_coefficients_exact(f.poly, m)
                return [num / den for num in nums]  # int / int is correctly rounded
        return self._memoized(("U", f, m), lambda: BernsteinForm(m, coeffs()))

    def Utilde(self, f: FunctionSpec, m: int) -> BernsteinForm:
        return self._memoized(("Utilde", f, m), lambda: utilde_from_u(self.U(f, m)))

    def distance_request(self, p: BernsteinForm, f: FunctionSpec) -> tuple[tuple, Residual]:
        return ("distance", f, p.coeffs.tobytes()), Residual(p, f.eval)

    def distance(self, p: BernsteinForm, f: FunctionSpec) -> float:
        """||p - f||, taken once per f and distinct coefficient bits of p."""
        return self._norm(*self.distance_request(p, f))

    def error(self, f: FunctionSpec, m: int) -> float:
        """||Utilde_m f - f||."""
        return self.distance(self.Utilde(f, m), f)

    def dtilde_norm(self, f: FunctionSpec, ell: int) -> float:
        """||Dtilde^ell f|| via analytic derivatives; ||f|| at ell = 0."""
        return self._norm(("dtilde_norm", f, ell), dtilde_of_function(f, ell))

    def voronovskaya_request(self, f: FunctionSpec, n: int) -> tuple[tuple, Residual]:
        residual = Residual(self.Utilde(f, n), f.eval, dtilde_of_function(f, 2), tail_sums(n).lam)
        return ("voronovskaya", f, n), residual

    def voronovskaya_residual(self, f: FunctionSpec, n: int) -> float:
        """||Utilde_n f - f + lambda(n) Dtilde^2 f||."""
        return self._norm(*self.voronovskaya_request(f, n))

    def form_request(self, p: BernsteinForm) -> tuple[tuple, Residual]:
        return ("form", p.coeffs.tobytes()), Residual(p)

    def dtilde_utilde_norm(self, f: FunctionSpec, n: int) -> float:
        """||Dtilde Utilde_n f||."""
        return self._norm(*self.form_request(dtilde_form(self.Utilde(f, n))))

    def Utilde3(self, f: FunctionSpec, m: int) -> BernsteinForm:
        """The K-functional candidate Utilde_m^3 f: the stored Utilde_m f, then
        twice the exact coefficient-integral matrix in float."""
        return self._memoized(
            ("Utilde3", f, m), lambda: apply_Utilde_to_form(apply_Utilde_to_form(self.Utilde(f, m), m), m)
        )

    def iterate_distance(self, f: FunctionSpec, m: int) -> float:
        """||Utilde_m^3 f - f||."""
        return self.distance(self.Utilde3(f, m), f)

    def D2Utilde3(self, f: FunctionSpec, m: int) -> BernsteinForm:
        """Dtilde^2 Utilde_m^3 f, from the exact coefficient map."""
        return self._memoized(("D2Utilde3", f, m), lambda: dtilde_form(dtilde_form(self.Utilde3(f, m))))

    def iterate_d2_norm(self, f: FunctionSpec, m: int) -> float:
        """||Dtilde^2 Utilde_m^3 f||."""
        return self._norm(*self.form_request(self.D2Utilde3(f, m)))

    def iterate_requests(self, f: FunctionSpec, m: int) -> list[tuple[tuple, Residual]]:
        """The requests of (iterate_distance, iterate_d2_norm)."""
        return [self.distance_request(self.Utilde3(f, m), f), self.form_request(self.D2Utilde3(f, m))]

    def iterate_lower_bounds(self, f: FunctionSpec, m: int) -> tuple[float, float]:
        """Lower bounds of (iterate_distance, iterate_d2_norm) that take no sup norm:
        each norm once computed, by any route, else its _screened_lower_bound."""
        return tuple(
            self._values[key] if key in self._values else _screened_lower_bound(fn, self.grid_size)
            for key, fn in self.iterate_requests(f, m)
        )


def _ptilde_abs_sums(n: int, xs: np.ndarray) -> np.ndarray:
    """sum_k |Ptilde_{n,k}(x)| with Ptilde = P - (1/n) Dtilde P, vectorized.

    Dtilde P_{n,k} is expanded on the neighbouring basis elements, which is
    finite at the endpoints (equals |1 - T_{n,k}/n| P_{n,k} on the interior).

    L(x) = L(1 - x), so the argmax that ``check_lebesgue`` notes picks a side
    by last bits: at n = 16 this sum gives 0.867795, and Ptilde built from
    ``dtilde_coefficient_map(np.eye(n + 1))`` gives 0.132205.
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


def check_lebesgue(n: int, grid_size: int = DEFAULT_GRID) -> InequalityReport:
    """The Lebesgue-function bound against sqrt(3 - 2/n), noting the argmax."""
    leb = lebesgue_bound(n, grid_size)
    rhs = math.sqrt(3.0 - 2.0 / n) + 1e-9
    return InequalityReport("lebesgue_bound", "-", n, leb.value, rhs, note=f"argmax={leb.argmax:.6f}")


def _moment_bruteforce_dev(n: int, xs: np.ndarray) -> float:
    """Max deviation between closed-form moments and the defining sums."""
    B = bernstein_matrix(n, xs)
    k_over_n = np.arange(n + 1) / n
    worst = 0.0
    for i in range(5):
        brute = np.sum(((k_over_n[None, :] - xs[:, None]) ** i) * B, axis=1)
        closed = np.array([moment(n, i, float(x)) for x in xs])
        worst = max(worst, float(np.max(np.abs(brute - closed))))
    return worst


def _eigen_relation_dev(n: int, xs: np.ndarray) -> float:
    """Max normalized deviation of phi P'' (degree-lowered form) from T * P.

    Normalized by the absolute-value sum of the three terms of T times P,
    the natural magnitude scale of the identity (T itself crosses zero).
    """
    B = bernstein_matrix(n, xs)
    # zero padding stands for the terms of the second difference that fall
    # off either end of the degree-(n-2) basis
    P = np.pad(bernstein_matrix(n - 2, xs), ((0, 0), (2, 2)))
    second = n * (n - 1) * ((P[:, :-2] - 2.0 * P[:, 1:-1]) + P[:, 2:])
    phi = xs * (1.0 - xs)
    k = np.arange(n + 1, dtype=float)
    lhs = phi[:, None] * second
    T = t_matrix(n, xs)
    Tbar = T + 4.0 * k * (n - k)
    rhs = T * B
    mask = B > 1e-30
    dev = np.abs(lhs - rhs)[mask] / (Tbar * B + 1e-300)[mask]
    return float(np.max(dev))


def check_float_identities(
    n: int, rng: np.random.Generator, grid_size: int = DEFAULT_GRID
) -> list[InequalityReport]:
    """The identities of the basis layer at degree n, in floating point.

    The partition of unity (held to 8 n eps, with no rounding allowance), the
    closed-form moments and the eigen relation on 25 interior points,
    Phi(alpha) = alpha^2 + 2 - 2/n at 20 points per alpha drawn from ``rng``,
    the brackets of the tail sums, and the Lebesgue bound.
    """
    xs = np.linspace(0.0, 1.0, 1000)
    unity_dev = float(np.max(np.abs(np.sum(bernstein_matrix(n, xs), axis=1) - 1.0)))
    interior = np.linspace(0.02, 0.98, 25)
    worst_phi = 0.0
    for alpha in (-2.0, -1.0, 0.0, 1.0, 2.0, math.pi):
        x = np.clip(rng.uniform(0.0, 1.0, size=20), 1e-6, 1.0 - 1e-6)
        dev = np.abs(phi_big(alpha, n, x) - (alpha**2 + 2.0 - 2.0 / n))
        worst_phi = max(worst_phi, float(np.max(dev)))
    ts = tail_sums(n)
    return [
        StrictReport("partition_unity", "-", n, unity_dev, 8 * n * _EPS),
        InequalityReport("moment_closed_forms", "-", n, _moment_bruteforce_dev(n, interior), 1e-12),
        InequalityReport("eigen_relation", "-", n, _eigen_relation_dev(n, interior), 1e-10),
        InequalityReport("phi_identity", "-", n, worst_phi, 1e-9),
        InequalityReport("tail_lambda_lower", "-", n, 1.0 / (2 * n**2), ts.lam),
        InequalityReport("tail_lambda_upper", "-", n, ts.lam, 1.0 / n**2),
        InequalityReport("tail_theta_upper", "-", n, ts.theta, 4.0 / (9 * n**3)),
        check_lebesgue(n, grid_size),
    ]


def check_interpolation(f: FunctionSpec, n: int, sweep: Sweep) -> list[InequalityReport]:
    """U_n f and Utilde_n f interpolate f at 0 and 1; Utilde_n reproduces a linear f."""
    pu, put = sweep.U(f, n), sweep.Utilde(f, n)
    dev = max(abs(p.eval(x) - f.eval(x)) for p in (pu, put) for x in (0.0, 1.0))
    reports = [InequalityReport("endpoint_interp", f.name, n, dev, 1e-12)]
    if f.polynomial_degree is not None and f.polynomial_degree <= 1:
        reports.append(InequalityReport("linear_reproduction", f.name, n, sweep.error(f, n), 1e-12))
    return reports


#: The smoothness flags each check requires of f, with the wording of its skip note.
_CONTRACTION_NEEDS = (("w2", "f in W^2(phi)"),)
_JACKSON_NEEDS = (("w20", "f in W^2_0(phi)"), ("dtilde_w2", "Dtilde f in W^2(phi)"))
_VORONOVSKAYA_NEEDS = (
    ("w20", "f in W^2_0(phi)"),
    ("dtilde_w20", "Dtilde f in W^2_0(phi)"),
    ("d3_bounded", "Dtilde^3 f bounded"),
)


def _meets(f: FunctionSpec, needs) -> bool:
    return all(getattr(f.smoothness, flag) for flag, _ in needs)


def _require(f: FunctionSpec, needs) -> None:
    for flag, requirement in needs:
        if not getattr(f.smoothness, flag):
            raise PreconditionError(f"{f.name}: requires {requirement}")


def check_contraction_U(f: FunctionSpec, n: int, sweep: Sweep) -> InequalityReport:
    """||U_n f - f|| <= (1/n) ||Dtilde f||.

    The left side is the Sweep's distance of U_n f, so for a linear f, where
    U_n f and Utilde_n f often hold the same bits, it is the sup norm that
    linear_reproduction takes.
    """
    _require(f, _CONTRACTION_NEEDS)
    lhs = sweep.distance(sweep.U(f, n), f)
    rhs = sweep.dtilde_norm(f, 1) / n
    return InequalityReport("contraction_U", f.name, n, lhs, rhs)


def check_jackson(f: FunctionSpec, n: int, sweep: Sweep) -> InequalityReport:
    """Jackson-type bound ||Utilde_n f - f|| <= (1/n^2) ||Dtilde^2 f||."""
    _require(f, _JACKSON_NEEDS)
    lhs = sweep.error(f, n)
    rhs = sweep.dtilde_norm(f, 2) / n**2
    return InequalityReport("jackson", f.name, n, lhs, rhs)


def check_voronovskaya(f: FunctionSpec, n: int, sweep: Sweep) -> InequalityReport:
    """Voronovskaya-type bound on the leading-term residual.

    ||Utilde_n f - f + lambda(n) Dtilde^2 f|| <= theta(n) ||Dtilde^3 f||.
    """
    _require(f, _VORONOVSKAYA_NEEDS)
    lhs = sweep.voronovskaya_residual(f, n)
    rhs = tail_sums(n).theta * sweep.dtilde_norm(f, 3)
    return InequalityReport("voronovskaya", f.name, n, lhs, rhs)


def check_bernstein_inequality(f: FunctionSpec, n: int, sweep: Sweep) -> InequalityReport:
    """Bernstein-type bound ||Dtilde Utilde_n f|| <= (6.5 + sqrt 6) n ||f||."""
    if n < 2:
        raise ValueError("n must be >= 2")
    lhs = sweep.dtilde_utilde_norm(f, n)
    rhs = BERNSTEIN_CONSTANT * n * sweep.dtilde_norm(f, 0)
    return InequalityReport("bernstein", f.name, n, lhs, rhs)


def bernstein_probe_max_ratio(
    n: int, trials: int, rng: np.random.Generator, grid_size: int = DEFAULT_GRID
) -> float:
    """Randomized search for the worst ||Dtilde Utilde_n f|| / (n ||f||).

    Probes are degree-n polynomials with random +-1 Bernstein coefficient
    sign patterns.  Both norms are plain grid maxima, so the ratio errs either
    way: the numerator can hide a violation, the denominator inflates it.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    B = bernstein_matrix(n, _chebyshev_grid(grid_size))
    A = u_coefficient_matrix(n, n)

    C = rng.choice([-1.0, 1.0], size=(trials, n + 1))
    U = C @ A.T
    UT = dtilde_coefficient_map(U - dtilde_coefficient_map(U) / n)
    # absolute values in place: one (trials, points) product alive at a time
    lhs = UT @ B.T
    lhs = np.max(np.abs(lhs, out=lhs), axis=1)
    norms = C @ B.T
    norms = np.max(np.abs(norms, out=norms), axis=1)
    return float(np.max(lhs / (n * norms)))


def check_bernstein_probes(
    n: int, trials: int, rng: np.random.Generator, grid_size: int = DEFAULT_GRID
) -> InequalityReport:
    """The worst probe ratio of bernstein_probe_max_ratio, times n, against C n."""
    ratio = bernstein_probe_max_ratio(n, trials, rng, grid_size)
    return InequalityReport(
        "bernstein_probes", "random", n, ratio * n, BERNSTEIN_CONSTANT * n, note=f"trials={trials}"
    )


def _decomposition_parts(n: int, xs: np.ndarray):
    """a_n, b_n and c_n at interior points xs."""
    B = bernstein_matrix(n, xs)
    B1 = bernstein_matrix(n - 1, xs)
    phi = xs * (1.0 - xs)

    Pp = np.zeros_like(B)
    Pp[:, 0] = -n * B1[:, 0]
    Pp[:, n] = n * B1[:, n - 1]
    Pp[:, 1:n] = n * (B1[:, : n - 1] - B1[:, 1:n])

    T, Tp, Tpp = (t_matrix(n, xs, order) for order in (0, 1, 2))

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
    a, b, c = (np.empty(xs.size) for _ in range(3))
    for start in range(0, xs.size, _DECOMPOSITION_BLOCK):
        rows = slice(start, start + _DECOMPOSITION_BLOCK)
        a[rows], b[rows], c[rows] = _decomposition_parts(n, xs[rows])

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


def kfunctional_sandwich(f: FunctionSpec, n: int, sweep: Sweep) -> KfSandwich:
    """Two-sided estimate of K(f, 1/n^2), with the guarantees of KfSandwich.

    The upper side minimizes ||f - g|| + t ||Dtilde^2 g|| over the concrete
    candidates g = Utilde_m^3 f for m = n, 2n, 4n, 8n plus g = f itself
    when f is smooth enough; second derivatives of candidates always come
    from the exact coefficient map, never from numerical differentiation.
    The operator error ||Utilde_n f - f|| is kept as ``err``; divided by
    1 + sqrt(3) it is the lower side.

    Candidates whose costs tie in exact arithmetic (at t2, n = 2 the
    candidates m = 2, m = 4 and f itself all cost 1/4) are ranked by the last
    bit of their computed costs: ``candidate_id``, the CLI's ``note``, is the
    first of least cost, m ascending, then f itself (strict <).

    Branch and bound: a candidate whose fl(L(g - f) + fl(t L(Dtilde^2 g)))
    exceeds the lesser of the best cost so far and f's own is skipped without
    its sup norms.  L (_screened_lower_bound) is at most the sup_norm value
    and rounding is monotone, so a skipped candidate costs strictly more than
    the winner: skipping it changes neither ``upper`` nor any tie.  A kept
    candidate's two norms, ||g - f|| and ||Dtilde^2 g||, both of degree m,
    are taken in one lockstep Sweep.fill.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    t = 1.0 / n**2

    ms = (n, 2 * n, 4 * n, 8 * n)
    for m in ms:  # an uncertified route raises before f's own cost is taken, as without pruning
        sweep.Utilde3(f, m)
    own_cost = t * sweep.dtilde_norm(f, 2) if _meets(f, _JACKSON_NEEDS) else math.inf
    best_cost = math.inf
    best_id = ""
    for m in ms:
        low_dist, low_d2 = sweep.iterate_lower_bounds(f, m)
        if low_dist + t * low_d2 > min(best_cost, own_cost):
            continue
        sweep.fill(sweep.iterate_requests(f, m))
        cost = sweep.iterate_distance(f, m) + t * sweep.iterate_d2_norm(f, m)
        if cost < best_cost:
            best_cost, best_id = cost, f"utilde3_m{m}"
    if own_cost < best_cost:
        best_cost, best_id = own_cost, "f_itself"

    return KfSandwich(t=t, err=sweep.error(f, n), upper=best_cost, candidate_id=best_id)


def check_direct(f: FunctionSpec, n: int, sweep: Sweep) -> list[InequalityReport]:
    """The sandwich and the direct theorem, both from one sandwich.

    Reports kf_sandwich (lower <= upper) and direct, which checks
    ||Utilde_n f - f|| <= (1 + sqrt 3) upper.  The direct theorem bounds the
    error by (1 + sqrt 3) K(f, 1/n^2), and K <= upper, so the row checks a
    consequence of the theorem, a weaker inequality than the theorem itself.
    Both rows compare the same ratio, err / ((1 + sqrt 3) upper).
    """
    sw = kfunctional_sandwich(f, n, sweep)
    return [
        InequalityReport("kf_sandwich", f.name, n, sw.lower, sw.upper, note=sw.candidate_id),
        InequalityReport("direct", f.name, n, sw.err, (1.0 + SQRT3) * sw.upper, note=sw.candidate_id),
    ]


def check_converse(f: FunctionSpec, n: int, ell: int, sweep: Sweep) -> list[InequalityReport]:
    """Strong converse bound at two operator scales, plus its iterate step.

    Verifies K(f, 1/n^2) <= C (ell/n)^2 (||Utilde_n f - f|| + ||Utilde_ell f - f||)
    with C = 4 + sqrt(3) + (6.5 + sqrt 6)^2, for ell >= ceil(L n),
    L = 16(6.5 + sqrt 6)/9, with the sandwich upper bound standing in for K.
    Also verifies the triple-iterate contraction
    ||f - Utilde_n^3 f|| <= (4 + sqrt 3) ||f - Utilde_n f||, whose left side
    is the sandwich's m = n candidate distance.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    required = math.ceil(CONVERSE_SCALE_FACTOR * n)
    if ell < required:
        raise PreconditionError(
            f"ell={ell} below threshold: need ell >= ceil(L*n) = {required} "
            f"(L = {CONVERSE_SCALE_FACTOR:.6f})"
        )
    sw = kfunctional_sandwich(f, n, sweep)
    rhs = CONVERSE_CONSTANT * (ell / n) ** 2 * (sw.err + sweep.error(f, ell))
    main = InequalityReport("converse", f.name, n, sw.upper, rhs, ell=ell, note=sw.candidate_id)

    lhs3 = sweep.iterate_distance(f, n)
    iterate_report = InequalityReport(
        "iterate_contraction", f.name, n, lhs3, (4.0 + SQRT3) * sw.err
    )
    return [main, iterate_report]


def rate_errors(f: FunctionSpec, n: int, sweep: Sweep) -> tuple[float, float, float]:
    """(||U_n f - f||, ||Utilde_n f - f||, lambda(n)), one row of the rate table.

    lambda(n) is the coefficient of Dtilde^2 f in the Voronovskaya-type
    expansion of Utilde_n f - f.  Both errors are the Sweep's distances, so
    where U_n f and Utilde_n f hold the same bits (a linear f) one sup norm
    gives both.
    """
    return sweep.distance(sweep.U(f, n), f), sweep.error(f, n), tail_sums(n).lam


def fill_operator_errors(fs: Sequence[FunctionSpec], n: int, sweep: Sweep) -> None:
    """Fill sweep with the operator errors verify's checks take at n, in lockstep:
    ||U_n f - f|| of contraction_U, ||Utilde_n f - f|| of jackson and of
    linear_reproduction, each for the f that meet the check's requirements."""
    requests = []
    for f in fs:
        if _meets(f, _CONTRACTION_NEEDS):
            requests.append(sweep.distance_request(sweep.U(f, n), f))
        if _meets(f, _JACKSON_NEEDS) or (f.polynomial_degree is not None and f.polynomial_degree <= 1):
            requests.append(sweep.distance_request(sweep.Utilde(f, n), f))
    sweep.fill(requests)


def fill_bernstein_inequality(fs: Sequence[FunctionSpec], n: int, sweep: Sweep) -> None:
    """Fill sweep with the left sides ||Dtilde Utilde_n f|| of check_bernstein_inequality, in lockstep."""
    sweep.fill(sweep.form_request(dtilde_form(sweep.Utilde(f, n))) for f in fs)


def fill_voronovskaya(fs: Sequence[FunctionSpec], ns: Sequence[int], sweep: Sweep) -> None:
    """Fill sweep with the residual norms of check_voronovskaya for every (f, n),
    f outer, of the f that meet its requirements; each degree in lockstep."""
    sweep.fill(sweep.voronovskaya_request(f, n) for f in fs if _meets(f, _VORONOVSKAYA_NEEDS) for n in ns)


def fill_rate_errors(fs: Sequence[FunctionSpec], ns: Sequence[int], sweep: Sweep) -> None:
    """Fill sweep with both errors of rate_errors for every (f, n), f outer; each degree in lockstep."""
    sweep.fill(
        sweep.distance_request(p, f) for f in fs for n in ns for p in (sweep.U(f, n), sweep.Utilde(f, n))
    )


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

