"""The sup-norm grid engine: in-place de Casteljau and basis, the closed-form
screening basis and its error bound, cached grid bases, exact confirmation,
golden-section probes in lookahead batches, and the screened lower bound that
must sit at or below the sup norm.

The oracles are the straightforward forms the engine replaces: de Casteljau
and the basis recurrence with fresh arrays at every level, and a sup norm
that evaluates its argument by de Casteljau on the whole grid and refines it
by one-point probes.  They are copied here, so the comparisons are bit for
bit.  The closed-form basis is held to its stated bound against 50-digit
mpmath values.
"""

import math
import sys
import threading
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import gsops.basis
import gsops.operators
from gsops.analysis import (
    DEFAULT_GRID,
    GOLDEN_ITERATIONS,
    GRID_BASIS_BUDGET,
    LOOKAHEAD_DEPTH,
    Residual,
    Sweep,
    _chebyshev_grid,
    _GRID_BASES,
    _GridBasisCache,
    _ptilde_abs_sums,
    _screened_lower_bound,
    lebesgue_bound,
    sup_norm,
)
from gsops.basis import (
    EVAL_WORKSPACE,
    _eval_chunk,
    bernstein_matrix,
    closed_form_basis,
    closed_form_error,
    tail_sums,
)
from gsops.catalog import catalog_names, get_function
from gsops.operators import (
    BernsteinForm,
    apply_Utilde_to_form,
    dtilde_form,
    dtilde_of_function,
    utilde_from_u,
)

from helpers import sweep_U

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def level_by_level_basis(n, xs):
    """The degree-raising recurrence with a fresh array per level."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    one_minus = 1.0 - xs
    b = np.ones((xs.size, 1))
    for j in range(1, n + 1):
        nxt = np.empty((xs.size, j + 1))
        nxt[:, 0] = one_minus * b[:, 0]
        nxt[:, j] = xs * b[:, j - 1]
        if j > 1:
            nxt[:, 1:j] = xs[:, None] * b[:, : j - 1] + one_minus[:, None] * b[:, 1:j]
        b = nxt
    return b


def allocating_de_casteljau(coeffs, x):
    """De Casteljau with fresh (points, level) arrays at every level."""
    xs = np.asarray(x, dtype=float)
    pts = np.atleast_1d(xs)
    n = len(coeffs) - 1
    b = np.broadcast_to(coeffs, (pts.size, n + 1)).copy()
    t = pts[:, None]
    s = 1.0 - t
    for level in range(n, 0, -1):
        b = s * b[:, :level] + t * b[:, 1 : level + 1]
    out = b[:, 0]
    return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)


def full_grid_sup_norm(fn, grid_size=DEFAULT_GRID, probes=None):
    """(value, argmax) from |fn| on the whole grid, then golden-section refinement.

    Each refinement point is evaluated alone, in the order of the walk, and
    appended to ``probes`` if a list is given.
    """

    def abs_values(pts):
        vals = np.abs(np.asarray(fn(pts), dtype=float))
        assert np.all(np.isfinite(vals))
        if probes is not None and pts.size == 1:
            probes.append(float(pts[0]))
        return vals

    xs = _chebyshev_grid(grid_size)
    vals = abs_values(xs)
    i = int(np.argmax(vals))
    best_x, best_v = float(xs[i]), float(vals[i])
    a = float(xs[max(i - 1, 0)])
    b = float(xs[min(i + 1, xs.size - 1)])
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = float(abs_values(np.array([c]))[0])
    fd = float(abs_values(np.array([d]))[0])
    for _ in range(GOLDEN_ITERATIONS):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = float(abs_values(np.array([c]))[0])
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = float(abs_values(np.array([d]))[0])
    for x, v in ((c, fc), (d, fd)):
        if v > best_v:
            best_x, best_v = x, v
    return best_v, best_x


def assert_same_as_full_pass(fn, oracle_fn, grid_size=DEFAULT_GRID):
    est = sup_norm(fn, grid_size)
    value, argmax = full_grid_sup_norm(oracle_fn, grid_size)
    assert est.value == value
    assert est.argmax == argmax


# -- BernsteinForm.eval: in place, level by level --------------------------------------

_EVAL_DEGREES = [0, 1, 2, 255, 256, 257, 600]


@pytest.mark.parametrize("n", _EVAL_DEGREES)
def test_eval_matches_allocating_de_casteljau(n):
    rng = np.random.default_rng(n)
    form = BernsteinForm(n, rng.normal(size=n + 1))
    w = _eval_chunk(n)
    for size in (0, 1, 2, 15, w - 1, w, w + 1, 2003):
        xs = rng.uniform(0.0, 1.0, size)
        out = form.eval(xs)
        assert out.shape == (size,)
        assert out.tobytes() == allocating_de_casteljau(form.coeffs, xs).tobytes()


@pytest.mark.parametrize("n", _EVAL_DEGREES)
def test_eval_scalar_and_shaped_points(n):
    form = BernsteinForm(n, np.random.default_rng(n).normal(size=n + 1))
    for x in (0.3, np.float64(0.3), np.array(0.3)):
        value = form.eval(x)
        assert type(value) is float
        assert value == allocating_de_casteljau(form.coeffs, 0.3)
    # the allocating loop takes 1-D points only; the kernel keeps any shape
    grid = np.linspace(0.0, 1.0, 12)
    out = form.eval(grid.reshape(3, 4))
    assert out.shape == (3, 4)
    assert out.tobytes() == allocating_de_casteljau(form.coeffs, grid).tobytes()
    assert form.eval([0.25, 0.75]).tobytes() == allocating_de_casteljau(form.coeffs, [0.25, 0.75]).tobytes()


@pytest.mark.parametrize("n", _EVAL_DEGREES)
def test_eval_endpoints_are_the_end_coefficients(n):
    form = BernsteinForm(n, np.random.default_rng(n).normal(size=n + 1))
    xs = np.tile([0.0, 0.5, 1.0], 300)  # endpoints in every chunk
    out = form.eval(xs)
    assert np.all(out[0::3] == form.coeffs[0])
    assert np.all(out[2::3] == form.coeffs[n])
    assert form.eval(0.0) == form.coeffs[0]
    assert form.eval(1.0) == form.coeffs[n]


@pytest.mark.parametrize("n", [1, 2, 255, 600])
def test_eval_nan_coefficient_propagates(n):
    coeffs = np.random.default_rng(n).normal(size=n + 1)
    coeffs[n // 2] = np.nan
    xs = np.linspace(0.0, 1.0, 2003)
    out = BernsteinForm(n, coeffs).eval(xs)
    # 0 * nan is nan, so even the endpoints see it
    assert np.all(np.isnan(out))
    assert np.array_equal(out, allocating_de_casteljau(coeffs, xs), equal_nan=True)


def same_bits(a, b) -> bool:
    """Equal int64 views, with any NaN against any NaN."""
    a, b = np.atleast_1d(a), np.atleast_1d(b)
    if a.shape != b.shape:
        return False
    nan = np.isnan(a)
    return bool(np.array_equal(nan, np.isnan(b)) and np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64)))


_CONSTANTS = [1.0, 0.0, -0.0, 3.7, 5e-324, 1e308, math.inf, math.nan]
_CONSTANT_DEGREES = [0, 1, 2, 255, 1024]


def sampled_grid(n):
    """The default Chebyshev grid with both endpoints, thinned at high degree.

    The allocating oracle does O(n^2) work per point, a billion entries for
    the whole grid at n = 1024; evaluation is pointwise, so every 8th
    (n >= 128) or 32nd (n >= 512) point, the last one kept, checks each point
    it holds.
    """
    grid = _chebyshev_grid(DEFAULT_GRID)
    step = 32 if n >= 512 else 8 if n >= 128 else 1
    return np.concatenate((grid[:-1:step], grid[-1:]))


@pytest.mark.parametrize("n", _CONSTANT_DEGREES)
@pytest.mark.parametrize("c", _CONSTANTS, ids=repr)
def test_eval_of_a_constant_form_matches_allocating_de_casteljau(c, n):
    # one value per point at every level: the short cut must give the
    # triangle's bits, signed zeros, subnormals, overflow, inf * 0 and NaN
    # included (inf * 0 warns in both)
    form = BernsteinForm(n, np.full(n + 1, c))
    grid = sampled_grid(n)
    assert grid[0] == 0.0 and grid[-1] == 1.0
    with np.errstate(invalid="ignore"):
        out = form.eval(grid)
        assert out.shape == grid.shape
        assert same_bits(out, allocating_de_casteljau(form.coeffs, grid))
        assert form.eval(np.array([])).shape == (0,)
        for x in (0.0, 0.3, 1.0):
            value = form.eval(x)
            assert type(value) is float
            assert same_bits(value, allocating_de_casteljau(form.coeffs, x))


@pytest.mark.parametrize("n", [1, 2, 255, 1024])
def test_eval_of_mixed_signed_zeros_takes_the_triangle(n):
    # -0.0 == 0.0, but the form is not constant: the triangle turns every
    # point to +0.0, where -0.0 carried through n levels would stay -0.0
    coeffs = np.full(n + 1, -0.0)
    coeffs[n] = 0.0
    grid = sampled_grid(n)
    out = BernsteinForm(n, coeffs).eval(grid)
    assert same_bits(out, allocating_de_casteljau(coeffs, grid))
    assert not np.any(np.signbit(out))


def test_eval_of_a_constant_form_builds_no_triangle():
    # a triangle chunk at degree 1024 is four arrays of 31 points times about
    # 1024 levels (1 MB); a constant form needs three arrays of the points alone
    grid = _chebyshev_grid(DEFAULT_GRID)
    form = BernsteinForm(1024, np.ones(1025))
    tracemalloc.start()
    try:
        form.eval(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * grid.nbytes + 2**14


@pytest.mark.parametrize("n", [0, 1, 127, 128, 129, 255, 1000, EVAL_WORKSPACE - 1])
def test_eval_workspace_is_bounded(n):
    w = _eval_chunk(n)
    assert 1 <= w <= 256
    assert (n + 1) * w <= EVAL_WORKSPACE


# -- bernstein_matrix ----------------------------------------------------------------


@pytest.mark.parametrize("n", [0, 1, 2, 5, 64, 257])
def test_bernstein_matrix_matches_level_by_level_recurrence(n):
    rng = np.random.default_rng(n)
    points = np.concatenate(([0.0, 1.0], rng.uniform(0.0, 1.0, 300), [0.0, 0.5, 1.0]))
    for xs in (_chebyshev_grid(DEFAULT_GRID), points):
        out = bernstein_matrix(n, xs)
        assert out.shape == (xs.size, n + 1)
        assert out.flags.c_contiguous
        assert np.array_equal(out, level_by_level_basis(n, xs))


@pytest.mark.parametrize("n", [0, 1, 127, 128, 255, 256, 510, 511, 1000])
def test_bernstein_matrix_flat_kernel_matches_oracle_at_chunk_edges(n):
    # the chunk width w changes with n; point counts around w cover a lone
    # chunk, a full one and a short last one.  The oracle's cost grows as
    # n^2 times the points, so the 2003-point grid stops at n = 256
    rng = np.random.default_rng(n)
    w = _eval_chunk(n)
    for size in (0, 1, w - 1, w, w + 1, 2003 if n <= 256 else 3 * w + 1):
        xs = rng.uniform(0.0, 1.0, size)
        out = bernstein_matrix(n, xs)
        assert out.shape == (size, n + 1)
        assert out.flags.c_contiguous
        assert out.tobytes() == level_by_level_basis(n, xs).tobytes()


@pytest.mark.parametrize("n", [1, 2, 127, 511])
def test_bernstein_matrix_endpoint_rows_in_every_chunk(n):
    xs = np.tile([0.0, 0.5, 1.0], _eval_chunk(n) + 1)  # endpoints in every chunk
    out = bernstein_matrix(n, xs)
    unit = np.zeros(n + 1)
    unit[0] = 1.0
    assert np.all(out[0::3] == unit)
    assert np.all(out[2::3] == unit[::-1])
    assert out.tobytes() == level_by_level_basis(n, xs).tobytes()


@pytest.mark.parametrize("n", [0, 1, 127, 255, 512, 1000])
def test_basis_workspace_is_bounded(n):
    # one rule for both kernels: the operators module reads the basis module's.
    # Beyond its result, bernstein_matrix holds four work arrays of at most
    # EVAL_WORKSPACE floats each, whatever the number of chunks
    assert gsops.operators._eval_chunk is gsops.basis._eval_chunk
    xs = np.linspace(0.0, 1.0, 3 * _eval_chunk(n) + 1)
    tracemalloc.start()
    try:
        out = bernstein_matrix(n, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - out.nbytes <= 4 * 8 * EVAL_WORKSPACE + 2**14


def test_bernstein_matrix_empty_and_scalar_points():
    assert bernstein_matrix(3, []).shape == (0, 4)
    assert np.array_equal(bernstein_matrix(7, 0.3), level_by_level_basis(7, [0.3]))


# -- closed_form_basis: the screening basis and its error bound -----------------------


def exact_basis_row(n, x):
    """P_{n,k}(x), k = 0..n, in 50-digit arithmetic (no underflow)."""
    if x in (0.0, 1.0):
        return [mpmath.mpf(int(k == n * x)) for k in range(n + 1)]
    x = mpmath.mpf(x)
    ratio = x / (1 - x)
    row = [(1 - x) ** n]
    for k in range(n):
        row.append(row[-1] * (n - k) / (k + 1) * ratio)
    return row


def closed_form_excess(n, rows, shrink=1.0):
    """max over the entries of |B - P| / (r P / shrink + tiny) on the given grid rows."""
    xs = _chebyshev_grid(DEFAULT_GRID)[rows]
    B = closed_form_basis(n, xs)
    r = closed_form_error(n, xs) / shrink
    worst = 0.0
    with mpmath.workdps(50):
        tiny = mpmath.mpf(float(np.finfo(float).tiny))
        for i, x in enumerate(xs.tolist()):
            for b, p in zip(B[i].tolist(), exact_basis_row(n, x)):
                worst = max(worst, float(abs(mpmath.mpf(b) - p) / (r[i] * p + tiny)))
    return worst


_SIZE = _chebyshev_grid(DEFAULT_GRID).size
# both endpoints, the two extreme interior points, and the rows around x = 1/2,
# where the mode k = n/2 carries the largest log C(n, k)
_BOUND_ROWS = [0, 1, _SIZE - 2, _SIZE - 1, *range(_SIZE // 2 - 2, _SIZE // 2 + 3)]


@pytest.mark.parametrize("n", [1, 2, 17, 256, 512, 1024])
def test_closed_form_basis_within_its_bound(n):
    assert closed_form_excess(n, _BOUND_ROWS) <= 1.0


def test_closed_form_bound_too_small_is_caught():
    # the oracle has teeth: the bound divided by 30 fails somewhere
    assert max(closed_form_excess(n, _BOUND_ROWS, shrink=30.0) for n in (17, 512, 1024)) > 1.0


@pytest.mark.parametrize("n", [0, 1, 2, 40, 1100])
def test_closed_form_basis_endpoint_rows_and_shape(n):
    xs = np.tile([0.0, 0.5, 1.0], _eval_chunk(n) + 1)  # endpoints in every block
    out = closed_form_basis(n, xs)
    assert out.shape == (xs.size, n + 1) and out.flags.c_contiguous
    unit = np.zeros(n + 1)
    unit[0] = 1.0
    assert np.all(out[0::3] == unit)
    assert np.all(out[2::3] == unit[::-1])
    assert np.all(np.isfinite(out)) and np.all(out >= 0.0)
    assert closed_form_basis(n, []).shape == (0, n + 1)


@pytest.mark.parametrize("xs", [[np.nan], [0.5, -0.1], [1.5]])
def test_closed_form_basis_rejects_points_outside(xs):
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        closed_form_basis(3, xs)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        closed_form_error(3, xs)


@pytest.mark.parametrize("n", [0, 1, 127, 255, 512, 1000])
def test_closed_form_workspace_is_bounded(n):
    # built block by block in the result: beyond it, at most 4 EVAL_WORKSPACE floats
    xs = np.linspace(0.0, 1.0, 3 * _eval_chunk(n) + 1)
    tracemalloc.start()
    try:
        out = closed_form_basis(n, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - out.nbytes <= 4 * 8 * EVAL_WORKSPACE + 2**14


# -- sup_norm: screening confirmed by de Casteljau -------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_sup_norm_random_forms_match_full_pass(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 300))
    form = BernsteinForm(n, rng.normal(size=n + 1) * 10.0 ** rng.integers(-6, 6))
    assert_same_as_full_pass(form, form.eval)
    assert_same_as_full_pass(Residual(form), form.eval)
    f = get_function("exp")
    assert_same_as_full_pass(Residual(form, f.eval), lambda xs: form.eval(xs) - f.eval(xs))


def apply_Utilde(f, n):
    """Utilde_n f, built from U_n f."""
    return utilde_from_u(sweep_U(f, n))


@pytest.mark.parametrize("name", ["one", "t"])
@pytest.mark.parametrize("apply", [sweep_U, apply_Utilde], ids=["apply_U", "apply_Utilde"])
def test_sup_norm_flat_operator_errors_match_full_pass(name, apply):
    # operators reproduce linear functions, so the error is rounding noise and
    # every grid point is a candidate for the max
    f = get_function(name)
    p = apply(f, 256)
    assert_same_as_full_pass(Residual(p, f.eval), lambda xs: p.eval(xs) - f.eval(xs))


# -- the widest screens: n = 512 and 1024, where delta reaches 1.5e-11 and 3e-11 max|c|


def test_sup_norm_flat_residual_at_512_matches_full_pass():
    # Utilde_512 one - one is rounding noise: every grid point is a candidate
    f = get_function("one")
    p = apply_Utilde(f, 512)
    assert_same_as_full_pass(Residual(p, f.eval), lambda xs: p.eval(xs) - f.eval(xs))


@pytest.mark.parametrize("n", [512, 1024])
def test_sup_norm_spread_random_forms_at_high_degree_match_full_pass(n):
    # coefficients spread over 1e-6 .. 1e6, so max|c| sets a wide delta
    rng = np.random.default_rng(n)
    form = BernsteinForm(n, rng.normal(size=n + 1) * 10.0 ** rng.uniform(-6.0, 6.0, n + 1))
    assert_same_as_full_pass(form, form.eval)


def _exp_taylor_form(degree):
    """exp's Taylor polynomial of the given degree in Bernstein form: c_k = sum_j C(k,j) / (C(M,j) j!)."""
    return BernsteinForm(
        degree,
        [float(sum(Fraction(math.comb(k, j), math.comb(degree, j) * math.factorial(j)) for j in range(k + 1)))
         for k in range(degree + 1)],
    )


@pytest.mark.parametrize("n", [512, 1024])
def test_sup_norm_voronovskaya_residual_of_exp_at_high_degree_matches_full_pass(n):
    # Utilde_n of exp's degree-20 Taylor polynomial, through the exact Beta matrix
    # in milliseconds, not quadrature in seconds: the two differ by at most
    # sqrt(3) e / 21! < 1e-19, far below the last bit of the values
    f = get_function("exp")
    lam = tail_sums(n).lam
    p = apply_Utilde_to_form(_exp_taylor_form(20), n)
    d2f = dtilde_of_function(f, 2)
    assert_same_as_full_pass(
        Residual(p, f.eval, d2f, lam), lambda xs: p.eval(xs) - f.eval(xs) + lam * d2f(xs)
    )


def test_sup_norm_mirror_symmetric_maxima_match_full_pass():
    # c_k = c_{n-k}: two equal humps mirrored about 1/2
    n = 40
    coeffs = np.zeros(n + 1)
    coeffs[[8, n - 8]] = 1.0
    form = BernsteinForm(n, coeffs)
    assert_same_as_full_pass(form, form.eval)
    assert_same_as_full_pass(dtilde_form(form), dtilde_form(form).eval)
    flat = BernsteinForm(n, np.ones(n + 1))
    assert_same_as_full_pass(flat, flat.eval)


@pytest.mark.parametrize("name", ["t2", "exp", "sinpi"])
@pytest.mark.parametrize("n", [4, 64, 256])
def test_sup_norm_voronovskaya_residual_matches_full_pass(name, n):
    f = get_function(name)
    lam = tail_sums(n).lam
    p = utilde_from_u(sweep_U(f, n))
    d2f = dtilde_of_function(f, 2)
    assert_same_as_full_pass(
        Residual(p, f.eval, d2f, lam), lambda xs: p.eval(xs) - f.eval(xs) + lam * d2f(xs)
    )
    # a bare form and a Residual without f take the same path
    assert_same_as_full_pass(p, p.eval)
    assert_same_as_full_pass(Residual(p), p.eval)


def test_residual_call_is_the_lambda():
    f = get_function("exp")
    p = utilde_from_u(sweep_U(f, 9))
    d2f = dtilde_of_function(f, 2)
    xs = np.linspace(0.0, 1.0, 101)
    assert np.array_equal(Residual(p)(xs), p.eval(xs))
    assert np.array_equal(Residual(p, f.eval)(xs), p.eval(xs) - f.eval(xs))
    assert np.array_equal(Residual(p, f.eval, d2f, 0.5)(xs), p.eval(xs) - f.eval(xs) + 0.5 * d2f(xs))


def test_sup_norm_non_finite_form_still_rejected():
    with pytest.raises(ValueError, match="non-finite"):
        sup_norm(BernsteinForm(3, [0.0, np.nan, 1.0, 0.0]))
    # de Casteljau meets 0 * inf at the endpoints; numpy warns, sup_norm raises
    with pytest.warns(RuntimeWarning, match="invalid value"), pytest.raises(ValueError, match="non-finite"):
        sup_norm(Residual(BernsteinForm(2, [0.0, np.inf, 0.0]), get_function("t2").eval))


# -- golden-section refinement in lookahead batches ------------------------------------

_GRIDS = [64, 65, 2001]


def _lebesgue_function(n):
    return lambda xs: _ptilde_abs_sums(n, np.atleast_1d(np.asarray(xs, float)))


@pytest.mark.parametrize("grid_size", _GRIDS)
@pytest.mark.parametrize("n", [2, 37, 128])
def test_lookahead_lebesgue_bound_matches_sequential_walk(n, grid_size):
    est = lebesgue_bound(n, grid_size)
    assert (est.value, est.argmax) == full_grid_sup_norm(_lebesgue_function(n), grid_size)


@pytest.mark.parametrize("grid_size", _GRIDS)
def test_lookahead_generic_callables_match_sequential_walk(grid_size):
    callables = [get_function(name).eval for name in catalog_names()]
    callables.append(dtilde_of_function(get_function("exp"), 3))
    for fn in callables:
        assert_same_as_full_pass(fn, fn, grid_size)


@pytest.mark.parametrize("grid_size", [64, 65])
@pytest.mark.parametrize("name", ["t2", "exp", "sinpi"])
@pytest.mark.parametrize("n", [4, 64, 256])
def test_lookahead_voronovskaya_residual_matches_sequential_walk(name, n, grid_size):
    # grid 2001 is test_sup_norm_voronovskaya_residual_matches_full_pass
    f = get_function(name)
    lam = tail_sums(n).lam
    p = utilde_from_u(sweep_U(f, n))
    d2f = dtilde_of_function(f, 2)
    assert_same_as_full_pass(
        Residual(p, f.eval, d2f, lam), lambda xs: p.eval(xs) - f.eval(xs) + lam * d2f(xs), grid_size
    )


def test_lookahead_refinement_of_a_form_is_batched(monkeypatch):
    form = BernsteinForm(40, np.random.default_rng(7).normal(size=41))
    grid = set(_chebyshev_grid(DEFAULT_GRID).tolist())
    sizes = []
    plain_eval = BernsteinForm.eval

    def recording_eval(self, x):
        pts = np.atleast_1d(np.asarray(x, dtype=float))
        if not grid.intersection(pts.tolist()):  # a refinement probe, not the grid or its confirmation
            sizes.append(pts.size)
        return plain_eval(self, x)

    monkeypatch.setattr(BernsteinForm, "eval", recording_eval)
    est = sup_norm(form)
    monkeypatch.undo()
    assert (est.value, est.argmax) == full_grid_sup_norm(form.eval)
    assert 1 not in sizes
    assert len(sizes) <= math.ceil(GOLDEN_ITERATIONS / LOOKAHEAD_DEPTH) + 1
    assert sizes[0] == 2 and max(sizes) == 2**LOOKAHEAD_DEPTH - 1


def _nan_at(fn, x_bad):
    def poisoned(xs):
        xs = np.asarray(xs, dtype=float)
        return np.where(xs == x_bad, np.nan, fn(xs))

    return poisoned


def _refinement_points(fn):
    """Points sup_norm evaluates off the grid, and those the sequential walk reads."""
    grid = set(_chebyshev_grid(DEFAULT_GRID).tolist())
    evaluated = []

    def recording(xs):
        evaluated.extend(x for x in np.atleast_1d(xs).tolist() if x not in grid)
        return fn(xs)

    sup_norm(recording)
    read = []
    full_grid_sup_norm(fn, probes=read)
    return evaluated, read


def test_lookahead_nan_at_an_unread_point_is_ignored():
    fn = get_function("sinpi").eval
    evaluated, read = _refinement_points(fn)
    unread = [x for x in evaluated if x not in set(read)]
    assert len(unread) > 0
    assert set(read) <= set(evaluated)
    est = sup_norm(_nan_at(fn, unread[-1]))
    assert (est.value, est.argmax) == full_grid_sup_norm(fn)


def test_lookahead_nan_at_a_read_point_still_raises():
    fn = get_function("sinpi").eval
    _, read = _refinement_points(fn)
    for x_bad in (read[0], read[len(read) // 2], read[-1]):
        with pytest.raises(ValueError, match="^non-finite value while estimating a sup norm$"):
            sup_norm(_nan_at(fn, x_bad))


# -- the screened lower bound that prunes the K-functional candidates ------------------


def assert_bound_below(fn, grid_size=DEFAULT_GRID):
    """0 <= the screened bound <= the sup_norm value; returns both."""
    low, value = _screened_lower_bound(fn, grid_size), sup_norm(fn, grid_size).value
    assert 0.0 <= low <= value
    return low, value


@pytest.fixture(scope="module")
def catalog_sweep():
    return Sweep([get_function(name) for name in catalog_names()], DEFAULT_GRID, 1e-10)


@pytest.mark.parametrize("name", catalog_names())
def test_screened_lower_bound_below_candidate_norms(name, catalog_sweep):
    # both norms of the K-functional candidates g = Utilde_m^3 f; away from
    # rounding noise the bound of ||Dtilde^2 g|| is also within 0.1% of it
    f = get_function(name)
    for m in (2, 3, 4, 5, 8, 16, 32, 64, 128, 256):
        g = catalog_sweep.Utilde3(f, m)
        assert_bound_below(Residual(g, f.eval))
        low, value = assert_bound_below(Residual(dtilde_form(dtilde_form(g))))
        assert low >= 0.999 * value or value < 1e-9


@pytest.mark.parametrize("n", [512, 1024])
def test_screened_lower_bound_below_spread_random_forms(n):
    # coefficients spread over 12 decades, so max|c| sets a wide delta
    rng = np.random.default_rng(n + 1)
    form = BernsteinForm(n, rng.normal(size=n + 1) * 10.0 ** rng.uniform(-6.0, 6.0, n + 1))
    f = get_function("exp")
    assert_bound_below(Residual(form))
    assert_bound_below(Residual(form, f.eval))
    assert_bound_below(Residual(form, f.eval, dtilde_of_function(f, 2), 1e3))


@pytest.mark.parametrize(("name", "n"), [("one", 512), ("t", 256)])
def test_screened_lower_bound_below_flat_residuals(name, n):
    # rounding noise, where s_i and d_i differ in every bit: only delta keeps
    # the bound below
    f = get_function(name)
    for p in (sweep_U(f, n), apply_Utilde(f, n)):
        assert_bound_below(Residual(p, f.eval))


def test_screened_lower_bound_evaluates_no_form(monkeypatch):
    def refuse(self, x):
        raise AssertionError("evaluated by de Casteljau")

    f = get_function("exp")
    p = utilde_from_u(sweep_U(f, 16))
    monkeypatch.setattr(BernsteinForm, "eval", refuse)
    assert _screened_lower_bound(Residual(p, f.eval), DEFAULT_GRID) > 0.0
    assert _screened_lower_bound(Residual(p), 64) > 0.0


def test_screened_lower_bound_of_a_non_finite_or_zero_screen_is_zero():
    assert _screened_lower_bound(Residual(BernsteinForm(3, [0.0, np.nan, 1.0, 0.0])), 64) == 0.0
    assert _screened_lower_bound(Residual(BernsteinForm(2, [0.0, np.inf, 0.0])), 64) == 0.0
    pole = Residual(BernsteinForm(1, [1.0, 2.0]), lambda xs: np.full_like(xs, np.inf))
    assert _screened_lower_bound(pole, 64) == 0.0
    assert _screened_lower_bound(Residual(BernsteinForm(4, np.zeros(5))), 64) == 0.0


# -- the grid-basis cache ------------------------------------------------------------


def test_grid_basis_cache_stays_within_budget():
    row_bytes = 8 * (_chebyshev_grid(64).size)
    cache = _GridBasisCache(budget=40 * row_bytes)  # room for 40 columns in total
    kept_after = {
        3: [3],
        9: [3, 9],
        15: [3, 9, 15],
        -9: [3, 15, 9],  # a hit makes 9 the most recently used
        20: [9, 20],  # 21 more columns: 3 and 15 go, least recently used first
        30: [30],
    }
    for step, kept in kept_after.items():
        n = abs(step)
        basis = cache.get(n, 64)
        assert np.array_equal(basis, closed_form_basis(n, _chebyshev_grid(64)))
        assert not basis.flags.writeable
        assert [key[0] for key in cache._entries] == kept
        assert cache.nbytes == sum(b.nbytes for b in cache._entries.values()) <= cache.budget
    # a basis larger than the whole budget is returned but not kept
    big = cache.get(60, 64)
    assert big.shape == (_chebyshev_grid(64).size, 61)
    assert [key[0] for key in cache._entries] == [30]


def test_grid_basis_cache_hit_returns_the_same_array():
    cache = _GridBasisCache(budget=GRID_BASIS_BUDGET)
    assert cache.get(12, 64) is cache.get(12, 64)


def test_module_cache_within_budget_after_a_sweep():
    f = get_function("exp")
    for n in (16, 64, 256, 512):
        sup_norm(Residual(utilde_from_u(sweep_U(f, n)), f.eval))
        assert _GRID_BASES.nbytes <= GRID_BASIS_BUDGET


def test_grid_basis_cache_concurrent_gets_keep_the_byte_count():
    grid = _chebyshev_grid(64)
    cache = _GridBasisCache(budget=60 * 8 * grid.size)
    expected = {n: closed_form_basis(n, grid) for n in range(1, 30)}
    errors = []

    def worker(seed):
        rng = np.random.default_rng(seed)
        for n in rng.integers(1, 30, size=200):
            if not np.array_equal(cache.get(int(n), 64), expected[int(n)]):
                errors.append(int(n))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert cache.nbytes == sum(b.nbytes for b in cache._entries.values()) <= cache.budget
