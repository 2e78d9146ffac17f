"""Tests for the closed-form operator coefficients and their error bounds.

Two oracles check the routes of gsops.quadrature: mpmath's adaptive
quadrature at 30 digits for n up to 32, and, for n up to 512, Gauss-Legendre
rules built here, which integrate the polynomial integrands of those n
exactly up to rounding.
"""

import dataclasses
import math

import mpmath
import numpy as np
import pytest

import gsops.quadrature
from gsops.basis import bernstein_matrix
from gsops.catalog import TAYLOR_TERMS, FunctionSpec, get_function, polynomial_function
from gsops.errors import ToleranceError
from gsops.exactpoly import u_coefficients_exact
from gsops.quadrature import entire_route, kink_power_route, u_coefficients_numeric

EPS = float(np.finfo(float).eps)
NEWTON_TOL = 1e-15
NEWTON_MAX_ITER = 100


# -- the Gauss-Legendre oracle -----------------------------------------------------


def _legendre_and_derivative(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_m(x) and P'_m(x) on [-1,1] by the three-term recurrence."""
    p_prev = np.ones_like(x)
    p = x.copy()
    for j in range(2, m + 1):
        p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
    dp = m * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


def _gauss_legendre(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the m-point Gauss-Legendre rule on [0,1].

    Roots by Newton iteration from the Chebyshev-type guesses
    cos(pi (i + 3/4) / (m + 1/2)), polished until the update falls below
    1e-15; weights from the standard derivative formula.  Nodes increase.
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
    return ((1.0 + x) / 2.0)[::-1].copy(), (w / 2.0)[::-1].copy()


def test_midpoint_rule():
    nodes, weights = _gauss_legendre(1)
    assert nodes == pytest.approx([0.5], abs=1e-16)
    assert weights == pytest.approx([1.0], abs=1e-15)


def test_two_point_rule_textbook():
    nodes, weights = _gauss_legendre(2)
    r = 1.0 / math.sqrt(3.0)
    assert nodes == pytest.approx([(1 - r) / 2, (1 + r) / 2], abs=1e-15)
    assert weights == pytest.approx([0.5, 0.5], abs=1e-15)


def test_five_point_integrates_x9():
    nodes, weights = _gauss_legendre(5)
    got = float(weights @ nodes**9)
    assert abs(got - 0.1) <= 1e-14  # exact value 1/10


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 8, 13, 20, 64, 128, 512])
def test_rule_structure(m):
    nodes, weights = _gauss_legendre(m)
    assert nodes.shape == (m,) and weights.shape == (m,)
    assert np.all(np.diff(nodes) > 0)
    assert np.all(weights > 0)
    assert abs(float(np.sum(weights)) - 1.0) <= 4 * m * EPS
    # symmetry about 1/2
    assert np.max(np.abs(nodes + nodes[::-1] - 1.0)) <= 4 * EPS
    assert np.max(np.abs(weights - weights[::-1])) <= 4 * EPS


@pytest.mark.parametrize("m", [1, 2, 3, 5, 9, 16, 33])
def test_exactness_all_monomials(m):
    nodes, weights = _gauss_legendre(m)
    for d in range(2 * m):
        got = float(np.dot(weights, nodes**d))
        assert abs(got - 1.0 / (d + 1)) <= 1e-13 / (d + 1)


@pytest.mark.parametrize("m", [2, 7, 31, 100, 257])
def test_against_numpy_leggauss(m):
    # independent oracle: numpy's Gauss-Legendre, mapped to [0,1]; the
    # smallest edge weights agree relatively (both routes round differently)
    x, w = np.polynomial.legendre.leggauss(m)
    nodes, weights = _gauss_legendre(m)
    assert nodes == pytest.approx((x + 1) / 2, abs=5e-15)
    assert weights == pytest.approx(w / 2, rel=1e-9)


@pytest.mark.parametrize("m", [128, 512])
def test_exactness_sampled_degrees_large_rules(m):
    nodes, weights = _gauss_legendre(m)
    for d in (0, 1, 3, 17, 100, 255, 2 * m - 1):
        got = float(np.dot(weights, nodes**d))
        assert abs(got - 1.0 / (d + 1)) <= 1e-13 / (d + 1)


def test_integrate_examples():
    nodes, weights = _gauss_legendre(4)
    assert float(weights @ np.ones_like(nodes)) == pytest.approx(1.0, abs=1e-15)
    nodes, weights = _gauss_legendre(2)
    assert float(weights @ nodes**2) == pytest.approx(1 / 3, abs=1e-15)
    nodes, weights = _gauss_legendre(16)
    got = float(weights @ np.exp(nodes))
    assert abs(got - (math.e - 1.0)) <= 1e-13


def _gauss_coefficients(name: str, n: int) -> np.ndarray:
    """Interior u_{n,k} of a catalog function by a Gauss rule, in float.

    exp and sinpi: (n-1) int P_{n-2,k-1} f on n/2 + 32 nodes, where the rule's
    error is far below rounding.  abs52: on t = (1 + w^2)/2 the right half
    is 2^{-5/2} int P_{N,j}((1+w^2)/2) w^6 dw, a polynomial of degree 2N + 6,
    which N + 4 nodes integrate exactly; the left half is the mirror.
    """
    N = n - 2
    if name == "abs52":
        w, wts = _gauss_legendre(N + 4)
        right = 2.0**-2.5 * (wts * w**6) @ bernstein_matrix(N, (1.0 + w * w) / 2.0)
        return (n - 1) * (right + right[::-1])
    t, wts = _gauss_legendre(n // 2 + 32)
    return (n - 1) * (wts * get_function(name).eval(t)) @ bernstein_matrix(N, t)


# -- the routes against mpmath and the Gauss oracle ----------------------------------


def _mpmath_coefficients(name: str, n: int) -> list:
    """Interior u_{n,k} at 30 digits, by mpmath's quadrature split at 1/2."""
    f = {
        "exp": mpmath.exp,
        "sinpi": lambda t: mpmath.sin(mpmath.pi * t),
        "abs52": lambda t: abs(t - mpmath.mpf(1) / 2) ** mpmath.mpf(2.5),
    }[name]
    N = n - 2
    with mpmath.workdps(30):
        half = mpmath.mpf(1) / 2
        return [
            (n - 1) * math.comb(N, j) * mpmath.quad(lambda t: t**j * (1 - t) ** (N - j) * f(t), [0, half, 1])
            for j in range(N + 1)
        ]


def _route_error(route, name: str, n: int) -> float:
    got, _ = route(n)
    with mpmath.workdps(30):
        return float(max(abs(mpmath.mpf(float(g)) - x) for g, x in zip(got, _mpmath_coefficients(name, n))))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 32])
@pytest.mark.parametrize("name", ["exp", "sinpi", "abs52"])
def test_route_within_its_bound_of_mpmath(name, n):
    # the route's bound covers its error against the 30-digit oracle, which
    # sits near rounding (at most 1.9e-16 for exp, 8.8e-16 for sinpi and
    # 4.7e-17 for abs52);
    # the endpoints are f(0) and f(1) as f.eval gives them
    f = get_function(name)
    u = u_coefficients_numeric(f, n)
    assert u.shape == (n + 1,)
    assert (u[0], u[-1]) == (f.eval(0.0), f.eval(1.0))
    if n == 1:
        return
    interior, bound = f.route(n)
    assert u[1:-1].tobytes() == interior.tobytes()
    error = _route_error(f.route, name, n)
    assert error <= bound
    assert error <= 1e-15
    assert bound <= {"exp": 4e-14, "sinpi": 2e-13, "abs52": 1e-14}[name]


def test_truncated_series_is_caught():
    # exp cut after t^8 with no tail counted is off by about 2.8e-6, far
    # outside the stated bound of the 40-term route, so the oracle catches
    # it; counting the tail, the route's own bound does, and the coefficients
    # are refused at COEFFICIENT_TOL
    exp = get_function("exp")
    taylor = [1 / math.factorial(q) for q in range(9)]
    silent = entire_route(taylor, 0.0)
    for n in (2, 8, 32):
        assert _route_error(silent, "exp", n) > 1e3 * exp.route(n)[1]
    tail = 2 / math.factorial(9)
    honest = FunctionSpec("exp9", exp.derivative_fn, None, exp.smoothness, entire_route(taylor, tail))
    for n in (2, 8, 32):
        assert _route_error(honest.route, "exp", n) <= honest.route(n)[1]
        with pytest.raises(ToleranceError):
            u_coefficients_numeric(honest, n)
    assert TAYLOR_TERMS == 40


@pytest.mark.parametrize("n", [64, 256, 512])
@pytest.mark.parametrize("name", ["exp", "sinpi", "abs52"])
def test_route_matches_gauss_legendre_at_large_n(name, n):
    # the float Gauss oracle carries the rounding of its basis values and
    # sums, up to 1.3e-13 for exp at n = 512 (k = n - 1, where the route is
    # within 4e-16 of mpmath's 1F1(k; n; 1)), so it is allowed n eps max|u|
    # on top of the route's bound: a check at large n against gross errors,
    # where the mpmath test above holds the routes to their bounds
    interior, bound = get_function(name).route(n)
    oracle = _gauss_coefficients(name, n)
    assert np.max(np.abs(interior - oracle)) <= bound + n * EPS * np.max(np.abs(oracle))
    assert np.all(interior >= 0.0) or name == "sinpi"


def test_kink_route_needs_an_integrable_power():
    with pytest.raises(ValueError, match="gamma > -1"):
        kink_power_route(-1.0)
    # gamma = 0 is the constant one: every coefficient is 1
    u, bound = kink_power_route(0.0)(40)
    assert np.max(np.abs(u - 1.0)) <= bound


# -- u_coefficients_numeric ---------------------------------------------------------


def _with_route(f: FunctionSpec) -> FunctionSpec:
    """A polynomial catalog entry with its finite Taylor series as its route."""
    return dataclasses.replace(f, route=entire_route([float(c) for c in f.poly.coeffs], 0.0))


def test_integrate_rejects_nonfinite():
    # a route whose coefficients are not finite certifies nothing
    pole = FunctionSpec(
        name="pole",
        derivative_fn=lambda order, xs: np.zeros_like(xs),
        poly=None,
        smoothness=get_function("exp").smoothness,
        route=lambda n: (np.full(n - 1, np.inf), 0.0),
    )
    with pytest.raises(ToleranceError) as raised:
        u_coefficients_numeric(pole, 6)
    assert str(raised.value).startswith("u_{6,k}(pole) is certified to inf")


def test_a_function_without_a_route_is_refused():
    bare = FunctionSpec("bare", get_function("exp").derivative_fn, None, get_function("exp").smoothness)
    with pytest.raises(ValueError, match="'bare' has no coefficient route"):
        u_coefficients_numeric(bare, 4)


def test_u_numeric_examples(monkeypatch):
    monkeypatch.setattr(gsops.quadrature, "COEFFICIENT_TOL", 1e-12)
    t2 = _with_route(get_function("t2"))
    got = u_coefficients_numeric(t2, 2)
    assert got == pytest.approx([0.0, 1 / 3, 1.0], abs=1e-12)

    one = _with_route(get_function("one"))
    assert u_coefficients_numeric(one, 7) == pytest.approx(np.ones(8), abs=1e-14)

    exp = get_function("exp")
    got = u_coefficients_numeric(exp, 3)
    # k=1 coefficient: 2 * integral of 2(1-t)(...)  -> (n-1) int P_{1,0} e^t = 2(e-2)
    assert got[1] == pytest.approx(2.0 * (math.e - 2.0), abs=1e-12)
    assert got[0] == 1.0 and got[3] == pytest.approx(math.e, abs=0.0)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 21, 40])
def test_u_numeric_matches_exact_for_polynomials(n, monkeypatch):
    # the route of a finite Taylor series against the exact engine's sum
    monkeypatch.setattr(gsops.quadrature, "COEFFICIENT_TOL", 1e-12)
    f = _with_route(polynomial_function("p8", [1, "-1/2", 0, 2, 0, 0, "1/3", 0, "-2/7"]))
    nums, den = u_coefficients_exact(f.poly, n)
    exact = [c / den for c in nums]
    got = u_coefficients_numeric(f, n)
    assert got == pytest.approx(exact, abs=1e-14)
    if n > 1:
        assert np.max(np.abs(got - exact)) <= f.route(n)[1]


@pytest.mark.parametrize("name", ["one", "t2", "exp", "sinpi", "abs52"])
def test_u_numeric_positivity(name):
    f = get_function(name)
    if f.poly is not None:
        f = _with_route(f)
    for n in (2, 5, 12):
        u = u_coefficients_numeric(f, n)
        assert np.all(u >= -1e-14)


def test_u_numeric_n1_endpoints_only(monkeypatch):
    exp = get_function("exp")
    assert u_coefficients_numeric(exp, 1) == pytest.approx([1.0, math.e], abs=0.0)
    # there is no interior coefficient to certify, so even tol 0 is met
    monkeypatch.setattr(gsops.quadrature, "COEFFICIENT_TOL", 0.0)
    assert u_coefficients_numeric(exp, 1).tolist() == [1.0, math.e]


def test_tolerance_error_states_the_routes_bound(monkeypatch):
    exp = get_function("exp")
    monkeypatch.setattr(gsops.quadrature, "COEFFICIENT_TOL", 0.0)
    with pytest.raises(ToleranceError) as raised:
        u_coefficients_numeric(exp, 4)
    assert str(raised.value) == f"u_{{4,k}}(exp) is certified to {exp.route(4)[1]:.3e}, not to tol=0"


# -- a Sweep of several functions ---------------------------------------------------


def _coarse() -> FunctionSpec:
    # exp cut after t^3, counting its tail: certified to about 0.05 only
    exp = get_function("exp")
    taylor = [1 / math.factorial(q) for q in range(4)]
    return FunctionSpec("coarse", exp.derivative_fn, None, exp.smoothness, entire_route(taylor, 0.05))


def test_failing_sibling_raises_only_from_its_own_call():
    from gsops.analysis import DEFAULT_GRID, Sweep

    exp, coarse = get_function("exp"), _coarse()
    with pytest.raises(ToleranceError) as lone:
        u_coefficients_numeric(coarse, 6)
    sweep = Sweep(DEFAULT_GRID)
    with pytest.raises(ToleranceError) as raised:
        sweep.U(coarse, 6)
    assert str(raised.value) == str(lone.value)
    assert not any(key[1] is coarse for key in sweep._values)
    assert sweep.U(exp, 6).coeffs.tobytes() == u_coefficients_numeric(exp, 6).tobytes()
    assert list(sweep._values) == [("U", exp, 6)]


def test_failing_sibling_in_a_sweep_raises_only_from_its_own_check():
    from gsops.analysis import DEFAULT_GRID, Sweep, check_direct

    exp, coarse = get_function("exp"), _coarse()
    sweep = Sweep(DEFAULT_GRID)
    with pytest.raises(ToleranceError, match=r"^u_\{2,k\}\(coarse\) is certified to"):
        check_direct(coarse, 2, sweep)
    assert not any(key[1] is coarse for key in sweep._values)
    assert check_direct(exp, 2, sweep) == check_direct(exp, 2, Sweep(DEFAULT_GRID))
