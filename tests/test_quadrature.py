"""Tests for the Gauss-Legendre rule and numeric operator coefficients."""

import math

import numpy as np
import pytest

from gsops.catalog import FunctionSpec, get_function, polynomial_function
from gsops.errors import IntegrationError, ToleranceError
from gsops.exactpoly import u_coefficients_exact
from gsops.quadrature import _gauss_legendre, _rule, u_coefficients_numeric

EPS = float(np.finfo(float).eps)


def test_the_24_point_rule():
    # the one rule of every panel: exact through degree 47, symmetric about
    # 1/2, positive weights that sum to 1, built once and read-only
    nodes, weights = _rule()
    assert _rule() is _rule()
    assert nodes.shape == weights.shape == (24,)
    assert not nodes.flags.writeable and not weights.flags.writeable
    assert np.all(np.diff(nodes) > 0) and np.all(weights > 0)
    assert abs(float(np.sum(weights)) - 1.0) <= 4 * 24 * EPS
    assert np.max(np.abs(nodes + nodes[::-1] - 1.0)) <= 4 * EPS
    assert np.max(np.abs(weights - weights[::-1])) <= 4 * EPS
    for d in range(48):
        got = float(np.dot(weights, nodes**d))
        assert abs(got - 1.0 / (d + 1)) <= 1e-13 / (d + 1)


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


def test_integrate_rejects_nonfinite():
    # finite at both endpoints, which are taken exactly, and infinite inside
    pole = FunctionSpec(
        name="pole",
        derivative_fn=lambda order, xs: np.where((xs > 0.0) & (xs < 1.0), np.inf, 0.0),
        poly=None,
        smoothness=get_function("exp").smoothness,
    )
    (got,) = u_coefficients_numeric([pole], 6, 1e-10)
    assert type(got) is IntegrationError and "non-finite" in str(got)


def test_u_numeric_examples():
    t2 = get_function("t2")
    got = u_coefficients_numeric([t2], 2, 1e-12)[0]
    assert got == pytest.approx([0.0, 1 / 3, 1.0], abs=1e-12)

    one = get_function("one")
    assert u_coefficients_numeric([one], 7, 1e-12)[0] == pytest.approx(np.ones(8), abs=1e-14)

    exp = get_function("exp")
    got = u_coefficients_numeric([exp], 3, 1e-12)[0]
    # k=1 coefficient: 2 * integral of 2(1-t)(...)  -> (n-1) int P_{1,0} e^t = 2(e-2)
    assert got[1] == pytest.approx(2.0 * (math.e - 2.0), abs=1e-12)
    assert got[0] == 1.0 and got[3] == pytest.approx(math.e, abs=0.0)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 21, 40])
def test_u_numeric_matches_exact_for_polynomials(n):
    f = polynomial_function("p8", [1, "-1/2", 0, 2, 0, 0, "1/3", 0, "-2/7"])
    exact = [float(c) for c in u_coefficients_exact(f.poly, n)]
    got = u_coefficients_numeric([f], n, 1e-12)[0]
    assert got == pytest.approx(exact, abs=1e-12)


@pytest.mark.parametrize("name", ["one", "t2", "exp", "sinpi", "abs52"])
def test_u_numeric_positivity(name):
    f = get_function(name)
    for n in (2, 5, 12):
        u = u_coefficients_numeric([f], n, 1e-10)[0]
        assert np.all(u >= -1e-14)


def test_u_numeric_n1_endpoints_only():
    exp = get_function("exp")
    assert u_coefficients_numeric([exp], 1, 1e-10)[0] == pytest.approx([1.0, math.e], abs=0.0)


def test_tolerance_error_carries_best_estimate():
    exp = get_function("exp")
    err = u_coefficients_numeric([exp], 4, 0.0)[0]
    assert type(err) is ToleranceError
    assert err.best is not None and len(err.best) == 5
    assert err.best[1] == pytest.approx(u_coefficients_numeric([exp], 4, 1e-12)[0][1], abs=1e-12)
    assert err.achieved is not None


# -- one basis per panel count, shared by the functions of a call ------------------


@pytest.mark.parametrize("n", [2, 64, 256])
def test_batched_coefficients_equal_lone_calls(n):
    specs = [get_function(name) for name in ("exp", "sinpi", "abs52")]
    batched = u_coefficients_numeric(specs, n, 1e-10)
    assert isinstance(batched, list) and len(batched) == 3
    for f, got in zip(specs, batched):
        assert got.tobytes() == u_coefficients_numeric([f], n, 1e-10)[0].tobytes()
    assert u_coefficients_numeric(tuple(specs), n, 1e-10)[1].tobytes() == batched[1].tobytes()


def _pole() -> FunctionSpec:
    # finite at both endpoints, which are taken exactly, and infinite inside
    return FunctionSpec(
        name="pole",
        derivative_fn=lambda order, xs: np.where((xs > 0.0) & (xs < 1.0), np.inf, 0.0),
        poly=None,
        smoothness=get_function("exp").smoothness,
    )


def test_failing_sibling_raises_only_from_its_own_call():
    exp, pole = get_function("exp"), _pole()
    got_exp, got_pole = u_coefficients_numeric([exp, pole], 6, 1e-10)
    assert got_exp.tobytes() == u_coefficients_numeric([exp], 6, 1e-10)[0].tobytes()
    lone = u_coefficients_numeric([pole], 6, 1e-10)[0]
    assert type(got_pole) is type(lone) is IntegrationError
    assert str(got_pole) == str(lone)
    # a Sweep raises the error from the failing function's call alone
    from gsops.analysis import DEFAULT_GRID, Sweep

    sweep = Sweep([exp, pole], DEFAULT_GRID, 1e-10)
    with pytest.raises(IntegrationError) as raised:
        sweep.U(pole, 6)
    assert str(raised.value) == str(lone)
    assert sweep.U(exp, 6).coeffs.tobytes() == got_exp.tobytes()
    # a function outside the sweep's fs is a batch of one: the same bits,
    # the lone error, and nothing stored for it
    assert Sweep([], DEFAULT_GRID, 1e-10).U(exp, 6).coeffs.tobytes() == got_exp.tobytes()
    sweep = Sweep([exp], DEFAULT_GRID, 1e-10)
    with pytest.raises(IntegrationError) as raised:
        sweep.U(pole, 6)
    assert str(raised.value) == str(lone)
    assert not any(key[1] is pole for key in sweep._values)


def test_failing_sibling_in_a_sweep_raises_only_from_its_own_check():
    from gsops.analysis import DEFAULT_GRID, Sweep, check_direct

    exp, pole = get_function("exp"), _pole()
    sweep = Sweep([exp, pole], DEFAULT_GRID, 1e-10)
    assert check_direct(exp, 2, sweep) == check_direct(exp, 2, Sweep([exp], DEFAULT_GRID, 1e-10))
    assert not any(key[1] is pole for key in sweep._values)
    with pytest.raises(IntegrationError, match="'pole' non-finite"):
        check_direct(pole, 2, sweep)
    # the other way round, exp is stored although the call that computed it raised
    sweep = Sweep([pole, exp], DEFAULT_GRID, 1e-10)
    with pytest.raises(IntegrationError, match="'pole' non-finite"):
        check_direct(pole, 2, sweep)
    assert list(sweep._values) == [("U", exp, 2)]


def test_batched_tolerance_error_is_the_lone_one():
    exp, abs52 = get_function("exp"), get_function("abs52")
    got_exp, got_abs = u_coefficients_numeric([exp, abs52], 4, 0.0)
    lone = u_coefficients_numeric([abs52], 4, 0.0)[0]
    assert type(got_abs) is type(lone) is ToleranceError and str(got_abs) == str(lone)
    assert got_abs.best.tobytes() == lone.best.tobytes()
    assert type(got_exp) is ToleranceError
    # n = 1 takes the endpoints only, so even tol 0 closes at once
    assert [u.tolist() for u in u_coefficients_numeric([exp, abs52], 1, 0.0)] == [
        u_coefficients_numeric([exp], 1, 0.0)[0].tolist(),
        u_coefficients_numeric([abs52], 1, 0.0)[0].tolist(),
    ]
