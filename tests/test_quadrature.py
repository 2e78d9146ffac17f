"""Tests for the Gauss-Legendre rules and numeric operator coefficients."""

import math

import numpy as np
import pytest

from gsops.catalog import FunctionSpec, get_function, polynomial_function
from gsops.errors import IntegrationError, ToleranceError
from gsops.exactpoly import u_coefficients_exact
from gsops.quadrature import gauss_legendre, u_coefficients_numeric

EPS = float(np.finfo(float).eps)


def test_midpoint_rule():
    rule = gauss_legendre(1)
    assert rule.nodes == pytest.approx([0.5], abs=1e-16)
    assert rule.weights == pytest.approx([1.0], abs=1e-15)
    assert rule.exactness == 1


def test_two_point_rule_textbook():
    rule = gauss_legendre(2)
    r = 1.0 / math.sqrt(3.0)
    assert rule.nodes == pytest.approx([(1 - r) / 2, (1 + r) / 2], abs=1e-15)
    assert rule.weights == pytest.approx([0.5, 0.5], abs=1e-15)


def test_five_point_integrates_x9():
    rule = gauss_legendre(5)
    got = float(rule.weights @ rule.nodes**9)
    assert abs(got - 0.1) <= 1e-14  # exact value 1/10


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 8, 13, 20, 64, 128, 512])
def test_rule_structure(m):
    rule = gauss_legendre(m)
    assert rule.nodes.shape == (m,) and rule.weights.shape == (m,)
    assert np.all(np.diff(rule.nodes) > 0)
    assert np.all(rule.weights > 0)
    assert abs(float(np.sum(rule.weights)) - 1.0) <= 4 * m * EPS
    # symmetry about 1/2
    assert np.max(np.abs(rule.nodes + rule.nodes[::-1] - 1.0)) <= 4 * EPS
    assert np.max(np.abs(rule.weights - rule.weights[::-1])) <= 4 * EPS


@pytest.mark.parametrize("m", [1, 2, 3, 5, 9, 16, 33])
def test_exactness_all_monomials(m):
    rule = gauss_legendre(m)
    for d in range(2 * m):
        got = float(np.dot(rule.weights, rule.nodes**d))
        assert abs(got - 1.0 / (d + 1)) <= 1e-13 / (d + 1)


@pytest.mark.parametrize("m", [2, 7, 31, 100, 257])
def test_against_numpy_leggauss(m):
    # independent oracle: numpy's Gauss-Legendre, mapped to [0,1]; the
    # smallest edge weights agree relatively (both routes round differently)
    x, w = np.polynomial.legendre.leggauss(m)
    rule = gauss_legendre(m)
    assert rule.nodes == pytest.approx((x + 1) / 2, abs=5e-15)
    assert rule.weights == pytest.approx(w / 2, rel=1e-9)


@pytest.mark.parametrize("m", [128, 512])
def test_exactness_sampled_degrees_large_rules(m):
    rule = gauss_legendre(m)
    for d in (0, 1, 3, 17, 100, 255, 2 * m - 1):
        got = float(np.dot(rule.weights, rule.nodes**d))
        assert abs(got - 1.0 / (d + 1)) <= 1e-13 / (d + 1)


def test_rule_size_domain():
    with pytest.raises(ValueError):
        gauss_legendre(0)
    with pytest.raises(ValueError):
        gauss_legendre(513)


def test_integrate_examples():
    rule = gauss_legendre(4)
    assert float(rule.weights @ np.ones_like(rule.nodes)) == pytest.approx(1.0, abs=1e-15)
    rule = gauss_legendre(2)
    assert float(rule.weights @ rule.nodes**2) == pytest.approx(1 / 3, abs=1e-15)
    rule = gauss_legendre(16)
    got = float(rule.weights @ np.exp(rule.nodes))
    assert abs(got - (math.e - 1.0)) <= 1e-13


def test_integrate_rejects_nonfinite():
    # finite at both endpoints, which are taken exactly, and infinite inside
    pole = FunctionSpec(
        name="pole",
        derivative_fn=lambda order, xs: np.where((xs > 0.0) & (xs < 1.0), np.inf, 0.0),
        poly=None,
        smoothness=get_function("exp").smoothness,
    )
    with pytest.raises(IntegrationError, match="non-finite"):
        u_coefficients_numeric(pole, 6, 1e-10)


def test_u_numeric_examples():
    t2 = get_function("t2")
    got = u_coefficients_numeric(t2, 2, 1e-12)
    assert got == pytest.approx([0.0, 1 / 3, 1.0], abs=1e-12)

    one = get_function("one")
    assert u_coefficients_numeric(one, 7, 1e-12) == pytest.approx(np.ones(8), abs=1e-14)

    exp = get_function("exp")
    got = u_coefficients_numeric(exp, 3, 1e-12)
    # k=1 coefficient: 2 * integral of 2(1-t)(...)  -> (n-1) int P_{1,0} e^t = 2(e-2)
    assert got[1] == pytest.approx(2.0 * (math.e - 2.0), abs=1e-12)
    assert got[0] == 1.0 and got[3] == pytest.approx(math.e, abs=0.0)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 21, 40])
def test_u_numeric_matches_exact_for_polynomials(n):
    f = polynomial_function("p8", [1, "-1/2", 0, 2, 0, 0, "1/3", 0, "-2/7"])
    exact = [float(c) for c in u_coefficients_exact(f.poly, n)]
    got = u_coefficients_numeric(f, n, 1e-12)
    assert got == pytest.approx(exact, abs=1e-12)


@pytest.mark.parametrize("name", ["one", "t2", "exp", "sinpi", "abs52"])
def test_u_numeric_positivity(name):
    f = get_function(name)
    for n in (2, 5, 12):
        u = u_coefficients_numeric(f, n, 1e-10)
        assert np.all(u >= -1e-14)


def test_u_numeric_n1_endpoints_only():
    exp = get_function("exp")
    assert u_coefficients_numeric(exp, 1, 1e-10) == pytest.approx([1.0, math.e], abs=0.0)


def test_tolerance_error_carries_best_estimate():
    exp = get_function("exp")
    with pytest.raises(ToleranceError) as exc_info:
        u_coefficients_numeric(exp, 4, 0.0)
    err = exc_info.value
    assert err.best is not None and len(err.best) == 5
    assert err.best[1] == pytest.approx(u_coefficients_numeric(exp, 4, 1e-12)[1], abs=1e-12)
    assert err.achieved is not None
