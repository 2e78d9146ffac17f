"""Tests for the function catalog: derivatives, flags, and consistency."""

import math

import numpy as np
import pytest

from gsops.catalog import MAX_DERIVATIVE_ORDER, catalog_names, get_function, polynomial_function

REQUIRED = {"one", "t", "t2", "t3", "t5mt2", "exp", "sinpi", "abs52"}

# grid of 50 interior points avoiding the abs52 kink at 1/2
CHECK_POINTS = np.array([(i + 0.5) / 50 for i in range(50)])
FD_STEP = 1e-5


def test_catalog_contents():
    assert REQUIRED <= set(catalog_names())
    with pytest.raises(ValueError):
        get_function("nope")


def test_eval_is_zeroth_derivative():
    for name in catalog_names():
        f = get_function(name)
        xs = np.linspace(0.0, 1.0, 17)
        assert f.eval(xs) == pytest.approx(f.derivative(0, xs), abs=0.0)
        assert isinstance(f.eval(0.3), float)


def test_specific_values():
    assert get_function("t5mt2").eval(0.5) == pytest.approx(0.5**5 - 0.25, abs=1e-16)
    assert get_function("exp").derivative(4, 1.0) == pytest.approx(math.e, abs=0.0)
    assert get_function("sinpi").derivative(1, 0.0) == pytest.approx(math.pi, abs=1e-15)
    assert get_function("abs52").eval(0.75) == pytest.approx(0.25**2.5, abs=1e-16)
    assert get_function("abs52").derivative(2, 0.25) == pytest.approx(3.75 * 0.5, rel=1e-14)


@pytest.mark.parametrize("name", sorted(REQUIRED))
def test_derivative_finite_difference_consistency(name):
    # derivative(j) against the centered difference of derivative(j-1);
    # relative error floored at scale 1 so zero crossings do not blow it up
    f = get_function(name)
    orders = range(1, MAX_DERIVATIVE_ORDER + 1)
    for j in orders:
        d = f.derivative(j, CHECK_POINTS)
        up = f.derivative(j - 1, CHECK_POINTS + FD_STEP)
        dn = f.derivative(j - 1, CHECK_POINTS - FD_STEP)
        fd = (up - dn) / (2 * FD_STEP)
        if not np.all(np.isfinite(d)):
            continue  # orders past the kink function's smoothness
        scale = np.maximum(np.abs(d), 1.0)
        assert np.max(np.abs(fd - d) / scale) <= 1e-5, (name, j)


def test_derivative_order_bounds():
    f = get_function("exp")
    with pytest.raises(ValueError):
        f.derivative(7, 0.5)
    with pytest.raises(ValueError):
        f.derivative(-1, 0.5)


def test_polynomial_entries_carry_exact_forms():
    for name in ("one", "t", "t2", "t3", "t5mt2"):
        f = get_function(name)
        assert f.poly is not None
        assert f.polynomial_degree == max(f.poly.degree, 0)
        xs = np.linspace(0.0, 1.0, 11)
        assert f.eval(xs) == pytest.approx(f.poly.eval_float(xs), abs=0.0)


def test_transcendental_entries_have_no_poly():
    for name in ("exp", "sinpi", "abs52"):
        f = get_function(name)
        assert f.poly is None and f.polynomial_degree is None


def test_smoothness_flags():
    for name in ("one", "t", "t2", "t3", "t5mt2", "exp", "sinpi"):
        s = get_function(name).smoothness
        assert s.w2 and s.w20 and s.dtilde_w2 and s.dtilde_w20 and s.d3_bounded
    s = get_function("abs52").smoothness
    assert s.w2 and s.w20
    assert not (s.dtilde_w2 or s.dtilde_w20 or s.d3_bounded)


def test_polynomial_function_builder():
    f = polynomial_function("q", ["1/2", 0, -1])
    assert f.polynomial_degree == 2
    assert f.eval(1.0) == pytest.approx(-0.5, abs=0.0)
    assert f.derivative(2, 0.3) == pytest.approx(-2.0, abs=0.0)
