"""Tests for the floating-point operator pipeline."""

import math
from fractions import Fraction

import numpy as np
import pytest

from gsops.basis import bernstein_matrix, t_matrix
from gsops.catalog import get_function, polynomial_function
from gsops.exactpoly import (
    PHI,
    RationalPoly,
    _dtilde_bernstein,
    apply_Utilde_exact,
    dtilde_exact,
    u_coefficients_exact,
)
from gsops.operators import (
    BernsteinForm,
    apply_Utilde_to_form,
    dtilde_coefficient_map,
    dtilde_form,
    dtilde_of_function,
    dtilde_power_terms,
    u_coefficient_matrix,
    utilde_from_u,
)

from helpers import bernstein_form_from_poly, sweep_U

EPS = float(np.finfo(float).eps)
GRID = np.linspace(0.0, 1.0, 2001)
T2 = RationalPoly([0, 0, 1])


def utilde_of_poly(q: RationalPoly, n: int) -> BernsteinForm:
    """Float Utilde_n applied to an exact polynomial (test helper)."""
    nums, den = u_coefficients_exact(q, n)
    u = np.array([c / den for c in nums])
    p = BernsteinForm(n, u)
    return p - dtilde_form(p).scale(1.0 / n)


def sup_on_grid(fn) -> float:
    return float(np.max(np.abs(fn(GRID))))


# -- BernsteinForm ------------------------------------------------------------


def test_form_eval_against_binomial_formula():
    rng = np.random.default_rng(7)
    c = rng.normal(size=6)
    form = BernsteinForm(5, c)
    xs = rng.uniform(0, 1, size=40)
    B = np.array([[math.comb(5, k) * x**k * (1 - x) ** (5 - k) for k in range(6)] for x in xs])
    assert form.eval(xs) == pytest.approx(B @ c, abs=1e-14)


def test_form_endpoint_interpolation():
    form = BernsteinForm(4, [3.0, -1.0, 0.5, 2.0, -7.0])
    assert form.eval(0.0) == 3.0
    assert form.eval(1.0) == -7.0


def test_form_arithmetic_and_json():
    a = BernsteinForm(2, [1.0, 2.0, 3.0])
    b = BernsteinForm(2, [0.5, 0.5, 0.5])
    assert (a - b).coeffs == pytest.approx([0.5, 1.5, 2.5])
    assert a.scale(2.0).coeffs == pytest.approx([2.0, 4.0, 6.0])
    round_trip = BernsteinForm.from_json_dict({"degree": 2, "coeffs": [1.0, 2.0, 3.0]})
    assert round_trip.n == a.n and round_trip.coeffs == pytest.approx(a.coeffs, abs=0.0)
    with pytest.raises(ValueError):
        a - BernsteinForm(3, [0, 0, 0, 0])
    with pytest.raises(ValueError):
        BernsteinForm(2, [1.0])


# -- dtilde_form ---------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 10, 64])
def test_dtilde_annihilates_linears(n):
    c = 0.25 + 0.5 * np.arange(n + 1) / max(n, 1)  # affine in k -> a linear polynomial
    out = dtilde_form(BernsteinForm(n, c))
    assert np.max(np.abs(out.coeffs)) <= 8 * n * EPS * np.max(np.abs(c))


@pytest.mark.parametrize("n", [0, 1, 2, 7, 64])
def test_dtilde_coefficient_map_rows_map_alone(n):
    stack = np.random.default_rng(n).normal(size=(3, 5, n + 1))
    out = dtilde_coefficient_map(stack)
    assert out.shape == stack.shape
    for index in np.ndindex(stack.shape[:-1]):
        assert np.array_equal(out[index], dtilde_coefficient_map(stack[index]))


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 20, 64])
def test_dtilde_coefficient_map_is_the_exact_formula(n):
    # on small integers every float step is exact, so the map and the exact
    # engine's j(n-j)(c_{j-1} - 2c_j + c_{j+1}) agree bit for bit, alone and
    # in a stack
    stack = np.random.default_rng(n).integers(-1000, 1000, size=(2, 3, n + 1))
    out = dtilde_coefficient_map(stack.astype(float))
    for index in np.ndindex(stack.shape[:-1]):
        exact = np.array(_dtilde_bernstein(stack[index].tolist()), dtype=float)
        assert out[index].tobytes() == exact.tobytes()
        assert dtilde_coefficient_map(stack[index].astype(float)).tobytes() == exact.tobytes()


def test_dtilde_form_t2_example():
    p = bernstein_form_from_poly(T2, 2)
    d = dtilde_form(p)
    assert d.eval(0.25) == pytest.approx(0.375, abs=1e-15)  # 2 phi at 1/4
    # against the exact engine
    exact = dtilde_exact(T2)
    assert sup_on_grid(lambda t: d.eval(t) - exact.eval_float(t)) <= 1e-14


@pytest.mark.parametrize("n", [2, 3, 7, 20])
def test_dtilde_form_eigen_relation(n):
    # unit coefficient vector k: Dtilde form evaluates to T_{n,k} * P_{n,k}
    xs = np.linspace(0.07, 0.93, 29)
    B = bernstein_matrix(n, xs)
    for k in range(n + 1):
        e = np.zeros(n + 1)
        e[k] = 1.0
        d = dtilde_form(BernsteinForm(n, e))
        expected = t_matrix(n, xs)[:, k] * B[:, k]
        assert d.eval(xs) == pytest.approx(expected, abs=1e-10 * n**2)


# -- U_n f, as Sweep.U builds it ----------------------------------------------


def test_apply_U_reproduces_linears():
    t = get_function("t")
    p = sweep_U(t, 9)
    assert p.coeffs == pytest.approx(np.arange(10) / 9, abs=1e-16)
    assert sup_on_grid(lambda x: p.eval(x) - x) <= 1e-12


def test_apply_U_constant():
    one = get_function("one")
    assert sweep_U(one, 6).coeffs == pytest.approx(np.ones(7), abs=0.0)


def test_apply_U_t2_value():
    p = sweep_U(get_function("t2"), 2)
    assert p.eval(0.5) == pytest.approx(5.0 / 12.0, abs=1e-15)


def test_apply_U_transcendental_matches_quadrature_route():
    exp = get_function("exp")
    p = sweep_U(exp, 5)
    assert p.eval(0.0) == 1.0 and p.eval(1.0) == pytest.approx(math.e, abs=0.0)


# -- Utilde_n f, as utilde_from_u(sweep_U(f, n)) ------------------------------


def test_apply_Utilde_fixes_linears():
    t = get_function("t")
    for n in (1, 2, 5, 50, 100):
        p = utilde_from_u(sweep_U(t, n))
        assert sup_on_grid(lambda x: p.eval(x) - x) <= 1e-12


def test_apply_Utilde_t2_n3():
    p = utilde_from_u(sweep_U(get_function("t2"), 3))
    assert p.eval(0.5) == pytest.approx(0.25 + 0.25 / 6.0, abs=1e-14)


@pytest.mark.parametrize("name", ["t2", "t3", "t5mt2"])
@pytest.mark.parametrize("n", [2, 3, 8, 17])
def test_apply_Utilde_matches_exact_oracle(name, n):
    f = get_function(name)
    p = utilde_from_u(sweep_U(f, n))
    exact = apply_Utilde_exact(f.poly, n)
    assert sup_on_grid(lambda t: p.eval(t) - exact.eval_float(t)) <= 1e-10


def test_apply_Utilde_exp_jackson_scale():
    # sup distance to a dense reference stays below the Jackson bound
    exp = get_function("exp")
    p = utilde_from_u(sweep_U(exp, 4))
    dense = np.linspace(0.0, 1.0, 1_000_001)
    dist = float(np.max(np.abs(p.eval(dense) - np.exp(dense))))
    d2 = dtilde_of_function(exp, 2)
    bound = float(np.max(np.abs(d2(dense)))) / 16.0
    assert dist <= bound


@pytest.mark.parametrize("name", ["t", "t2", "t3", "t5mt2", "exp", "sinpi"])
@pytest.mark.parametrize("n", [4, 8, 16, 32, 64])
def test_contraction_toward_f(name, n):
    # || Utilde_n f - f || <= (2/n) || Dtilde f ||
    f = get_function(name)
    p = utilde_from_u(sweep_U(f, n))
    lhs = sup_on_grid(lambda x: p.eval(x) - f.eval(x))
    d1 = dtilde_of_function(f, 1)
    rhs = 2.0 / n * sup_on_grid(d1)
    assert lhs <= rhs * (1 + 1e-9) + 1e-12


# -- endpoint interpolation ------------------------------------------------------


@pytest.mark.parametrize("name", ["t2", "t5mt2", "exp", "sinpi", "abs52"])
@pytest.mark.parametrize("n", [2, 9, 41, 100])
def test_endpoint_interpolation(name, n):
    f = get_function(name)
    pu = sweep_U(f, n)
    for p in (pu, utilde_from_u(pu)):
        assert abs(p.eval(0.0) - f.eval(0.0)) <= 1e-12
        assert abs(p.eval(1.0) - f.eval(1.0)) <= 1e-12


# -- commutation (float) ---------------------------------------------------------


@pytest.mark.parametrize("name", ["t2", "t3", "t5mt2"])
@pytest.mark.parametrize("n", [2, 5, 11, 23, 40])
def test_commutation_float(name, n):
    f = get_function(name)
    left = dtilde_form(utilde_from_u(sweep_U(f, n)))
    right = utilde_of_poly(dtilde_exact(f.poly), n)
    normf = sup_on_grid(f.eval)
    dev = sup_on_grid(lambda x: left.eval(x) - right.eval(x))
    assert dev <= 1e-8 * n**2 * normf


# -- iteration --------------------------------------------------------------------


def test_iterate_matches_exact_composition():
    # float Utilde_2(Utilde_2 t^2) against the exact-engine composition
    f = get_function("t2")
    got = apply_Utilde_to_form(utilde_from_u(sweep_U(f, 2)), 2)
    inner = apply_Utilde_exact(T2, 2)
    outer = apply_Utilde_exact(inner, 2)
    assert sup_on_grid(lambda t: got.eval(t) - outer.eval_float(t)) <= 1e-10


@pytest.mark.parametrize("name", ["sinpi", "t5mt2"])
@pytest.mark.parametrize("n", [3, 8])
def test_triple_iterate_norm_bound(name, n):
    f = get_function(name)
    p = apply_Utilde_to_form(apply_Utilde_to_form(utilde_from_u(sweep_U(f, n)), n), n)
    lhs = sup_on_grid(p.eval)
    rhs = 3.0 * math.sqrt(3.0) * sup_on_grid(f.eval)
    assert lhs <= rhs * (1 + 1e-9) + 1e-12


# -- form-operand path -------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 4, 9])
def test_apply_U_to_form_matches_exact(n):
    # operand of a different degree than the operator index
    q = RationalPoly([1, -2, 0, "3/2", 0, 1])
    form = bernstein_form_from_poly(q, q.degree)
    got = u_coefficient_matrix(n, form.n) @ form.coeffs
    nums, den = u_coefficients_exact(q, n)
    exact = [c / den for c in nums]
    assert got == pytest.approx(exact, abs=1e-13)


def test_apply_Utilde_to_form_matches_exact():
    q = RationalPoly([0, 0, 1, 2])
    form = bernstein_form_from_poly(q, 3)
    got = apply_Utilde_to_form(form, 4)
    exact = apply_Utilde_exact(q, 4)
    assert sup_on_grid(lambda t: got.eval(t) - exact.eval_float(t)) <= 1e-12


def test_u_coefficient_matrix_rows():
    A = u_coefficient_matrix(3, 5)
    assert A.shape == (4, 6)
    assert A[0] == pytest.approx([1, 0, 0, 0, 0, 0], abs=0.0)
    assert A[3] == pytest.approx([0, 0, 0, 0, 0, 1], abs=0.0)
    # interior row sums to 1: u_{n,k}(1) = 1
    assert float(np.sum(A[1])) == pytest.approx(1.0, abs=1e-15)


def u_coefficient_matrix_fraction(n: int, N: int) -> np.ndarray:
    """Oracle: each Beta-product entry as one exact Fraction, rounded to float."""
    A = np.zeros((n + 1, N + 1))
    A[0, 0] = 1.0
    A[n, N] = 1.0
    for k in range(1, n):
        for j in range(N + 1):
            val = Fraction(
                (n - 1) * math.comb(n - 2, k - 1) * math.comb(N, j),
                math.comb(n - 2 + N, k - 1 + j) * (n - 1 + N),
            )
            A[k, j] = float(val)
    return A


@pytest.mark.parametrize(
    "n, N",
    # odd n among them: the rows past n/2 are mirror images of the first
    [(1, 0), (1, 4), (2, 0), (2, 2), (2, 9), (3, 40), (40, 3), (7, 3), (16, 16), (64, 64), (128, 128), (255, 128)],
)
def test_u_coefficient_matrix_matches_fraction_oracle(n, N):
    A = u_coefficient_matrix(n, N)
    assert np.array_equal(A, u_coefficient_matrix_fraction(n, N))
    assert not A.flags.writeable
    # still one lru_cache: a repeated call is a hit and returns the same array
    hits = u_coefficient_matrix.cache_info().hits
    assert u_coefficient_matrix(n, N) is A
    assert u_coefficient_matrix.cache_info().hits == hits + 1


# -- symbolic Dtilde powers ----------------------------------------------------------


def test_dtilde_power_terms_first_order():
    terms = dict(dtilde_power_terms(1))
    assert set(terms) == {2}
    assert terms[2] == PHI


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_dtilde_power_matches_exact_engine_on_polynomials(ell):
    q = RationalPoly([0, 1, -1, "1/3", 2])
    exact = q
    for _ in range(ell):
        exact = dtilde_exact(exact)
    f = polynomial_function("q", list(q.coeffs))
    fn = dtilde_of_function(f, ell)
    assert sup_on_grid(lambda t: fn(t) - exact.eval_float(t)) <= 1e-11


def test_dtilde_of_function_order_guard():
    with pytest.raises(ValueError):
        dtilde_of_function(get_function("exp"), 4)  # needs order 8 > 6
