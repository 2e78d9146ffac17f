"""Tests for the Bernstein basis layer, T functions, moments and tail sums."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsops.basis import (
    bernstein_matrix,
    moment,
    phi_big,
    t_matrix,
    tail_sums,
    xi_zero,
)

EPS = float(np.finfo(float).eps)


# -- independent oracles ------------------------------------------------------


def basis_binomial(n: int, k: int, x: float) -> float:
    """Naive binomial-times-powers formula (test oracle only)."""
    return math.comb(n, k) * x**k * (1.0 - x) ** (n - k)


def basis_at(n: int, x: float) -> np.ndarray:
    """All P_{n,k}(x), k = 0..n, at one point."""
    return bernstein_matrix(n, [x])[0]


def t_centered(n: int, k: int, x: float) -> float:
    """The centered-moment form of T_{n,k}, an algebraic rewriting (test oracle only).

    n * [-1 - (1-2x)/phi * (k/n - x) + n/phi * (k/n - x)^2] for 0 < x < 1.
    """
    phi = x * (1.0 - x)
    u = k / n - x
    return n * (-1.0 - (1.0 - 2.0 * x) / phi * u + n / phi * u * u)


def t_value_exact(n: int, k: int, x: Fraction, order: int) -> Fraction:
    """T_{n,k}, T'_{n,k} or T''_{n,k} at a rational interior x, exactly (test oracle only)."""
    a, b = k * (k - 1), (n - k) * (n - k - 1)
    if order == 0:
        return a * (1 - x) / x - 2 * k * (n - k) + b * x / (1 - x)
    if order == 1:
        return -a / x**2 + b / (1 - x) ** 2
    return 2 * a / x**3 + 2 * b / (1 - x) ** 3


def moment_bruteforce(n: int, i: int, x: float) -> float:
    vals = basis_at(n, x)
    k = np.arange(n + 1)
    return float(np.sum((k / n - x) ** i * vals))


def bisect_t_prime_zero(n: int, k: int) -> float:
    """Root of T'_{n,k} (t_matrix order 1) by bisection; T' is strictly increasing (T'' > 0)."""

    def t_prime(x: float) -> float:
        return float(t_matrix(n, [x], 1)[0, k])

    lo, hi = (k - 1) / n, (k + 1) / n
    assert t_prime(lo) < 0 < t_prime(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if t_prime(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def tail_sums_reference(n: int, cutoff: int = 500_000) -> tuple[float, float]:
    """The literal direct-summation route with midpoint bracket correction.

    Sums terms up to the cutoff and adds the midpoint of the telescoping
    brackets; the half-width error is ~1/(2*cutoff^3), far below 1e-14*lambda.
    """
    lam = math.fsum(1.0 / (k * k * (k + 1)) for k in range(n, cutoff))
    th = math.fsum(1.0 / (k * k * (k + 1) ** 2) for k in range(n, cutoff))
    K = float(cutoff)
    lam += 0.5 * (1.0 / (2 * K * (K + 1)) + 1.0 / (2 * K * (K - 1)))
    th += 0.5 * (1.0 / (3 * K * (K + 1) * (K + 2)) + 1.0 / (3 * (K - 1) * K * (K + 1)))
    return lam, th


# -- basis at one point --------------------------------------------------------


def test_linear_basis():
    assert basis_at(1, 0.3) == pytest.approx([0.7, 0.3], abs=1e-15)


def test_endpoint_degeneracy_exact():
    assert list(basis_at(4, 0.0)) == [1.0, 0.0, 0.0, 0.0, 0.0]
    assert list(basis_at(4, 1.0)) == [0.0, 0.0, 0.0, 0.0, 1.0]
    # zeros occur exactly and only in the endpoint pattern
    assert np.all(basis_at(6, 0.37) > 0.0)


def test_against_binomial_formula_at_half():
    # x = 0.5 is exactly representable; direct binomial formula is the oracle
    expected = [basis_binomial(4, k, 0.5) for k in range(5)]
    assert expected == pytest.approx([1 / 16, 4 / 16, 6 / 16, 4 / 16, 1 / 16], abs=0.0)
    assert basis_at(4, 0.5) == pytest.approx(expected, abs=1e-16)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 31, 64, 127, 256, 500])
def test_partition_of_unity(n):
    xs = np.linspace(0.0, 1.0, 1000)
    sums = np.sum(bernstein_matrix(n, xs), axis=1)
    assert np.max(np.abs(sums - 1.0)) <= 8 * n * EPS


@pytest.mark.parametrize("n", [2, 7, 20, 50])
def test_derivative_identity_finite_difference(n):
    # P'_{n,k} = n (P_{n-1,k-1} - P_{n-1,k}) against a centered difference
    rng = np.random.default_rng(1234)
    h = 1e-6
    xs = rng.uniform(2 * h, 1.0 - 2 * h, size=200)
    up = bernstein_matrix(n, xs + h)
    dn = bernstein_matrix(n, xs - h)
    fd = (up - dn) / (2 * h)
    lower = bernstein_matrix(n - 1, xs)
    for k in range(n + 1):
        left = lower[:, k - 1] if k >= 1 else 0.0
        right = lower[:, k] if k <= n - 1 else 0.0
        exact = n * (left - right)
        assert np.max(np.abs(fd[:, k] - exact)) <= 1e-6


@pytest.mark.parametrize("n", [2, 3, 10, 40, 100])
def test_eigen_relation_phi_second_derivative(n):
    # phi * P''_{n,k} (P'' from the degree-lowered second difference) equals
    # T_{n,k} * P_{n,k}; deviation normalized by the absolute-term sum of T
    # times P, the natural magnitude scale (T itself crosses zero).
    xs = np.linspace(0.013, 0.987, 41)
    B = bernstein_matrix(n, xs)
    B2 = bernstein_matrix(n - 2, xs) if n >= 2 else None
    for k in range(n + 1):
        acc = np.zeros_like(xs)
        if k >= 2:
            acc += B2[:, k - 2]
        if 1 <= k <= n - 1:
            acc -= 2 * B2[:, k - 1]
        if k <= n - 2:
            acc += B2[:, k]
        lhs = xs * (1 - xs) * n * (n - 1) * acc
        t = t_matrix(n, xs)[:, k]
        tbar = (
            k * (k - 1) * (1 - xs) / xs
            + 2 * k * (n - k)
            + (n - k) * (n - k - 1) * xs / (1 - xs)
        )
        mask = B[:, k] > 1e-30
        dev = np.abs(lhs - t * B[:, k]) / (tbar * B[:, k] + 1e-300)
        assert np.max(dev[mask]) <= 1e-10


def test_bernstein_domain_errors():
    with pytest.raises(ValueError):
        basis_at(3, -0.1)
    with pytest.raises(ValueError):
        basis_at(3, 1.1)
    with pytest.raises(ValueError):
        bernstein_matrix(-1, [0.5])


@pytest.mark.parametrize("xs", [[0.2, math.nan], [math.nan], [0.0, math.nan, 1.0]])
def test_bernstein_matrix_rejects_nan_points(xs):
    # a NaN point is not in [0, 1]; min/max comparisons with NaN are all false
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        bernstein_matrix(3, xs)


@given(st.integers(min_value=0, max_value=80), st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=60, deadline=None)
def test_basis_nonnegative_and_normalized(n, x):
    vals = basis_at(n, x)
    assert np.all(vals >= 0.0)
    assert abs(float(np.sum(vals)) - 1.0) <= 8 * max(n, 1) * EPS


# -- T functions --------------------------------------------------------------


def test_t_value_examples():
    assert list(t_matrix(2, [0.5])[0]) == [2.0, -2.0, 2.0]


def test_t_singular_endpoints_refused():
    for order in (0, 1, 2):
        with pytest.raises(ValueError):
            t_matrix(6, [0.0], order)
        with pytest.raises(ValueError):
            t_matrix(6, [1.0], order)


@pytest.mark.parametrize("n", [2, 5, 17, 60, 200])
def test_t_forms_agree(n):
    rng = np.random.default_rng(n)
    xs = rng.uniform(0.01, 0.99, size=25)
    for k in range(n + 1):
        for x in xs:
            t1 = t_matrix(n, [x])[0, k]
            t2 = t_centered(n, k, float(x))
            tbar = (
                k * (k - 1) * (1 - x) / x
                + 2 * k * (n - k)
                + (n - k) * (n - k - 1) * x / (1 - x)
            )
            assert abs(t1 - t2) <= 1e-10 * (tbar + 1.0)


@pytest.mark.parametrize("n", [3, 8, 25])
def test_sum_t_times_basis_vanishes(n):
    # Dtilde annihilates the partition of unity, so sum_k T P = 0
    for x in (0.123, 0.5, 0.87):
        vals = basis_at(n, x)
        total = float(np.dot(t_matrix(n, [x])[0], vals))
        assert abs(total) <= 1e-10 * n**2


@pytest.mark.parametrize("n", [1, 2, 7, 40])
def test_t_matrix_matches_t_value(n):
    # every order against the exact rational values at the same points,
    # relative to n^2 / phi^(order + 1), which bounds each term of the sum
    xs = np.array([1e-3, 0.2, 0.5, 0.77, 1.0 - 1e-3])
    for order in (0, 1, 2):
        got = t_matrix(n, xs, order)
        assert got.shape == (xs.size, n + 1)
        for i, x in enumerate(xs):
            xq = Fraction(float(x))
            scale = n * n / (xq * (1 - xq)) ** (order + 1)
            for k in range(n + 1):
                err = abs(Fraction(float(got[i, k])) - t_value_exact(n, k, xq, order))
                assert err <= Fraction(1e-12) * scale, (order, x, k)


def test_t_matrix_interior_only():
    # T and its derivatives are singular at 0 (k >= 2) and 1 (k <= n-2)
    for order in (0, 1, 2):
        for xs in ([0.0, 0.5], [0.5, 1.0], [0.5, np.nan], []):
            with pytest.raises(ValueError, match="strictly inside"):
                t_matrix(5, xs, order)
    with pytest.raises(ValueError):
        t_matrix(0, [0.5])
    with pytest.raises(ValueError, match="order"):
        t_matrix(5, [0.5], 3)


@pytest.mark.parametrize("n", [2, 5, 17, 60])
def test_t_matrix_derivatives_match_centered_differences(n):
    # orders 1 and 2 against centered differences of orders 0 and 1; the
    # truncation (h^2) and rounding (eps/h) errors are far below 1e-7 of the
    # terms' magnitude n^2 / phi^(order + 1) on [0.05, 0.95]
    h = 1e-6
    xs = np.linspace(0.05, 0.95, 37)
    phi = xs * (1.0 - xs)
    for order in (1, 2):
        fd = (t_matrix(n, xs + h, order - 1) - t_matrix(n, xs - h, order - 1)) / (2.0 * h)
        scale = (n * n / phi ** (order + 1))[:, None]
        assert np.all(np.abs(fd - t_matrix(n, xs, order)) <= 1e-7 * scale), order


def test_t_prime_examples():
    assert t_matrix(2, [0.5], 1)[0, 1] == 0.0  # both numerators vanish
    xi = xi_zero(4, 2)
    assert xi == 0.5
    assert abs(t_matrix(4, [xi], 1)[0, 2]) <= 1e-9 * t_matrix(4, [xi], 2)[0, 2]


@pytest.mark.parametrize("n,k", [(5, 2), (5, 3), (9, 4), (12, 7), (30, 11)])
def test_t_double_prime_positive(n, k):
    xs = np.linspace(0.05, 0.95, 19)
    assert np.all(t_matrix(n, xs, 2)[:, k] > 0.0)


# -- xi_zero ------------------------------------------------------------------


def test_xi_zero_closed_forms():
    assert xi_zero(4, 2) == 0.5
    assert xi_zero(5, 2) == pytest.approx(1.0 / (1.0 + math.sqrt(3.0)), abs=1e-15)
    assert xi_zero(6, 2) == pytest.approx(1.0 / (1.0 + math.sqrt(6.0)), abs=1e-15)


@pytest.mark.parametrize("n,k", [(5, 2), (6, 2), (7, 3), (11, 5), (40, 13), (40, 30)])
def test_xi_zero_matches_bisection(n, k):
    assert xi_zero(n, k) == pytest.approx(bisect_t_prime_zero(n, k), abs=1e-12)
    xi = xi_zero(n, k)
    assert abs(t_matrix(n, [xi], 1)[0, k]) <= 1e-9 * t_matrix(n, [xi], 2)[0, k]


def test_xi_zero_bracketing_sweep():
    # Strict bracketing (k-1)/n < xi_k < k/n holds on the half 2k < n used by
    # the decomposition windows; at 2k = n the zero sits exactly at k/n = 1/2,
    # and above it the mirrored bracket applies.
    for n in range(4, 301):
        for k in range(2, n - 1):
            xi = xi_zero(n, k)
            if 2 * k < n:
                assert (k - 1) / n < xi < k / n
            elif 2 * k == n:
                assert xi == pytest.approx(0.5, abs=1e-15)
            else:
                assert k / n < xi < (k + 1) / n


def test_xi_zero_domain():
    with pytest.raises(ValueError):
        xi_zero(5, 1)
    with pytest.raises(ValueError):
        xi_zero(5, 4)


# -- moments ------------------------------------------------------------------


def test_moment_examples():
    assert moment(4, 2, 0.5) == pytest.approx(0.0625, abs=0.0)
    for n in (1, 3, 10):
        for x in (0.0, 0.2, 0.9):
            assert moment(n, 1, x) == 0.0
    phi = 3.0 / 16.0
    assert moment(3, 4, 0.25) == pytest.approx((3 * 1 * phi**2 + phi) / 27, rel=1e-15)
    assert moment_bruteforce(3, 4, 0.25) == pytest.approx((3 * phi**2 + phi) / 27, abs=1e-16)


@pytest.mark.parametrize("n", [1, 2, 5, 23, 100])
def test_moment_closed_vs_bruteforce(n):
    for i in range(5):
        for x in np.linspace(0.0, 1.0, 21):
            assert abs(moment(n, i, float(x)) - moment_bruteforce(n, i, float(x))) <= 1e-12


def test_moment_unsupported_order():
    with pytest.raises(ValueError):
        moment(5, 5, 0.3)


# -- tail sums ----------------------------------------------------------------

# 25-digit reference values: lambda via the identity
# 1/(k^2(k+1)) = 1/k^2 - 1/k + 1/(k+1) summed against the trigamma series,
# theta via 1/(k^2(k+1)^2) = 1/k^2 + 1/(k+1)^2 - 2/(k(k+1)).
LAMBDA_REF = {
    2: 0.1449340668482264364724152,
    3: 0.06160073351489310313908183,
    7: 0.01068803510219469044066913,
    50: 0.0002013332266971258059706451,
}
THETA_REF = {
    2: 0.03986813369645287294483033,
    3: 0.01209035591867509516705256,
    7: 0.000967906939083258432358678,
    50: 0.000002666453394251611941290131,
}


def test_tail_sums_20_digit_oracle():
    ts = tail_sums(2)
    assert ts.lam == pytest.approx(math.pi**2 / 6 - 1.5, rel=1e-14)
    assert ts.theta == pytest.approx(math.pi**2 / 3 - 3.25, rel=1e-14)
    for n, ref in LAMBDA_REF.items():
        assert tail_sums(n).lam == pytest.approx(ref, rel=1e-14)
    for n, ref in THETA_REF.items():
        assert tail_sums(n).theta == pytest.approx(ref, rel=1e-14)


@pytest.mark.parametrize("n", [2, 7, 50])
def test_tail_sums_vs_direct_summation(n):
    lam_ref, th_ref = tail_sums_reference(n)
    ts = tail_sums(n)
    assert ts.lam == pytest.approx(lam_ref, rel=5e-14)
    assert ts.theta == pytest.approx(th_ref, rel=5e-14)


@pytest.mark.parametrize("n", [2, 3, 5, 10, 100, 1234, 10_000])
def test_tail_sum_bounds_strict(n):
    ts = tail_sums(n)
    assert 1.0 / (2 * n**2) < ts.lam < 1.0 / n**2
    assert ts.theta < 4.0 / (9 * n**3)
    assert ts.abs_err <= 1e-14 * ts.lam


def test_tail_sums_domain():
    with pytest.raises(ValueError):
        tail_sums(1)


# -- Phi ----------------------------------------------------------------------


def test_phi_big_derived_examples():
    # oracle: brute-force value must match the closed form alpha^2 + 2 - 2/n
    assert phi_big(0.0, 2, 0.3) == pytest.approx(1.0, abs=1e-12)
    assert phi_big(1.0, 4, 0.7) == pytest.approx(2.5, abs=1e-12)


@pytest.mark.parametrize("n", [2, 3, 17, 64, 200])
def test_phi_identity(n):
    rng = np.random.default_rng(10 * n + 1)
    xs = rng.uniform(1e-6, 1.0 - 1e-6, size=100)
    for alpha in (-2.0, -1.0, 0.0, 1.0, 2.0, math.pi):
        closed = alpha**2 + 2.0 - 2.0 / n
        worst = max(abs(phi_big(alpha, n, float(x)) - closed) for x in xs)
        assert worst <= 1e-9


def test_phi_big_large_n_limit():
    # value at alpha = 1 tends to 3, matching the square of the norm bound
    assert phi_big(1.0, 10_000, 0.42) == pytest.approx(3.0, abs=1e-3)


def test_phi_big_domain():
    with pytest.raises(ValueError):
        phi_big(1.0, 4, 0.0)
    with pytest.raises(ValueError):
        phi_big(1.0, 4, 1.0)
