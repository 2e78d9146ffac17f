"""Tests for the exact rational polynomial engine and operator identities."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsops import exactpoly
from gsops.basis import tail_sums
from gsops.catalog import CATALOG
from gsops.errors import InvariantViolation
from gsops.exactpoly import (
    PHI,
    RationalPoly,
    _dtilde_bernstein,
    apply_U_exact,
    apply_Utilde_exact,
    bernstein_to_poly,
    commute_check_exact,
    dtilde_exact,
    telescope_check_exact,
    u_coefficients_exact,
)

from helpers import bernstein_coeffs_from_poly, break_u_coefficients

T = RationalPoly([0, 1])
T2 = RationalPoly([0, 0, 1])
T3 = RationalPoly([0, 0, 0, 1])
T4 = RationalPoly([0, 0, 0, 0, 1])
T5_MINUS_T2 = RationalPoly([0, 0, -1, 0, 0, 1])
ONE = RationalPoly([1])
POLYNOMIALS = [name for name, spec in CATALOG.items() if spec.poly is not None]


def bernstein_poly(n: int, k: int) -> RationalPoly:
    """P_{n,k} as an exact monomial polynomial (test oracle)."""
    out = RationalPoly([math.comb(n, k)])
    for _ in range(k):
        out = out * RationalPoly([0, 1])
    for _ in range(n - k):
        out = out * RationalPoly([1, -1])
    return out


def test_bernstein_poly_oracle_sane():
    p = bernstein_poly(2, 1)  # 2x(1-x)
    assert p.coeffs == (Fraction(0), Fraction(2), Fraction(-2))


# -- RationalPoly basics ------------------------------------------------------


def test_normalization_and_zero():
    assert RationalPoly([1, 2, 0, 0]).coeffs == (Fraction(1), Fraction(2))
    assert RationalPoly([0, 0]).is_zero()
    assert RationalPoly().degree == -1


def test_arithmetic_exact():
    p = RationalPoly(["1/3", 2])
    q = RationalPoly([1, "-1/2", "2/7"])
    assert (p + q).coeffs == (Fraction(4, 3), Fraction(3, 2), Fraction(2, 7))
    assert (p * q).coeffs == (
        Fraction(1, 3),
        Fraction(2) - Fraction(1, 6),
        Fraction(2, 21) - Fraction(1),
        Fraction(4, 7),
    )
    assert (p - p).is_zero()
    assert p(Fraction(1, 2)) == Fraction(1, 3) + 1


def test_derivative_and_eval_float():
    p = RationalPoly([1, 0, 3])  # 1 + 3x^2
    assert p.derivative().coeffs == (Fraction(0), Fraction(6))
    xs = np.array([0.0, 0.5, 1.0])
    assert p.eval_float(xs) == pytest.approx([1.0, 1.75, 4.0])
    assert p.eval_float(0.5) == pytest.approx(1.75)


def test_eval_float_converts_the_coefficients_once(monkeypatch):
    # Horner over float(c) per call, bit for bit, with one conversion per
    # coefficient for the polynomial's lifetime
    p = RationalPoly([Fraction(1, 3), Fraction(-2, 7), 0, Fraction(5, 11)])
    xs = np.linspace(0.0, 1.0, 9)
    acc = np.zeros_like(xs)
    for c in reversed(p.coeffs):
        acc = acc * xs + float(c)
    conversions = []
    plain = Fraction.__float__
    monkeypatch.setattr(Fraction, "__float__", lambda c: conversions.append(c) or plain(c))
    for _ in range(3):
        assert p.eval_float(xs).tobytes() == acc.tobytes()
        assert p.eval_float(0.25) == float(np.float64(p.eval_float(np.array([0.25]))[0]))
    assert len(conversions) == len(p.coeffs)


# -- Bernstein form conversions ----------------------------------------------


@given(
    st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=8),
    st.integers(min_value=0, max_value=12),
)
@settings(max_examples=80, deadline=None)
def test_round_trip_monomial_bernstein(coeffs, extra):
    p = RationalPoly(coeffs)
    n = max(p.degree, 0) + extra
    assert bernstein_to_poly(bernstein_coeffs_from_poly(p, n)) == p
    assert bernstein_to_poly(bernstein_coeffs_from_poly(p, n + 3)) == p


def _to_poly_by_binomial_sum(coeffs):
    # a_j = C(n,j) * sum_i (-1)^(j-i) C(j,i) c_i
    n = len(coeffs) - 1
    return RationalPoly(
        math.comb(n, j) * sum((-1) ** (j - i) * math.comb(j, i) * coeffs[i] for i in range(j + 1))
        for j in range(n + 1)
    )


@pytest.mark.parametrize("n", [0, 1, 2, 17, 64, 129])
def test_to_poly_matches_binomial_sum(n):
    rng = np.random.default_rng(n)
    nums = rng.integers(-50, 51, size=n + 1)
    dens = rng.integers(1, 40, size=n + 1)
    coeffs = [Fraction(int(a), int(b)) for a, b in zip(nums, dens)]
    assert bernstein_to_poly(coeffs) == _to_poly_by_binomial_sum(coeffs)


@pytest.mark.parametrize("n", [17, 64, 129])
def test_to_poly_of_a_basis_polynomial(n):
    # e_n has row[0] == 0 at every level below n: only an all-zero row may stop the table
    for k in sorted({0, 1, n // 2, n}):
        e_k = [0] * (n + 1)
        e_k[k] = 1
        assert bernstein_to_poly(e_k) == bernstein_poly(n, k), k


@pytest.mark.parametrize(
    "name", ["zero", *(name for name, spec in CATALOG.items() if spec.poly is not None)]
)
def test_to_poly_of_a_low_degree_polynomial_at_high_degree(name):
    # the catalog polynomials, and the zero polynomial as the zero form of degree 129
    p = RationalPoly() if name == "zero" else CATALOG[name].poly
    assert bernstein_to_poly(bernstein_coeffs_from_poly(p, 129)) == p


def test_phi_degree_raising_identity():
    # phi * P_{n,k} = ((k+1)(n-k+1) / ((n+1)(n+2))) * P_{n+2,k+1}
    for n in (1, 2, 3, 7, 15, 30):
        for k in range(n + 1):
            lhs = PHI * bernstein_poly(n, k)
            rhs = Fraction((k + 1) * (n - k + 1), (n + 1) * (n + 2)) * bernstein_poly(n + 2, k + 1)
            assert lhs == rhs


# -- integrals and u coefficients ----------------------------------------------


def _integrate_against_basis(m: int, j: int, p: RationalPoly) -> Fraction:
    """Integral over [0,1] of P_{m,j}(t) p(t), by the termwise Beta identity
    integral of t^(j+q) (1-t)^(m-j) = (j+q)! (m-j)! / (m+q+1)! (test oracle)."""
    return sum(
        (
            a * Fraction(
                math.comb(m, j) * math.factorial(j + q) * math.factorial(m - j),
                math.factorial(m + q + 1),
            )
            for q, a in enumerate(p.coeffs)
        ),
        Fraction(0),
    )


def _u_coefficients_by_beta_integrals(f: RationalPoly, n: int) -> list[Fraction]:
    interior = [(n - 1) * _integrate_against_basis(n - 2, k - 1, f) for k in range(1, n)]
    return [f(Fraction(0)), *interior, f(Fraction(1))]


def _u_fractions(f: RationalPoly, n: int) -> list[Fraction]:
    nums, den = u_coefficients_exact(f, n)
    return [Fraction(c, den) for c in nums]


def test_u_coefficients_beta_integral_examples():
    # the three integrals (n-1) * int P_{n-2,k-1} f: P_{0,0} * 1, 3 * P_{2,1} * 1, P_{0,0} * t^2
    assert _u_fractions(ONE, 2)[1] == 1
    assert _u_fractions(ONE, 4)[2] == 1
    assert _u_fractions(T2, 2)[1] == Fraction(1, 3)


def _random_rational_poly(rng, degree: int) -> RationalPoly:
    nums = rng.integers(-60, 61, size=degree + 1)
    dens = rng.integers(1, 50, size=degree + 1)
    return RationalPoly(Fraction(int(a), int(b)) for a, b in zip(nums, dens))


def test_u_coefficients_match_the_beta_integral_oracle():
    rng = np.random.default_rng(18)
    ns = [1, 2, 3, *(int(n) for n in rng.integers(1, 131, size=31))]
    for degree in range(-1, 8):
        for n in ns:
            f = _random_rational_poly(rng, degree)
            assert _u_fractions(f, n) == _u_coefficients_by_beta_integrals(f, n), (degree, n)


def test_u_coefficients_examples():
    for n in (1, 2, 3, 9):
        assert _u_fractions(ONE, n) == [Fraction(1)] * (n + 1)
    assert _u_fractions(T, 2) == [0, Fraction(1, 2), 1]
    assert _u_fractions(T2, 2) == [0, Fraction(1, 3), 1]


@pytest.mark.parametrize("name", POLYNOMIALS)
def test_u_coefficients_round_once_to_float(name):
    # int / int true division is correctly rounded, as float(Fraction) is
    for n in (1, 2, 7, 16, 129, 512):
        nums, den = u_coefficients_exact(CATALOG[name].poly, n)
        assert [c / den for c in nums] == [float(Fraction(c, den)) for c in nums]


def test_apply_U_reproduces_linears():
    for n in range(1, 13):
        f = RationalPoly([Fraction(2, 7), Fraction(-3, 5)])
        assert apply_U_exact(f, n) == f


def test_apply_U_t2_example():
    # U_2 t^2 = x^2 + (2/3) phi
    got = apply_U_exact(T2, 2)
    assert got == T2 + Fraction(2, 3) * PHI


def test_U1_degenerate_convention():
    # U_1 f = f(0)(1-x) + f(1) x, the empty middle sum
    for f in (T3, T5_MINUS_T2, RationalPoly([5, -2, 1])):
        expected = f(Fraction(0)) * RationalPoly([1, -1]) + f(Fraction(1)) * T
        assert apply_U_exact(f, 1) == expected


# -- Dtilde --------------------------------------------------------------------


def test_dtilde_examples():
    assert dtilde_exact(T2) == 2 * PHI
    assert dtilde_exact(T).is_zero()
    assert dtilde_exact(RationalPoly([7])).is_zero()
    assert dtilde_exact(dtilde_exact(T2)) == -4 * PHI


def test_dtilde_form_map_matches_polynomial_route():
    for n in (2, 3, 6, 11):
        for f in (T2, T3, T5_MINUS_T2):
            nums, _ = u_coefficients_exact(f, n)
            assert bernstein_to_poly(_dtilde_bernstein(nums)) == dtilde_exact(bernstein_to_poly(nums))


# -- Utilde --------------------------------------------------------------------


def test_apply_Utilde_fixes_linears():
    for n in (1, 2, 5, 9):
        f = RationalPoly([1, Fraction(3, 4)])
        assert apply_Utilde_exact(f, n) == f


def test_apply_Utilde_t2_pattern():
    # Utilde_n t^2 = x^2 + 2 phi / (n (n+1)), checked exactly for n = 2..20
    for n in range(2, 21):
        got = apply_Utilde_exact(T2, n)
        assert got == T2 + Fraction(2, n * (n + 1)) * PHI
    assert apply_Utilde_exact(T2, 3) == T2 + Fraction(1, 6) * PHI
    assert apply_Utilde_exact(T2, 2) == T2 + Fraction(1, 3) * PHI


@given(
    st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=11),
    st.integers(min_value=1, max_value=20),
)
@settings(max_examples=60, deadline=None)
def test_utilde_route_agreement(coeffs, n):
    # the two routes are asserted equal inside apply_Utilde_exact
    apply_Utilde_exact(RationalPoly(coeffs), n)


# -- commutation and telescoping ------------------------------------------------


def test_commute_examples():
    assert set(commute_check_exact(T3, 4, 6).values()) == {Fraction(0)}
    assert set(commute_check_exact(T5_MINUS_T2, 3, 5).values()) == {Fraction(0)}
    assert set(commute_check_exact(ONE, 2, 3).values()) == {Fraction(0)}


def test_telescope_examples():
    assert telescope_check_exact(T2, 2) == 0
    assert telescope_check_exact(RationalPoly([2, -1]), 5) == 0
    assert telescope_check_exact(T4, 3) == 0


@pytest.mark.parametrize("f", [T2, T3, T5_MINUS_T2])
@pytest.mark.parametrize("n", [2, 4, 7])
def test_commute_grid(f, n):
    report = commute_check_exact(f, n, n + 3)
    assert all(v == 0 for v in report.values())


def test_series_representation_partial_sums():
    # Utilde_n f - f = -sum_{k>=n} Dtilde U_{k+1} Dtilde f / (k^2 (k+1));
    # the partial sum to N leaves a remainder below lambda(N+1) ||Dtilde^2 f||
    for f, n in ((T3, 3), (T2, 2)):
        N = 10 * n
        acc = RationalPoly()
        df = dtilde_exact(f)
        for k in range(n, N + 1):
            term = dtilde_exact(apply_U_exact(df, k + 1))
            acc = acc + Fraction(1, k * k * (k + 1)) * term
        resid = apply_Utilde_exact(f, n) - f + acc
        xs = np.linspace(0.0, 1.0, 2001)
        sup_resid = float(np.max(np.abs(resid.eval_float(xs))))
        d2f = dtilde_exact(df)
        sup_d2f = float(np.max(np.abs(d2f.eval_float(xs))))
        assert sup_resid <= tail_sums(N + 1).lam * sup_d2f


def test_invalid_indexing():
    with pytest.raises(ValueError):
        u_coefficients_exact(T2, 0)
    with pytest.raises(ValueError):
        telescope_check_exact(T2, 0)


# -- the checks can fail --------------------------------------------------------------

_CHECKS = {
    "utilde_routes": lambda p: apply_Utilde_exact(p, 16),
    "commute": lambda p: commute_check_exact(p, 16, 17),
    "telescope": lambda p: telescope_check_exact(p, 16),
}


@pytest.mark.parametrize("check", sorted(_CHECKS))
@pytest.mark.parametrize("name", POLYNOMIALS)
def test_exact_checks_catch_an_off_by_one_coefficient(monkeypatch, name, check):
    break_u_coefficients(monkeypatch)
    with pytest.raises(InvariantViolation):
        _CHECKS[check](CATALOG[name].poly)


@pytest.mark.parametrize("check", ["commute", "telescope"])
@pytest.mark.parametrize("name", POLYNOMIALS)
def test_identities_catch_it_without_the_route_check(monkeypatch, name, check):
    # Utilde_n f by route (i) alone, unchecked: each identity must still fail
    # by comparing its own two sides
    break_u_coefficients(monkeypatch)
    monkeypatch.setattr(
        exactpoly, "apply_Utilde_exact",
        lambda f, n: apply_U_exact(f - Fraction(1, n) * dtilde_exact(f), n),
    )
    with pytest.raises(InvariantViolation):
        _CHECKS[check](CATALOG[name].poly)
