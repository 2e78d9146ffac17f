"""Tests for the exact rational polynomial engine and operator identities."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsops.basis import tail_sums
from gsops.exactpoly import (
    PHI,
    ExactBernsteinForm,
    RationalPoly,
    apply_U_exact,
    apply_Utilde_exact,
    commute_check_exact,
    dtilde_exact,
    integrate_against_basis,
    telescope_check_exact,
    u_coefficients_exact,
)

T = RationalPoly([0, 1])
T2 = RationalPoly([0, 0, 1])
T3 = RationalPoly([0, 0, 0, 1])
T4 = RationalPoly([0, 0, 0, 0, 1])
T5_MINUS_T2 = RationalPoly([0, 0, -1, 0, 0, 1])
ONE = RationalPoly([1])


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


# -- Bernstein form conversions ----------------------------------------------


@given(
    st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=8),
    st.integers(min_value=0, max_value=12),
)
@settings(max_examples=80, deadline=None)
def test_round_trip_monomial_bernstein(coeffs, extra):
    p = RationalPoly(coeffs)
    n = max(p.degree, 0) + extra
    form = ExactBernsteinForm.from_poly(p, n)
    assert form.to_poly() == p
    raised = form.raise_degree(n + 3)
    assert raised.to_poly() == p
    # unequal degrees: subtraction raises the lower one exactly
    assert (raised - form).max_abs_coeff() == 0
    assert (raised - form.scale(2)).max_abs_coeff() == raised.max_abs_coeff()


def _to_poly_by_binomial_sum(form):
    # a_j = C(n,j) * sum_i (-1)^(j-i) C(j,i) c_i
    return RationalPoly(
        math.comb(form.n, j)
        * sum((-1) ** (j - i) * math.comb(j, i) * form.coeffs[i] for i in range(j + 1))
        for j in range(form.n + 1)
    )


@pytest.mark.parametrize("n", [0, 1, 2, 17, 64, 129])
def test_to_poly_matches_binomial_sum(n):
    rng = np.random.default_rng(n)
    nums = rng.integers(-50, 51, size=n + 1)
    dens = rng.integers(1, 40, size=n + 1)
    form = ExactBernsteinForm(n, [Fraction(int(a), int(b)) for a, b in zip(nums, dens)])
    assert form.to_poly() == _to_poly_by_binomial_sum(form)


def test_form_eval_endpoints_are_coefficients():
    form = ExactBernsteinForm(3, [1, Fraction(1, 2), 2, -1])
    assert form(Fraction(0)) == 1
    assert form(Fraction(1)) == -1
    # interior de Casteljau value equals the expanded polynomial's
    assert form(Fraction(1, 3)) == form.to_poly()(Fraction(1, 3))


def test_from_poly_rejects_too_small_degree():
    with pytest.raises(ValueError):
        ExactBernsteinForm.from_poly(T3, 2)


def test_phi_degree_raising_identity():
    # phi * P_{n,k} = ((k+1)(n-k+1) / ((n+1)(n+2))) * P_{n+2,k+1}
    for n in (1, 2, 3, 7, 15, 30):
        for k in range(n + 1):
            lhs = PHI * bernstein_poly(n, k)
            rhs = Fraction((k + 1) * (n - k + 1), (n + 1) * (n + 2)) * bernstein_poly(n + 2, k + 1)
            assert lhs == rhs


# -- integrals and u coefficients ----------------------------------------------


def test_integrate_against_basis_examples():
    assert integrate_against_basis(0, 0, ONE) == 1
    assert integrate_against_basis(2, 1, ONE) == Fraction(1, 3)
    assert integrate_against_basis(0, 0, T2) == Fraction(1, 3)


def test_u_coefficients_examples():
    for n in (1, 2, 3, 9):
        assert u_coefficients_exact(ONE, n) == [Fraction(1)] * (n + 1)
    assert u_coefficients_exact(T, 2) == [0, Fraction(1, 2), 1]
    assert u_coefficients_exact(T2, 2) == [0, Fraction(1, 3), 1]


def test_apply_U_reproduces_linears():
    for n in range(1, 13):
        f = RationalPoly([Fraction(2, 7), Fraction(-3, 5)])
        assert apply_U_exact(f, n).to_poly() == f


def test_apply_U_t2_example():
    # U_2 t^2 = x^2 + (2/3) phi
    got = apply_U_exact(T2, 2).to_poly()
    assert got == T2 + Fraction(2, 3) * PHI


def test_U1_degenerate_convention():
    # U_1 f = f(0)(1-x) + f(1) x, the empty middle sum
    for f in (T3, T5_MINUS_T2, RationalPoly([5, -2, 1])):
        expected = f(Fraction(0)) * RationalPoly([1, -1]) + f(Fraction(1)) * T
        assert apply_U_exact(f, 1).to_poly() == expected


# -- Dtilde --------------------------------------------------------------------


def test_dtilde_examples():
    assert dtilde_exact(T2) == 2 * PHI
    assert dtilde_exact(T).is_zero()
    assert dtilde_exact(RationalPoly([7])).is_zero()
    assert dtilde_exact(dtilde_exact(T2)) == -4 * PHI


def test_dtilde_form_map_matches_polynomial_route():
    for n in (2, 3, 6, 11):
        for f in (T2, T3, T5_MINUS_T2):
            form = apply_U_exact(f, n)
            assert form.dtilde().to_poly() == dtilde_exact(form.to_poly())


# -- Utilde --------------------------------------------------------------------


def test_apply_Utilde_fixes_linears():
    for n in (1, 2, 5, 9):
        f = RationalPoly([1, Fraction(3, 4)])
        assert apply_Utilde_exact(f, n).to_poly() == f


def test_apply_Utilde_t2_pattern():
    # Utilde_n t^2 = x^2 + 2 phi / (n (n+1)), checked exactly for n = 2..20
    for n in range(2, 21):
        got = apply_Utilde_exact(T2, n).to_poly()
        assert got == T2 + Fraction(2, n * (n + 1)) * PHI
    assert apply_Utilde_exact(T2, 3).to_poly() == T2 + Fraction(1, 6) * PHI
    assert apply_Utilde_exact(T2, 2).to_poly() == T2 + Fraction(1, 3) * PHI


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


def _count_to_poly(monkeypatch):
    calls = []
    plain = ExactBernsteinForm.to_poly

    def counting(self):
        calls.append(self.n)
        return plain(self)

    monkeypatch.setattr(ExactBernsteinForm, "to_poly", counting)
    return calls


def test_commute_expands_only_the_monomial_operands(monkeypatch):
    # only the operands of apply_U_exact: U_n f, Utilde_n f and Utilde_m f
    calls = _count_to_poly(monkeypatch)
    commute_check_exact(T5_MINUS_T2, 16, 17)
    assert len(calls) <= 3


def test_telescope_compares_bernstein_forms(monkeypatch):
    calls = _count_to_poly(monkeypatch)
    telescope_check_exact(T5_MINUS_T2, 16)
    assert calls == []


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
            term = apply_U_exact(df, k + 1).dtilde().to_poly()
            acc = acc + Fraction(1, k * k * (k + 1)) * term
        resid = apply_Utilde_exact(f, n).to_poly() - f + acc
        xs = np.linspace(0.0, 1.0, 2001)
        sup_resid = float(np.max(np.abs(resid.eval_float(xs))))
        d2f = dtilde_exact(df)
        sup_d2f = float(np.max(np.abs(d2f.eval_float(xs))))
        assert sup_resid <= tail_sums(N + 1).lam * sup_d2f


def test_invalid_indexing():
    with pytest.raises(ValueError):
        integrate_against_basis(3, 4, ONE)
    with pytest.raises(ValueError):
        u_coefficients_exact(T2, 0)
    with pytest.raises(ValueError):
        telescope_check_exact(T2, 0)
