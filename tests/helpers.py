"""Shared by the test modules: U_n f as every command builds it, the
operator error of a form, exact Bernstein coefficients of a polynomial, and a
broken exact engine."""

import math
from fractions import Fraction

import numpy as np

from gsops import exactpoly
from gsops.analysis import DEFAULT_GRID, Residual, Sweep, sup_norm
from gsops.exactpoly import RationalPoly
from gsops.operators import BernsteinForm


def sweep_U(f, n):
    """U_n f from a new Sweep, as every command forms it."""
    return Sweep(DEFAULT_GRID).U(f, n)


def distance(p: BernsteinForm, f) -> float:
    """The operator error ||p - f|| of a Bernstein form p, taken alone."""
    return sup_norm(Residual(p, f.eval)).value


def bernstein_coeffs_from_poly(q: RationalPoly, n: int) -> list[Fraction]:
    """The exact coefficients of q in the Bernstein basis of degree n >= deg q,
    by x^j = sum_k [C(k,j)/C(n,j)] P_{n,k}(x)."""
    return [
        sum(
            (q.coeffs[j] * Fraction(math.comb(k, j), math.comb(n, j)) for j in range(min(k, q.degree) + 1)),
            Fraction(0),
        )
        for k in range(n + 1)
    ]


def bernstein_form_from_poly(q: RationalPoly, n: int) -> BernsteinForm:
    """The exact degree-n Bernstein representation of q, rounded to floats."""
    return BernsteinForm(n, np.array([float(c) for c in bernstein_coeffs_from_poly(q, n)]))


def break_u_coefficients(monkeypatch) -> None:
    """Make the exact engine's N_1 one too large, wherever it is read."""
    plain = exactpoly.u_coefficients_exact

    def off_by_one(f, n):
        nums, den = plain(f, n)
        return [nums[0], nums[1] + 1, *nums[2:]], den

    monkeypatch.setattr(exactpoly, "u_coefficients_exact", off_by_one)
