"""Exact rational-arithmetic polynomial engine.

Applies the genuine Bernstein-Durrmeyer operator U_n, its modification
Utilde_n, and the weighted differential operator Dtilde = phi * d^2/dx^2
(phi(x) = x(1-x)) to polynomials with zero rounding error.  Every value is a
monomial ``RationalPoly`` over ``fractions.Fraction``, of degree <= deg f for
an operator output; the results serve as ground truth for the floating-point
pipeline.

All functions are pure and all values immutable, so concurrent use from any
number of threads is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import InvariantViolation

__all__ = [
    "RationalPoly",
    "PHI",
    "dtilde_exact",
    "bernstein_to_poly",
    "u_coefficients_exact",
    "apply_U_exact",
    "apply_Utilde_exact",
    "commute_check_exact",
    "telescope_check_exact",
]


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, (int, np.integer)):
        return Fraction(int(value))
    raise TypeError(f"cannot build an exact rational from {value!r}")


@dataclass(frozen=True)
class RationalPoly:
    """Polynomial with arbitrary-precision rational coefficients, monomial basis.

    ``coeffs[i]`` multiplies x**i.  Trailing zeros are stripped on
    construction; the zero polynomial is the empty tuple.
    """

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable = ()) -> None:
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- structure ----------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    # -- arithmetic (closed over the rationals, no approximation) -----------

    def __add__(self, other: "RationalPoly") -> "RationalPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return RationalPoly([self.coeff(i) + other.coeff(i) for i in range(n)])

    def __sub__(self, other: "RationalPoly") -> "RationalPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return RationalPoly([self.coeff(i) - other.coeff(i) for i in range(n)])

    def __mul__(self, other) -> "RationalPoly":
        if isinstance(other, RationalPoly):
            if self.is_zero() or other.is_zero():
                return RationalPoly()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return RationalPoly(out)
        s = _as_fraction(other)
        return RationalPoly([c * s for c in self.coeffs])

    __rmul__ = __mul__

    def derivative(self) -> "RationalPoly":
        return RationalPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, x):
        """Evaluate by Horner; exact when x is a Fraction/int."""
        acc = Fraction(0) if not isinstance(x, float) else 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    @cached_property
    def _horner_floats(self) -> tuple[float, ...]:
        """The coefficients as floats, highest power first, converted once."""
        return tuple(float(c) for c in reversed(self.coeffs))

    def eval_float(self, x):
        """Vectorized float Horner evaluation (x scalar or ndarray)."""
        xs = np.asarray(x, dtype=float)
        acc = np.zeros_like(xs)
        for c in self._horner_floats:
            acc = acc * xs + c
        return acc if acc.ndim else float(acc)


#: The weight phi(x) = x(1 - x).
PHI = RationalPoly([0, 1, -1])


def dtilde_exact(p: RationalPoly) -> RationalPoly:
    """Dtilde p = x(1-x) * p''(x), exactly.

    Iterating gives the higher powers: Dtilde^(l+1) p = Dtilde(Dtilde^l p).
    """
    return PHI * p.derivative().derivative()


def bernstein_to_poly(coeffs: Sequence) -> RationalPoly:
    """Expand sum_k coeffs[k] P_{n,k}, n = len(coeffs) - 1, to the monomial basis.

    a_j = C(n,j) * (forward difference)^j c_0, read off the difference table
    of the coefficients one row at a time.  Every row after the first
    all-zero one is zero (row d+1 for degree d), so this is O(n d) work.
    """
    n, row, out = len(coeffs) - 1, list(coeffs), []
    while any(row):
        out.append(math.comb(n, len(out)) * row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    return RationalPoly(out)


def _dtilde_bernstein(c: Sequence) -> list:
    """Dtilde on degree-n Bernstein coefficients: d_j = j(n-j) (c_{j-1} - 2c_j + c_{j+1})."""
    n = len(c) - 1
    return [0, *(j * (n - j) * (c[j - 1] - 2 * c[j] + c[j + 1]) for j in range(1, n)), 0] if n else [0]


def u_coefficients_exact(f: RationalPoly, n: int) -> tuple[list[int], int]:
    """The operator coefficients u_{n,k}(f) = N_k / L, exactly: ([N_0..N_n], L).

    u_{n,0} = f(0), u_{n,n} = f(1), and interior coefficients are (n-1) times
    the Beta integral of P_{n-2,k-1}(t) f(t).  Its Gamma terms cancel to one
    closed form for every k and every n >= 1: for f = sum_q a_q t^q,
    u_{n,k}(f) = sum_q a_q (k)_q / (n)_q with the rising product
    (x)_q = x(x+1)...(x+q-1), summed in integers over the one common
    denominator L.  The fractions N_k / L need not be in lowest terms.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    scaled = [a / math.prod(range(n, n + q)) for q, a in enumerate(f.coeffs)]
    den = math.lcm(*(b.denominator for b in scaled))
    nums = [b.numerator * (den // b.denominator) for b in scaled]
    totals = []
    for k in range(n + 1):
        total = 0  # sum_q nums[q] (k)_q, by Horner's rule
        for q in reversed(range(len(nums))):
            total = nums[q] + (k + q) * total
        totals.append(total)
    return totals, den


def apply_U_exact(f: RationalPoly, n: int) -> RationalPoly:
    """U_n f, exactly, as a monomial polynomial of degree <= deg f."""
    nums, den = u_coefficients_exact(f, n)
    return Fraction(1, den) * bernstein_to_poly(nums)


def apply_Utilde_exact(f: RationalPoly, n: int) -> RationalPoly:
    """Utilde_n f, computed by two independent routes and asserted equal.

    Route (i):  U_n applied to f - (1/n) Dtilde f.
    Route (ii): the numerators N_k of f on the modified basis
    Ptilde_{n,k} = P_{n,k} - (1/n) Dtilde P_{n,k}, through the tridiagonal
    action of Dtilde on the Bernstein basis, in integers over n L.

    Raises InvariantViolation if the routes disagree (they agree exactly for
    every polynomial, whose Dtilde image always vanishes at the endpoints).
    """
    route_i = apply_U_exact(f - Fraction(1, n) * dtilde_exact(f), n)

    nums, den = u_coefficients_exact(f, n)
    modified = [n * c - d for c, d in zip(nums, _dtilde_bernstein(nums))]
    route_ii = Fraction(1, n * den) * bernstein_to_poly(modified)

    if route_i != route_ii:
        raise InvariantViolation(
            f"modified-operator routes disagree for n={n}: {route_i.coeffs} vs {route_ii.coeffs}"
        )
    return route_i


def commute_check_exact(f: RationalPoly, n: int, m: int) -> dict[str, Fraction]:
    """Verify the four commutation identities with exact arithmetic.

    Checks, as monomial polynomials:
      Dtilde U_n f        == U_n Dtilde f
      Dtilde Utilde_n f   == Utilde_n Dtilde f
      U_n Utilde_n f      == Utilde_n U_n f
      Utilde_m Utilde_n f == Utilde_n Utilde_m f

    Returns the per-identity maximal absolute coefficient discrepancy (all
    exactly 0); any nonzero discrepancy raises InvariantViolation.
    """
    if n < 1 or m < 1:
        raise ValueError("operator indices must be >= 1")
    df = dtilde_exact(f)
    u_n, ut_n = apply_U_exact(f, n), apply_Utilde_exact(f, n)

    pairs = {
        "dtilde_U": (dtilde_exact(u_n), apply_U_exact(df, n)),
        "dtilde_Utilde": (dtilde_exact(ut_n), apply_Utilde_exact(df, n)),
        "U_Utilde": (apply_U_exact(ut_n, n), apply_Utilde_exact(u_n, n)),
        "Utilde_mn": (apply_Utilde_exact(ut_n, m), apply_Utilde_exact(apply_Utilde_exact(f, m), n)),
    }

    report: dict[str, Fraction] = {}
    for name, (lhs, rhs) in pairs.items():
        disc = max(map(abs, (lhs - rhs).coeffs), default=Fraction(0))
        if disc != 0:
            raise InvariantViolation(f"identity {name} violated for n={n}, m={m}: {disc}")
        report[name] = disc
    return report


def telescope_check_exact(f: RationalPoly, k: int) -> Fraction:
    """Verify the exact one-step telescoping identity of the modified operator.

    Utilde_k f - Utilde_{k+1} f = -(1/(k^2(k+1))) * Dtilde U_{k+1} Dtilde f,
    as an exact polynomial identity.  Returns the maximal monomial
    coefficient discrepancy (must be 0); nonzero raises InvariantViolation.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    lhs = apply_Utilde_exact(f, k) - apply_Utilde_exact(f, k + 1)
    rhs = Fraction(-1, k * k * (k + 1)) * dtilde_exact(apply_U_exact(dtilde_exact(f), k + 1))
    disc = max(map(abs, (lhs - rhs).coeffs), default=Fraction(0))
    if disc != 0:
        raise InvariantViolation(f"telescoping identity violated at k={k}: {disc}")
    return disc
