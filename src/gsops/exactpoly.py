"""Exact rational-arithmetic polynomial engine.

Applies the genuine Bernstein-Durrmeyer operator U_n, its modification
Utilde_n, and the weighted differential operator Dtilde = phi * d^2/dx^2
(phi(x) = x(1-x)) to polynomials with zero rounding error.  Everything here
works over ``fractions.Fraction``; the results serve as ground truth for the
floating-point pipeline.

All functions are pure and all values immutable, so concurrent use from any
number of threads is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import InvariantViolation

__all__ = [
    "InvariantViolation",
    "RationalPoly",
    "ExactBernsteinForm",
    "PHI",
    "dtilde_exact",
    "integrate_against_basis",
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
        if "/" in value:
            num, den = value.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(value))
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

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, value) -> "RationalPoly":
        return cls([_as_fraction(value)])

    @classmethod
    def monomial(cls, power: int, coeff=1) -> "RationalPoly":
        if power < 0:
            raise ValueError("power must be >= 0")
        return cls([0] * power + [coeff])

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

    def __neg__(self) -> "RationalPoly":
        return RationalPoly([-c for c in self.coeffs])

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

    def eval_float(self, x):
        """Vectorized float Horner evaluation (x scalar or ndarray)."""
        xs = np.asarray(x, dtype=float)
        acc = np.zeros_like(xs)
        for c in reversed(self.coeffs):
            acc = acc * xs + float(c)
        return acc if acc.ndim else float(acc)


#: The weight phi(x) = x(1 - x).
PHI = RationalPoly([0, 1, -1])


def dtilde_exact(p: RationalPoly) -> RationalPoly:
    """Dtilde p = x(1-x) * p''(x), exactly.

    Iterating gives the higher powers: Dtilde^(l+1) p = Dtilde(Dtilde^l p).
    """
    return PHI * p.derivative().derivative()


@dataclass(frozen=True)
class ExactBernsteinForm:
    """A polynomial held as exact coefficients in the Bernstein basis of degree n.

    p(x) = sum_k coeffs[k] * P_{n,k}(x) with P_{n,k}(x) = C(n,k) x^k (1-x)^(n-k).
    """

    n: int
    coeffs: tuple[Fraction, ...]

    def __init__(self, n: int, coeffs: Sequence) -> None:
        cs = tuple(_as_fraction(c) for c in coeffs)
        if len(cs) != n + 1:
            raise ValueError(f"need {n + 1} coefficients for degree {n}, got {len(cs)}")
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "coeffs", cs)

    @classmethod
    def from_poly(cls, p: RationalPoly, n: int) -> "ExactBernsteinForm":
        """Represent a monomial-basis polynomial of degree <= n exactly.

        Uses x^j = sum_k [C(k,j)/C(n,j)] P_{n,k}(x).
        """
        if p.degree > n:
            raise ValueError(f"degree {p.degree} polynomial does not fit in basis of degree {n}")
        cs = []
        for k in range(n + 1):
            c = Fraction(0)
            for j in range(min(k, p.degree) + 1):
                c += p.coeffs[j] * Fraction(math.comb(k, j), math.comb(n, j))
            cs.append(c)
        return cls(n, cs)

    def to_poly(self) -> RationalPoly:
        """Expand to the monomial basis: a_j = C(n,j) * (forward difference)^j c_0.

        The forward differences are the leading entries of the difference
        table of the coefficients, built one row at a time by subtraction.
        """
        row, out = list(self.coeffs), []
        for j in range(self.n + 1):
            out.append(math.comb(self.n, j) * row[0])
            row = [b - a for a, b in zip(row, row[1:])]
        return RationalPoly(out)

    def raise_degree(self, target: int) -> "ExactBernsteinForm":
        """Re-express in the Bernstein basis of a higher degree, exactly."""
        if target < self.n:
            raise ValueError("can only raise the degree")
        form = self
        while form.n < target:
            n = form.n
            cs = [Fraction(0)] * (n + 2)
            for k in range(n + 2):
                if 1 <= k <= n + 1:
                    cs[k] += Fraction(k, n + 1) * form.coeffs[k - 1]
                if k <= n:
                    cs[k] += Fraction(n + 1 - k, n + 1) * form.coeffs[k]
            form = ExactBernsteinForm(n + 1, cs)
        return form

    def __call__(self, x):
        """De Casteljau evaluation; exact for Fraction input."""
        vals = list(self.coeffs)
        for level in range(self.n):
            vals = [(1 - x) * vals[i] + x * vals[i + 1] for i in range(len(vals) - 1)]
        return vals[0]

    def __add__(self, other: "ExactBernsteinForm") -> "ExactBernsteinForm":
        n = max(self.n, other.n)
        a, b = self.raise_degree(n), other.raise_degree(n)
        return ExactBernsteinForm(n, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    def __sub__(self, other: "ExactBernsteinForm") -> "ExactBernsteinForm":
        n = max(self.n, other.n)
        a, b = self.raise_degree(n), other.raise_degree(n)
        return ExactBernsteinForm(n, [x - y for x, y in zip(a.coeffs, b.coeffs)])

    def scale(self, s) -> "ExactBernsteinForm":
        s = _as_fraction(s)
        return ExactBernsteinForm(self.n, [s * c for c in self.coeffs])

    def dtilde(self) -> "ExactBernsteinForm":
        """Apply Dtilde as the closed coefficient map of the degree-n basis.

        Dtilde P_{n,k} = (k-1)(n-k+1) P_{n,k-1} - 2k(n-k) P_{n,k}
                         + (k+1)(n-k-1) P_{n,k+1},
        which collapses to d_j = j(n-j) * (c_{j-1} - 2 c_j + c_{j+1}).
        """
        n, c = self.n, self.coeffs
        d = [Fraction(0)] * (n + 1)
        for j in range(1, n):
            d[j] = j * (n - j) * (c[j - 1] - 2 * c[j] + c[j + 1])
        return ExactBernsteinForm(n, d)

    def max_abs_coeff(self) -> Fraction:
        return max((abs(c) for c in self.coeffs), default=Fraction(0))


def integrate_against_basis(m: int, j: int, p: RationalPoly) -> Fraction:
    """Exact integral over [0,1] of P_{m,j}(t) * p(t).

    Termwise Beta identity: integral of t^(j+q) (1-t)^(m-j) equals
    (j+q)! (m-j)! / (m+q+1)!.
    """
    if not 0 <= j <= m:
        raise ValueError(f"basis index {j} out of range for degree {m}")
    binom = math.comb(m, j)
    total = Fraction(0)
    for q, a in enumerate(p.coeffs):
        if a == 0:
            continue
        total += a * Fraction(
            binom * math.factorial(j + q) * math.factorial(m - j),
            math.factorial(m + q + 1),
        )
    return total


def u_coefficients_exact(f: RationalPoly, n: int) -> list[Fraction]:
    """The operator coefficients u_{n,k}(f), exactly.

    u_{n,0} = f(0), u_{n,n} = f(1); interior coefficients are
    (n-1) * integral of P_{n-2,k-1}(t) f(t).  For n = 1 the middle sum is
    empty and the result is just the endpoint pair.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    us = [f(Fraction(0))]
    for k in range(1, n):
        us.append((n - 1) * integrate_against_basis(n - 2, k - 1, f))
    us.append(f(Fraction(1)))
    return us


def apply_U_exact(f: RationalPoly, n: int) -> ExactBernsteinForm:
    """U_n f as an exact Bernstein form of degree n."""
    return ExactBernsteinForm(n, u_coefficients_exact(f, n))


def apply_Utilde_exact(f: RationalPoly, n: int) -> ExactBernsteinForm:
    """Utilde_n f, computed by two independent routes and asserted equal.

    Route (i):  U_n applied to f - (1/n) Dtilde f.
    Route (ii): the coefficient functionals of f combined with the modified
    basis Ptilde_{n,k} = P_{n,k} - (1/n) Dtilde P_{n,k}, expanded through the
    tridiagonal action of Dtilde on the Bernstein basis.

    Raises InvariantViolation if the routes disagree (they agree exactly for
    every polynomial, whose Dtilde image always vanishes at the endpoints).
    """
    route_i = apply_U_exact(f - Fraction(1, n) * dtilde_exact(f), n)

    u_form = apply_U_exact(f, n)
    route_ii = u_form - u_form.dtilde().scale(Fraction(1, n))

    if route_i.coeffs != route_ii.coeffs:
        raise InvariantViolation(
            f"modified-operator routes disagree for n={n}: "
            f"{route_i.coeffs} vs {route_ii.coeffs}"
        )
    return route_i


def commute_check_exact(f: RationalPoly, n: int, m: int) -> dict[str, Fraction]:
    """Verify the four commutation identities with exact arithmetic.

    Checks, as polynomials, by their exact Bernstein coefficients at the
    common degree:
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
    ut_n_poly = ut_n.to_poly()

    pairs = {
        "dtilde_U": (u_n.dtilde(), apply_U_exact(df, n)),
        "dtilde_Utilde": (ut_n.dtilde(), apply_Utilde_exact(df, n)),
        "U_Utilde": (apply_U_exact(ut_n_poly, n), apply_Utilde_exact(u_n.to_poly(), n)),
        "Utilde_mn": (
            apply_Utilde_exact(ut_n_poly, m),
            apply_Utilde_exact(apply_Utilde_exact(f, m).to_poly(), n),
        ),
    }

    report: dict[str, Fraction] = {}
    for name, (lhs, rhs) in pairs.items():
        disc = (lhs - rhs).max_abs_coeff()
        if disc != 0:
            raise InvariantViolation(f"identity {name} violated for n={n}, m={m}: {disc}")
        report[name] = disc
    return report


def telescope_check_exact(f: RationalPoly, k: int) -> Fraction:
    """Verify the exact one-step telescoping identity of the modified operator.

    Utilde_k f - Utilde_{k+1} f = -(1/(k^2(k+1))) * Dtilde U_{k+1} Dtilde f,
    as an exact polynomial identity, compared by Bernstein coefficients at
    degree k+1.  Returns the maximal coefficient discrepancy (must be 0);
    nonzero raises InvariantViolation.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    lhs = apply_Utilde_exact(f, k) - apply_Utilde_exact(f, k + 1)
    rhs = apply_U_exact(dtilde_exact(f), k + 1).dtilde().scale(Fraction(-1, k * k * (k + 1)))
    disc = (lhs - rhs).max_abs_coeff()
    if disc != 0:
        raise InvariantViolation(f"telescoping identity violated at k={k}: {disc}")
    return disc
