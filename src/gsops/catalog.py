"""The catalog of test functions with analytic derivatives.

Each entry knows its derivatives up to order 6 (enough for three
applications of Dtilde), whether it is a polynomial (and if so its exact
monomial coefficients, so the operator coefficients can be taken from the
exact engine), and which weighted-smoothness classes it belongs to.  The
class flags decide which inequality checks legitimately apply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exactpoly import RationalPoly

__all__ = [
    "SmoothnessClass",
    "FunctionSpec",
    "MAX_DERIVATIVE_ORDER",
    "CATALOG",
    "get_function",
    "catalog_names",
    "polynomial_function",
]


@dataclass(frozen=True)
class SmoothnessClass:
    """Membership flags for the weighted Sobolev-type classes.

    w2:         f in W^2(phi)      (phi * f'' essentially bounded)
    w20:        f in W^2_0(phi)    (additionally Dtilde f -> 0 at 0 and 1)
    dtilde_w2:  Dtilde f in W^2(phi)
    dtilde_w20: Dtilde f in W^2_0(phi)
    d3_bounded: Dtilde^3 f essentially bounded
    """

    w2: bool
    w20: bool
    dtilde_w2: bool
    dtilde_w20: bool
    d3_bounded: bool


_ALL_SMOOTH = SmoothnessClass(True, True, True, True, True)
# |t-1/2|^{5/2}: phi f'' is bounded and vanishes at the endpoints, but
# Dtilde^2 f already blows up like |t-1/2|^{-3/2} at the kink.
_KINK_52 = SmoothnessClass(w2=True, w20=True, dtilde_w2=False, dtilde_w20=False, d3_bounded=False)

MAX_DERIVATIVE_ORDER = 6


@dataclass(frozen=True)
class FunctionSpec:
    """A catalog entry: vectorized evaluation plus analytic derivatives.

    Polynomial entries carry their exact monomial form in ``poly``, from
    which ``polynomial_degree`` is read; both are None for transcendental
    entries.
    """

    name: str
    derivative_fn: Callable[[int, np.ndarray], np.ndarray]
    poly: RationalPoly | None
    smoothness: SmoothnessClass

    @property
    def polynomial_degree(self) -> int | None:
        return None if self.poly is None else max(self.poly.degree, 0)

    def derivative(self, order: int, x):
        """The order-th derivative at x (scalar or ndarray).

        order 0 is the function itself.
        """
        if not 0 <= order <= MAX_DERIVATIVE_ORDER:
            raise ValueError(f"{self.name}: derivative order {order} outside 0..{MAX_DERIVATIVE_ORDER}")
        xs = np.asarray(x, dtype=float)
        out = np.asarray(self.derivative_fn(order, np.atleast_1d(xs)), dtype=float)
        return float(out[0]) if xs.ndim == 0 else out

    def eval(self, x):
        return self.derivative(0, x)


def polynomial_function(name: str, coeffs) -> FunctionSpec:
    """FunctionSpec for an exact polynomial given by monomial coefficients."""
    p = RationalPoly(coeffs)
    chain = [p]
    for _ in range(MAX_DERIVATIVE_ORDER):
        chain.append(chain[-1].derivative())

    def deriv(order: int, xs: np.ndarray) -> np.ndarray:
        return np.broadcast_to(np.asarray(chain[order].eval_float(xs)), xs.shape).copy()

    return FunctionSpec(
        name=name,
        derivative_fn=deriv,
        poly=p,
        smoothness=_ALL_SMOOTH,
    )


def _exp_entry() -> FunctionSpec:
    return FunctionSpec(
        name="exp",
        derivative_fn=lambda order, xs: np.exp(xs),
        poly=None,
        smoothness=_ALL_SMOOTH,
    )


def _sinpi_entry() -> FunctionSpec:
    def deriv(order: int, xs: np.ndarray) -> np.ndarray:
        return math.pi**order * np.sin(math.pi * xs + order * math.pi / 2.0)

    return FunctionSpec(
        name="sinpi",
        derivative_fn=deriv,
        poly=None,
        smoothness=_ALL_SMOOTH,
    )


def _abs52_entry() -> FunctionSpec:
    # d^j/dx^j |x-1/2|^{5/2} = c_j |x-1/2|^{5/2-j} sign(x-1/2)^j; unbounded at
    # the kink from order 3 on (the smoothness flags keep those orders out of
    # every Dtilde-based check).
    coeff = [1.0]
    for j in range(MAX_DERIVATIVE_ORDER):
        coeff.append(coeff[-1] * (2.5 - j))

    def deriv(order: int, xs: np.ndarray) -> np.ndarray:
        u = xs - 0.5
        a = np.abs(u)
        with np.errstate(divide="ignore"):
            mag = coeff[order] * a ** (2.5 - order)
        if order % 2 == 1:
            mag = mag * np.sign(u)
        return mag

    return FunctionSpec(
        name="abs52",
        derivative_fn=deriv,
        poly=None,
        smoothness=_KINK_52,
    )


CATALOG: dict[str, FunctionSpec] = {
    spec.name: spec
    for spec in (
        polynomial_function("one", [1]),
        polynomial_function("t", [0, 1]),
        polynomial_function("t2", [0, 0, 1]),
        polynomial_function("t3", [0, 0, 0, 1]),
        polynomial_function("t5mt2", [0, 0, -1, 0, 0, 1]),
        _exp_entry(),
        _sinpi_entry(),
        _abs52_entry(),
    )
}


def catalog_names() -> list[str]:
    return list(CATALOG)


def get_function(name: str) -> FunctionSpec:
    try:
        return CATALOG[name]
    except KeyError:
        raise ValueError(f"unknown function {name!r}; available: {', '.join(CATALOG)}") from None
