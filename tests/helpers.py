"""Shared by the test modules: U_n f as every command builds it."""

from gsops.analysis import DEFAULT_GRID, Sweep


def sweep_U(f, n, tol=1e-10):
    """U_n f from a new Sweep, its coefficients certified to ``tol``."""
    return Sweep(DEFAULT_GRID, tol).U(f, n)
