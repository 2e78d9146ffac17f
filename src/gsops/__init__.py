"""Numerical and exact-arithmetic engine for the genuine Bernstein-Durrmeyer
(Goodman-Sharma) operator and its non-positive O(n^-2) modification.

The package verifies the operator identities, the norm bound, the
Jackson/Voronovskaya/Bernstein-type inequalities, and the two-sided
K-functional estimates at desk scale, and measures convergence rates.
"""

__version__ = "0.1.0"
