"""Numerical and exact-arithmetic engine for the genuine Bernstein-Durrmeyer
(Goodman-Sharma) operator and its non-positive O(n^-2) modification.

The package verifies the operator identities, the norm bound, the
Jackson/Voronovskaya/Bernstein-type inequalities, and the two-sided
K-functional estimates at desk scale, and measures convergence rates.
"""

__version__ = "0.1.0"

from .basis import (
    TailSums,
    bernstein_matrix,
    moment,
    phi_big,
    tail_sums,
    xi_zero,
)
from .catalog import CATALOG, FunctionSpec, SmoothnessClass, get_function
from .errors import IntegrationError, InvariantViolation, PreconditionError, ToleranceError
from .exactpoly import (
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
from .operators import (
    BernsteinForm,
    apply_U,
    apply_Utilde,
    dtilde_form,
    dtilde_of_function,
)
from .quadrature import QuadratureRule, gauss_legendre, u_coefficients_numeric
from .analysis import (
    BERNSTEIN_CONSTANT,
    CONVERSE_CONSTANT,
    CONVERSE_SCALE_FACTOR,
    InequalityReport,
    KfSandwich,
    SupNormEstimate,
    check_bernstein_inequality,
    check_converse,
    check_direct,
    check_jackson,
    check_voronovskaya,
    kfunctional_sandwich,
    lebesgue_bound,
    sup_norm,
)
