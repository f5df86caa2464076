"""Universal upper bounds on codes from extremal polynomials.

The package computes Delsarte-style bounds on binary codes and spherical
codes: orthogonal systems for the underlying measures, Christoffel-Darboux
kernels, the MRRW and Levenshtein quadratic constructions, the equivalent
spectral route through perturbed Jacobi operators, machine-checked cone
certificates, and an exact simplex oracle for the full Hamming LP.
"""

from .errors import (
    DegreeBudgetError,
    DelboundError,
    NotCertifiedError,
    NumericError,
    SingularOperatorError,
    ValidationError,
)
from .spaces import (
    MeasureSpec,
    Variant,
    custom_space,
    hamming_space,
    max_degree,
    moment_functional,
    node_weights,
    quadrature,
    sphere_space,
    variant_mass,
)
from .orthopoly import (
    JacobiOperator,
    RecurrenceCoeffs,
    eval_basis,
    eval_basis_table,
    jacobi_matrix,
    largest_zero,
    recurrence_coeffs,
    tridiagonal_eigenvalues,
    zeros,
)
from .kernels import KernelParams, cd_identity_residual, cd_kernel, reproduce
from .feasibility import ConeCertificate, Tolerances, cone_certificate, fourier_expand
from .constructions import (
    BoundPolynomial,
    BoundResult,
    bound_for_distance,
    bound_for_s,
    bound_value,
    classical_baselines,
    lev_degree_select,
    lev_even_poly,
    lev_odd_poly,
    mrrw_bound_closed,
    mrrw_poly,
    polynomial_from_fourier,
)
from .spectral import (
    EigenPair,
    build_Tk,
    spectral_bound_fixed,
    spectral_recover_bound,
    top_eigenpair,
    verify_kernel_eigen,
)
from .lp_oracle import (
    LPSolution,
    delsarte_lp,
    even_weight_code,
    hamming_code_7_4,
    hamming_distance,
    krawtchouk,
    min_distance,
    repetition_code,
)
from .nrt import (
    ShapeVector,
    enumerate_shapes,
    nrt_distance,
    nrt_weight,
    shape_of,
    shape_weight,
)

__version__ = "0.1.0"

# The names README documents, and the space, result and exception types
# they take, return or raise. Every other import above stays reachable as
# an attribute of the package.
__all__ = [
    "BoundResult",
    "ConeCertificate",
    "DegreeBudgetError",
    "DelboundError",
    "EigenPair",
    "JacobiOperator",
    "KernelParams",
    "LPSolution",
    "MeasureSpec",
    "NotCertifiedError",
    "NumericError",
    "RecurrenceCoeffs",
    "ShapeVector",
    "SingularOperatorError",
    "Tolerances",
    "ValidationError",
    "Variant",
    "bound_for_distance",
    "bound_for_s",
    "build_Tk",
    "cd_kernel",
    "cone_certificate",
    "delsarte_lp",
    "enumerate_shapes",
    "eval_basis",
    "fourier_expand",
    "hamming_space",
    "mrrw_bound_closed",
    "nrt_distance",
    "quadrature",
    "recurrence_coeffs",
    "shape_weight",
    "spectral_recover_bound",
    "sphere_space",
    "top_eigenpair",
    "zeros",
]
