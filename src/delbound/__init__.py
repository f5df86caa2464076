"""Universal upper bounds on codes from extremal polynomials.

The package computes Delsarte-style bounds on binary codes and spherical
codes: orthogonal systems for the underlying measures, Christoffel-Darboux
kernels, the MRRW and Levenshtein quadratic constructions, the equivalent
spectral route through perturbed Jacobi operators, machine-checked cone
certificates, and an exact simplex oracle for the full Hamming LP.

Only the pure-Python layers load with the package: the errors, the LP
oracle and the NRT shape tables. The six numpy-backed modules load as one
group on the first access of any of them, or of any name the package
takes from them (PEP 562), and the namespace then holds every name an
eager import of them would bind. Every record of the package is an
immutable named tuple, so no module loads `dataclasses`, and `_replace`
takes the place of `dataclasses.replace`.
"""

from .errors import (
    DegreeBudgetError,
    DelboundError,
    NotCertifiedError,
    NumericError,
    SingularOperatorError,
    ValidationError,
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

# The names the package takes from each numpy-backed module, in import
# order. Each is bound on the first access of any of them.
_POLYNOMIAL_STACK = {
    "spaces": (
        "MeasureSpec", "Variant", "custom_space", "hamming_space", "max_degree",
        "moment_functional", "node_weights", "quadrature", "sphere_space",
        "variant_mass",
    ),
    "orthopoly": (
        "JacobiOperator", "RecurrenceCoeffs", "eval_basis", "eval_basis_table",
        "jacobi_matrix", "largest_zero", "recurrence_coeffs",
        "tridiagonal_eigenvalues", "zeros",
    ),
    "kernels": ("KernelParams", "cd_identity_residual", "cd_kernel", "reproduce"),
    "feasibility": ("ConeCertificate", "Tolerances", "cone_certificate", "fourier_expand"),
    "constructions": (
        "BoundPolynomial", "BoundResult", "bound_for_distance", "bound_for_s",
        "bound_value", "classical_baselines", "lev_degree_select", "lev_even_poly",
        "lev_odd_poly", "mrrw_bound_closed", "mrrw_poly", "polynomial_from_fourier",
        "spectral_recover_bound",
    ),
    "spectral": ("EigenPair", "build_Tk", "top_eigenpair", "verify_kernel_eigen"),
}
_DEFERRED = frozenset(_POLYNOMIAL_STACK).union(*_POLYNOMIAL_STACK.values())


def _load_polynomial_stack():
    from importlib import import_module

    namespace = globals()
    for module, names in _POLYNOMIAL_STACK.items():
        # importing a submodule also binds it here, as an attribute
        mod = import_module("." + module, __name__)
        namespace.update((name, getattr(mod, name)) for name in names)


def __getattr__(name):
    if name in _DEFERRED:
        _load_polynomial_stack()
        return globals()[name]
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted(_DEFERRED.union(globals()))

# The names README documents, and the space, result and exception types
# they take, return or raise. Every other name imported or deferred above
# stays reachable as an attribute of the package.
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
