"""Christoffel-Darboux reproducing kernels over any orthonormal system.

K_k(x, s) = sum_{i<=k} p_i(s) p_i(x) is evaluated by direct summation of
recurrence values. The quotient form of the kernel is never used for
evaluation (it degenerates at x = s); it exists here only as a residual
check, cd_identity_residual.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .errors import ValidationError
from .orthopoly import _check_degree, eval_basis_table, recurrence_coeffs
from .spaces import MeasureSpec, Variant, moment_functional


class KernelParams(namedtuple("KernelParams", "basis k s")):
    """Degree and second argument of a kernel over a chosen basis: a named
    tuple."""

    __slots__ = ()


def cd_kernel(spec: MeasureSpec, params: KernelParams, x):
    """K_k(x, s) in the requested basis; x may be a scalar or an array."""
    basis, k, s = params
    _check_degree(spec, basis, k, "cd_kernel")
    scalar = np.isscalar(x)
    ps = eval_basis_table(spec, basis, k, s)[:, 0]
    px = eval_basis_table(spec, basis, k, x)
    out = ps @ px
    return float(out[0]) if scalar else out


def cd_identity_residual(spec: MeasureSpec, params: KernelParams, x):
    """Defect of (x - s) K_k(x, s) = a_k (p_{k+1}(x) p_k(s) - p_{k+1}(s) p_k(x)).

    Analytically zero. The defect is measured relative to the magnitude of
    the quantities compared, clipped below at one: near the endpoints the
    orthonormal values grow like sqrt(binomial(n, k)), so a raw difference
    carries their ulp and only the normalized defect is contractually
    below 1e-9.
    """
    basis, k, s = params
    scalar = np.isscalar(x)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    table_x = eval_basis_table(spec, basis, k + 1, xs)
    table_s = eval_basis_table(spec, basis, k + 1, s)[:, 0]
    a_k = recurrence_coeffs(spec, basis, k).a[k]
    lhs = (xs - s) * (table_s[: k + 1] @ table_x[: k + 1])
    up = a_k * table_x[k + 1] * table_s[k]
    down = a_k * table_s[k + 1] * table_x[k]
    scale = np.maximum.reduce([np.ones_like(lhs), np.abs(lhs),
                               np.abs(up), np.abs(down)])
    resid = (lhs - (up - down)) / scale
    return float(resid[0]) if scalar else resid


def reproduce(spec: MeasureSpec, basis: Variant, k: int, y: float, f, f_degree: int):
    """Inner product of K_k(., y) with f under the basis's own measure.

    For deg f <= k this equals f(y): the kernel acts as a delta function
    on polynomials of degree up to k.
    """
    if f_degree > k:
        raise ValidationError(
            "reproduce needs deg f <= k, got degree %d against k = %d" % (f_degree, k)
        )
    params = KernelParams(basis, k, y)

    def integrand(x):
        return cd_kernel(spec, params, x) * np.asarray(f(x), dtype=float)

    return moment_functional(spec, basis, integrand, degree=k + f_degree)
