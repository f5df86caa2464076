"""Bounds from rank-one perturbations of truncated Jacobi matrices.

The kernel K_k(., s) is an eigenfunction of the operator

    T_k(s) = J_k + rho_k e_k e_k^T,   rho_k = a_k p_{k+1}(s) / p_k(s),

with eigenvalue s, and for s between consecutive largest zeros it is the
top (Perron-Frobenius) eigenfunction. That makes the extremal polynomial
constructions recoverable from linear algebra: take the top eigenvalue,
read its eigenvector, square. Rows 0..k-1 of T_k(s) are the three-term
recurrence, so the eigenvector of any eigenvalue lambda is
(p_0(lambda), ..., p_k(lambda)); only the eigenvalue needs a solver, the
spectrum of the tridiagonal operator. This module exercises that route
and the s-independent variant where the corner weight is pinned at x = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .constructions import (
    BoundResult,
    _basis_at,
    _certified_result,
    _kernel_square_poly,
    mrrw_bound_closed,
)
from .errors import NumericError, SingularOperatorError, ValidationError
from .orthopoly import (
    JacobiOperator,
    jacobi_matrix,
    largest_zero,
    recurrence_coeffs,
    tridiagonal_eigenvalues,
)
from .spaces import MeasureSpec, Variant

__all__ = [
    "JacobiOperator",
    "EigenPair",
    "build_Tk",
    "top_eigenpair",
    "verify_kernel_eigen",
    "spectral_recover_bound",
    "spectral_bound_fixed",
]

_RESIDUAL_CONTRACT = 1e-9
_TIE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class EigenPair:
    """Eigenvalue, unit eigenvector with v_0 > 0, and the achieved residual."""

    eigenvalue: float
    vector: np.ndarray
    residual: float


def build_Tk(spec: MeasureSpec, basis: Variant, k: int, s: float) -> JacobiOperator:
    """The perturbed operator T_k(s) with corner weight a_k p_{k+1}(s)/p_k(s)."""
    plain = jacobi_matrix(spec, basis, k)
    table = _basis_at(spec, basis, k + 1, s)
    pk, pk1 = float(table[k]), float(table[k + 1])
    if abs(pk) <= 1e-12:
        raise SingularOperatorError(
            "p_%d(%r) = %.3e vanishes (s sits on a zero of the degree-%d "
            "polynomial); corner weight undefined" % (k, s, pk, k)
        )
    a_k = recurrence_coeffs(spec, basis, k).a[k]
    return JacobiOperator(
        diag=plain.diag, off=plain.off, basis=basis, rho=a_k * pk1 / pk
    )


def _sign_fix(v: np.ndarray) -> np.ndarray:
    for entry in v:
        if entry != 0.0:
            return -v if entry < 0 else v
    return v


def _recurrence_top(T: JacobiOperator):
    """Top eigenvalue of an irreducible Jacobi operator, and its eigenvector
    read off rows 0..k-1 of (T - lambda) v = 0 from v_0 = 1.

    Each entry comes from the previous two by the three-term recurrence at
    lambda, so it carries a small relative error, where a dense
    eigenvector holds the tiny leading entries of a Perron vector only to
    eps times its norm, and with either sign.
    """
    diag = list(T.diag)
    if T.rho is not None:
        diag[-1] += T.rho
    lam = float(tridiagonal_eigenvalues(diag, T.off)[-1])
    v = [1.0]
    prev = 0.0
    for i, a in enumerate(T.off):
        v.append(((lam - diag[i]) * v[i] - prev) / a)
        prev = a * v[i]
    v = np.array(v)
    return lam, v / np.linalg.norm(v)


def top_eigenpair(T) -> EigenPair:
    """Largest eigenvalue and unit eigenvector of a symmetric operator.

    A JacobiOperator whose off-diagonal is positive is irreducible, so its
    top eigenvalue is simple and its eigenvector is positive
    (Perron-Frobenius). The eigenvalue is the top of its spectrum, with rho
    added to the last diagonal entry, and the eigenvector is read from
    the operator's own recurrence at it. Any other symmetric matrix, plain
    or a JacobiOperator, goes through a full eigh; when the top of its
    spectrum is tied within 1e-12 the entrywise positive candidate is
    preferred, matching the Perron-Frobenius pick for irreducible
    operators. Either way the residual |T v - lambda v| must stay below
    1e-9, or NumericError is raised.
    """
    m = T.matrix() if hasattr(T, "matrix") else np.asarray(T, dtype=float)
    if isinstance(T, JacobiOperator) and all(a > 0.0 for a in T.off):
        lam, v = _recurrence_top(T)
    else:
        w, vecs = np.linalg.eigh(m)
        idx = len(w) - 1
        for j in range(len(w) - 2, -1, -1):
            if w[idx] - w[j] > _TIE_TOL:
                break
            cand = _sign_fix(vecs[:, j])
            if np.all(cand > 0.0):
                idx = j
        v = _sign_fix(vecs[:, idx].copy())
        lam = float(w[idx])
    residual = float(np.linalg.norm(m @ v - lam * v))
    if not residual <= _RESIDUAL_CONTRACT:
        raise NumericError(
            "eigenpair residual %.3e breaks the %.0e contract for order %d"
            % (residual, _RESIDUAL_CONTRACT, m.shape[0])
        )
    v.flags.writeable = False
    return EigenPair(eigenvalue=lam, vector=v, residual=residual)


def verify_kernel_eigen(spec: MeasureSpec, basis: Variant, k: int,
                        s: float) -> EigenPair:
    """Check the kernel eigenfunction identity and return the verified pair.

    v = (p_0(s), ..., p_k(s)) must satisfy T_k(s) v = s v, and when s lies
    strictly between the largest zeros x_k and x_{k+1} this v must also be
    the top eigenvector with strictly positive entries. The residual is
    taken on the unit-scaled vector and must stay below 1e-9; any
    violation raises NumericError rather than returning.
    """
    T = build_Tk(spec, basis, k, s)
    v = _sign_fix(_basis_at(spec, basis, k, s).copy())
    v /= np.linalg.norm(v)
    m = T.matrix()
    residual = float(np.linalg.norm(m @ v - s * v))
    if residual > _RESIDUAL_CONTRACT:
        raise NumericError(
            "kernel eigenfunction residual %.3e at k=%d, s=%r" % (residual, k, s)
        )
    lo = largest_zero(spec, basis, k)
    hi = largest_zero(spec, basis, k + 1)
    if lo < s < hi:
        pair = top_eigenpair(T)
        if abs(pair.eigenvalue - s) > 1e-10:
            raise NumericError(
                "top eigenvalue %r drifted from s=%r inside the window"
                % (pair.eigenvalue, s)
            )
        if not np.all(pair.vector > 0.0):
            raise NumericError(
                "Perron-Frobenius violation: top eigenvector has nonpositive "
                "entries at k=%d, s=%r" % (k, s)
            )
        overlap = abs(float(pair.vector @ v))
        if overlap < 1.0 - 1e-8:
            raise NumericError(
                "kernel vector is not the top eigenvector (overlap %.12f)" % overlap
            )
    v.flags.writeable = False
    return EigenPair(eigenvalue=float(s), vector=v, residual=residual)


def spectral_recover_bound(spec: MeasureSpec, basis: Variant, k: int, s: float,
                           tolerances=None) -> BoundResult:
    """Bound rebuilt from the top eigenfunction of T_k(s).

    Squaring the top eigenfunction and multiplying by (x - s) (plus the
    (x + 1) root in the plusminus basis) reproduces the kernel-based
    constructions; for the base basis the result is checked against the
    closed form to 1e-7 relative before it is reported.
    """
    T = build_Tk(spec, basis, k, s)
    pair = top_eigenpair(T)
    poly = _kernel_square_poly(spec, basis, k, s, "spectral", pair.vector)
    res = _certified_result(spec, poly, s, tolerances)
    if basis is not Variant.BASE:
        return res
    closed = mrrw_bound_closed(spec, k, s)
    if not math.isclose(res.bound, closed, rel_tol=1e-7):
        raise NumericError(
            "spectral route %.12g disagrees with closed form %.12g" % (res.bound, closed)
        )
    return replace(res, closed_form=closed)


def spectral_bound_fixed(spec: MeasureSpec, k: int, sign_variant: str = "subtractive",
                         tolerances=None) -> BoundResult:
    """s-independent bound from the corner weight pinned at x = 1.

    Builds J_k + sigma rho_k(1) e_k e_k^T with rho_k(1) = a_k p_{k+1}(1)/p_k(1)
    and sigma chosen by sign_variant. The additive choice carries
    (p_i(1)) as top eigenvector with eigenvalue exactly 1, which makes the
    value formula degenerate, so it is rejected; the subtractive choice
    lands the top eigenvalue lambda_k inside the top window. The certified
    value 1/fhat_0 is returned, with the closed form
    4 a_k p_{k+1}(1) p_k(1)/(1 - lambda_k) attached. Uncertified variants
    are suppressed with a diagnostic.
    """
    if k < 1:
        raise ValidationError("spectral_bound_fixed needs k >= 1")
    if sign_variant not in ("subtractive", "additive"):
        raise ValidationError("sign_variant must be 'subtractive' or 'additive'")
    sigma = -1.0 if sign_variant == "subtractive" else 1.0
    T = build_Tk(spec, Variant.BASE, k, 1.0)
    rho_one = T.rho
    pair = top_eigenpair(replace(T, rho=sigma * rho_one))
    lam = pair.eigenvalue
    if 1.0 - lam <= 1e-12:
        raise SingularOperatorError(
            "1 - lambda_k = %.3e is degenerate for the %s variant at k=%d"
            % (1.0 - lam, sign_variant, k)
        )
    poly = _kernel_square_poly(spec, Variant.BASE, k, lam, "spectral_fixed",
                               pair.vector)
    res = _certified_result(spec, poly, lam, tolerances)
    pk = float(_basis_at(spec, Variant.BASE, k, 1.0)[k])
    closed = 4.0 * rho_one * pk * pk / (1.0 - lam)
    return replace(res, closed_form=closed)
