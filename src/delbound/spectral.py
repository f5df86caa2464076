"""Bounds from rank-one perturbations of truncated Jacobi matrices.

The kernel K_k(., s) is an eigenfunction of the operator

    T_k(s) = J_k + rho_k e_k e_k^T,   rho_k = a_k p_{k+1}(s) / p_k(s),

with eigenvalue s, and for s between consecutive largest zeros it is the
top (Perron-Frobenius) eigenfunction. That makes the extremal polynomial
constructions recoverable from linear algebra: take the top eigenvalue,
read its eigenvector, square. Both come from one O(k) pass over the LDL^T
pivots of t - T_k(s) (orthopoly._pivots): the top eigenvalue is the t at
which the leading block's pivots are all positive and the last vanishes,
and the eigenvector is the product of the pivots, so no dense matrix is
formed and no spectrum is taken. This module exercises that route and
the s-independent variant where the corner weight is pinned at x = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from operator import add

import numpy as np

from . import orthopoly
from .constructions import (
    BoundResult,
    _basis_at,
    _certified_result,
    _kernel_square_poly,
    mrrw_bound_closed,
)
from .errors import NumericError, SingularOperatorError, ValidationError
from .feasibility import _certificate
from .orthopoly import _EPS, JacobiOperator, largest_zero
from .spaces import MeasureSpec, Variant

_RESIDUAL_CONTRACT = 1e-9


@dataclass(frozen=True, eq=False)
class EigenPair:
    """Eigenvalue, unit eigenvector with v_0 > 0, and the achieved residual."""

    eigenvalue: float
    vector: np.ndarray
    residual: float


def _operator_at(spec: MeasureSpec, basis: Variant, k: int, s: float):
    """T_k(s) and the run p_0(s)..p_{k+1}(s) its corner weight is read
    from, so that a caller who needs p(s) as well runs the recurrence at s
    once. One read of the coefficients gives J_k and a_k."""
    rc = orthopoly._jacobi_coeffs(spec, basis, k)
    table = _basis_at(spec, basis, k + 1, s)
    pk, pk1 = float(table[k]), float(table[k + 1])
    if abs(pk) <= 1e-12:
        raise SingularOperatorError(
            "p_%d(%r) = %.3e vanishes (s sits on a zero of the degree-%d "
            "polynomial); corner weight undefined" % (k, s, pk, k)
        )
    T = JacobiOperator(diag=rc.b[: k + 1], off=rc.a[:k], basis=basis, rho=rc.a[k] * pk1 / pk)
    return T, table


def build_Tk(spec: MeasureSpec, basis: Variant, k: int, s: float) -> JacobiOperator:
    """The perturbed operator T_k(s) with corner weight a_k p_{k+1}(s)/p_k(s)."""
    return _operator_at(spec, basis, k, s)[0]


def _diagonal(T: JacobiOperator) -> list:
    """The diagonal of T with rho added to its last entry."""
    diag = list(T.diag)
    if T.rho is not None:
        diag[-1] += T.rho
    return diag


def _residual(d: np.ndarray, e: np.ndarray, v: np.ndarray, lam: float) -> float:
    """|T v - lam v| for the tridiagonal T with the diagonal d and the
    off-diagonal e, both arrays, in O(k) without forming T."""
    res = (d - lam) * v
    res[:-1] += e * v[1:]
    res[1:] += e * v[:-1]
    return math.sqrt(res @ res)


def top_eigenpair(T: JacobiOperator, start=None) -> EigenPair:
    """Largest eigenvalue and unit eigenvector of an irreducible Jacobi
    operator, in O(k) per pass over its LDL^T pivots.

    T must be a JacobiOperator whose off-diagonal is all positive, as every
    build_Tk operator is; anything else raises ValidationError. Its top
    eigenvalue is simple, with a positive eigenvector (Perron-Frobenius).

    The pivots of t - T are the Sturm ratios (Barth, Martin and Wilkinson
    1967): where r_0..r_{k-1} are positive, t lies above the leading
    block's spectrum, and there r_k is increasing and concave and vanishes
    only at the top eigenvalue, the root of the secular equation of the
    rank-one corner (Golub 1973). Newton's method on r_k from start finds
    it inside a bisection bracket from the largest diagonal entry to the
    Gershgorin bound, the default start; a step from below never passes
    the root but by rounding. The search ends, with no iteration cap, once
    a step is within eps of the bracket's scale, the bracket has closed to
    that width, or a step from below lands above the root, and the pair
    meets the residual contract or no Newton point is left strictly inside
    the bracket. The s of T_k(s) in its window is the eigenvalue, so that
    start takes one pass; a start changes only the count of passes, though
    the result may differ in its last bits.

    The eigenvector is read off the last pass's pivots, v_0 = 1 and
    v_{i+1} = v_i r_i / e_i: positive, and accurate entry by entry even
    where tiny next to its norm. Its residual |T v - lambda v|, taken from
    the diagonals, must stay below 1e-9, or NumericError is raised.
    """
    if not (isinstance(T, JacobiOperator) and all(map((0.0).__lt__, T.off))):
        raise ValidationError(
            "top_eigenpair needs a Jacobi operator with a positive off-diagonal"
        )
    diag, off, e = _diagonal(T), T.off, np.array(T.off)
    k = len(off)
    lo, hi = max(diag), max(map(add, map(add, diag, (0.0, *off)), (*off, 0.0)))
    if not (all(map(math.isfinite, diag)) and math.isfinite(hi - lo)):
        raise NumericError("operator of order %d has a non-finite entry" % (k + 1))
    tol = _EPS * max(abs(lo), abs(hi))
    hi += tol
    t = hi if start is None else min(max(float(start), lo), hi)
    climbing = False
    while True:
        r, slope = orthopoly._pivots(diag, off, t)
        if len(r) == k + 1:
            step = r[k] / slope
            above = r[k] > 0.0
            if above:
                hi = t
            elif r[k] < 0.0:
                lo = t
            inside = lo < t - step < hi
            # a Newton step from below the root lands past it only by rounding
            if abs(step) <= tol or hi - lo <= tol or (above and climbing):
                v = np.ones(k + 1)
                np.cumprod(np.divide(r[:k], e), out=v[1:])
                v /= math.sqrt(v @ v)
                residual = _residual(np.array(diag), e, v, t - step)
                if residual <= _RESIDUAL_CONTRACT or not inside:
                    break
            if inside:
                t, climbing = t - step, not above
                continue
        elif t == hi:
            raise NumericError("pivots nonpositive at the Gershgorin bound %r" % hi)
        else:
            lo = t
        mid = lo + 0.5 * (hi - lo)
        t, climbing = (mid if hi - lo > tol and lo < mid < hi else hi), False
    if not residual <= _RESIDUAL_CONTRACT:
        raise NumericError(
            "eigenpair residual %.3e breaks the %.0e contract for order %d"
            % (residual, _RESIDUAL_CONTRACT, k + 1)
        )
    v.flags.writeable = False
    return EigenPair(eigenvalue=t - step, vector=v, residual=residual)


def verify_kernel_eigen(spec: MeasureSpec, basis: Variant, k: int,
                        s: float) -> EigenPair:
    """Check the kernel eigenfunction identity and return the verified pair.

    v = (p_0(s), ..., p_k(s)) must satisfy T_k(s) v = s v, and when s lies
    strictly between the largest zeros x_k and x_{k+1} this v must also be
    the top eigenvector with strictly positive entries, found by
    top_eigenpair from s. v is taken as it is, scaled to unit norm: its
    first entry p_0 = 1/sqrt(mass) is positive, so it already has the sign
    of the Perron vector. The residual, taken from the diagonals, must
    stay below 1e-9; any violation raises NumericError rather than
    returning.
    """
    T, table = _operator_at(spec, basis, k, s)
    v = table[: k + 1] / np.linalg.norm(table[: k + 1])
    residual = _residual(np.array(_diagonal(T)), np.array(T.off), v, s)
    if not residual <= _RESIDUAL_CONTRACT:
        raise NumericError(
            "kernel eigenfunction residual %.3e at k=%d, s=%r" % (residual, k, s)
        )
    lo = largest_zero(spec, basis, k)
    hi = largest_zero(spec, basis, k + 1)
    if lo < s < hi:
        pair = top_eigenpair(T, start=s)
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
    return _recovered(spec, basis, k, s, tolerances, {})


def _recovered(spec: MeasureSpec, basis: Variant, k: int, s: float, tolerances, fields):
    """spectral_recover_bound, with the other fields given."""
    T, table = _operator_at(spec, basis, k, s)
    # an eigenvector product that overflows is refused for its NaN residual
    with np.errstate(over="ignore", invalid="ignore"):
        pair = top_eigenpair(T, start=s)
        poly = _kernel_square_poly(spec, basis, k, s, "spectral", pair.vector)
        cert = _certificate(spec, poly, s, tolerances)
    closed = None
    if basis is Variant.BASE and cert.passed:
        closed = mrrw_bound_closed(spec, k, s, at_s=table)
        if not math.isclose(1.0 / cert.fhat[0], closed, rel_tol=1e-7):
            raise NumericError("spectral route %.12g disagrees with closed form %.12g"
                               % (1.0 / cert.fhat[0], closed))
    return _certified_result(spec, poly, s, tolerances, cert, closed_form=closed, **fields)


def spectral_bound_fixed(spec: MeasureSpec, k: int, tolerances=None) -> BoundResult:
    """s-independent bound from the corner weight pinned at x = 1.

    Builds J_k - rho_k(1) e_k e_k^T with rho_k(1) = a_k p_{k+1}(1)/p_k(1),
    whose top eigenvalue lambda_k lands inside the window x_k < lambda_k <
    x_{k+1}: on that window the corner weight of T_k(s) runs over every
    negative value once, -rho_k(1) among them. The eigensolve starts at the
    window's midpoint. 1 - lambda_k at or below 1e-12 is refused as
    degenerate. The certified value
    1/fhat_0 of the square of its top eigenvector at lambda_k is returned,
    with the closed form 4 a_k p_{k+1}(1) p_k(1)/(1 - lambda_k) attached.
    p(1) is read from the cached basis_at_one table. An uncertified value
    is refused with a diagnostic.
    """
    if k < 1:
        raise ValidationError("spectral_bound_fixed needs k >= 1")
    T = build_Tk(spec, Variant.BASE, k, 1.0)
    rho_one = T.rho
    lo = largest_zero(spec, Variant.BASE, k)
    hi = largest_zero(spec, Variant.BASE, k + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        pair = top_eigenpair(replace(T, rho=-rho_one), start=0.5 * (lo + hi))
        lam = pair.eigenvalue
        if 1.0 - lam <= 1e-12:
            raise SingularOperatorError(
                "1 - lambda_k = %.3e is degenerate at k=%d" % (1.0 - lam, k)
            )
        poly = _kernel_square_poly(spec, Variant.BASE, k, lam, "spectral_fixed", pair.vector)
        cert = _certificate(spec, poly, lam, tolerances)
    pk = float(_basis_at(spec, Variant.BASE, k, 1.0)[k])
    closed = 4.0 * rho_one * pk * pk / (1.0 - lam)
    return _certified_result(spec, poly, lam, tolerances, cert, closed_form=closed)
