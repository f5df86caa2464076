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
formed and no spectrum is taken. This operator layer reads nothing
above orthopoly; constructions squares the eigenvector on its one route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add, mul

import numpy as np

from .errors import NumericError, SingularOperatorError, ValidationError
from .orthopoly import _EPS, JacobiOperator, _basis_at
from .spaces import MeasureSpec, Variant

# bound by the imports above; read before them, the package __getattr__ loads every layer
from . import orthopoly

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
    once. One read of the coefficients gives J_k and a_k. p_k(s) within
    (k + 1) eps of the largest |p_i(s)| of the run (or 1e-12) is rounding
    noise of a zero of p_k, and the operator is refused, as is an s
    outside [-1, 1], before anything is evaluated."""
    if not -1.0 <= s <= 1.0:
        raise ValidationError("T_k(s) needs s in [-1, 1], got %r" % (s,))
    rc = orthopoly._jacobi_coeffs(spec, basis, k)
    table = _basis_at(spec, basis, k + 1, s)
    pk, pk1 = float(table[k]), float(table[k + 1])
    if abs(pk) <= max(1e-12, (k + 1) * _EPS * float(np.abs(table).max())):
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


def _residual(d, e, v: list, lam: float) -> float:
    """|T v - lam v| for the tridiagonal T with the diagonal d and the
    off-diagonal e, in O(k) Python floats without forming T: entry j is
    ((d_j - lam) v_j + e_j v_{j+1}) + e_{j-1} v_{j-1}."""
    res = [((dj - lam) * vj + up) + down for dj, vj, up, down
           in zip(d, v, (*map(mul, e, v[1:]), 0.0), (0.0, *map(mul, e, v)))]
    return math.sqrt(sum(r * r for r in res))


def top_eigenpair(T: JacobiOperator, start=None) -> EigenPair:
    """Largest eigenvalue and unit eigenvector of an irreducible Jacobi
    operator, in O(k) per pass over its LDL^T pivots.

    T must be a JacobiOperator whose off-diagonal is all positive, as every
    build_Tk operator is; anything else raises ValidationError. Its top
    eigenvalue is simple, with a positive eigenvector (Perron-Frobenius).

    The pivots of t - T are the Sturm ratios (Barth, Martin and Wilkinson
    1967): where r_0..r_{k-1} are positive, t lies above the leading
    block's spectrum, and there r_k vanishes only at the top eigenvalue.
    One pass at start settles the pair if r_0..r_{k-1} are positive, the
    Newton step r_k / r_k' is within eps of the operator's scale and the
    pair meets the residual contract; the s of T_k(s) in its window is
    such a start. Otherwise the pair is read off one pass just above the
    top eigenvalue as orthopoly._top_zero finds it.

    The eigenvector is read off that pass's pivots, v_0 = 1 and
    v_{i+1} = v_i r_i / e_i: positive, and accurate entry by entry even
    where tiny next to its norm; the eigenvalue is t less the Newton
    step. Its residual |T v - lambda v|, taken from the diagonals, must
    stay below 1e-9, or NumericError is raised.
    """
    if not (isinstance(T, JacobiOperator) and all(map((0.0).__lt__, T.off))):
        raise ValidationError(
            "top_eigenpair needs a Jacobi operator with a positive off-diagonal"
        )
    diag, off = _diagonal(T), T.off
    lo, hi = max(diag), max(map(add, map(add, diag, (0.0, *off)), (*off, 0.0)))
    if not (all(map(math.isfinite, diag)) and math.isfinite(hi - lo)):
        raise NumericError("operator of order %d has a non-finite entry" % len(diag))
    tol = _EPS * max(abs(lo), abs(hi))
    pair = None if start is None else _pair_at(diag, off, float(start), tol)
    if pair is None or not pair[2] <= _RESIDUAL_CONTRACT:
        top = math.nextafter(orthopoly._top_zero(diag, off), math.inf)
        pair = _pair_at(diag, off, top, math.inf)
    eigenvalue, v, residual = pair or (math.nan, None, math.nan)
    if not residual <= _RESIDUAL_CONTRACT:
        raise NumericError(
            "eigenpair residual %.3e breaks the %.0e contract for order %d"
            % (residual, _RESIDUAL_CONTRACT, len(diag))
        )
    v.flags.writeable = False
    return EigenPair(eigenvalue=eigenvalue, vector=v, residual=residual)


def _pair_at(diag: list, off, t: float, tol: float):
    """(t - r_k / r_k', v, residual) from one pass over the pivots of t - T,
    v the unit vector their running product gives; None where a pivot
    before r_k is not positive or the Newton step r_k / r_k' exceeds tol.
    The product w_0 = 1, w_{i+1} = w_i (r_i / e_i) runs in Python floats,
    one multiplication per entry in index order; w becomes one array,
    scaled by the numpy norm sqrt(w @ w), and the residual of that v is
    taken in Python floats."""
    r, slope = orthopoly._pivots(diag, off, t)
    step = r[-1] / slope
    if len(r) != len(diag) or not abs(step) <= tol:
        return None
    w = [1.0]
    for ri, e in zip(r, off):
        w.append(w[-1] * (ri / e))
    v = np.array(w)
    v /= math.sqrt(v @ v)
    return t - step, v, _residual(diag, off, v.tolist(), t - step)


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
    residual = _residual(_diagonal(T), T.off, v.tolist(), s)
    if not residual <= _RESIDUAL_CONTRACT:
        raise NumericError(
            "kernel eigenfunction residual %.3e at k=%d, s=%r" % (residual, k, s)
        )
    # x_k < s < x_{k+1}: k + 1 largest zeros lie below s, as many at or below it
    if {orthopoly._zeros_below(spec, basis, t, k + 1)
            for t in (s, math.nextafter(s, math.inf))} == {k + 1}:
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
