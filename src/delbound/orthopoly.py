"""Orthonormal polynomial engine.

Recurrence coefficients for the base and adjacent systems, forward-recurrence
evaluation, truncated Jacobi matrices, and zeros as the eigenvalues of
those matrices (largest_zero and _zeros_below, O(k) passes over LDL^T pivots).
Every orthonormal family {p_i} here satisfies

    x p_i(x) = a_i p_{i+1}(x) + b_i p_i(x) + a_{i-1} p_{i-1}(x)

with p_{-1} = 0 and p_0 = 1/sqrt(mass), where mass is the total measure
(1 for base measures, less for the unnormalized adjacent ones).

Every system of a Hamming space or a sphere is a closed form (Krawtchouk
on n, n-1 and n-2 points; Jacobi on sphere:d). The Stieltjes procedure
derives only the adjacent systems of custom spaces and the systems of any
other discrete measure.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import add

import numpy as np

from .errors import ValidationError
from .spaces import (
    MeasureSpec,
    Variant,
    _gauss_rule,
    adjacent_rule_points,
    max_degree,
    node_weights,
    quadrature,
    variant_multiplier,
)

_EXTRAPOLATION_SLACK = 1e-12
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class RecurrenceCoeffs:
    """Coefficients a_0..a_m, b_0..b_m plus the measure's total mass."""

    a: tuple
    b: tuple
    mass: float

    @cached_property
    def _steps(self) -> tuple:
        """(b_i, a_{i-1}^2) for i = 1..m: what a step of _zeros_below reads."""
        return tuple(zip(self.b[1:], [e * e for e in self.a]))


@dataclass(frozen=True)
class JacobiOperator:
    """Truncated Jacobi matrix, optionally with a corner perturbation.

    diag holds b_0..b_k, off holds a_0..a_{k-1}. When rho is not None the
    operator is J_k + rho * e_k e_k^T, i.e. rho is added to the last
    diagonal entry.
    """

    diag: tuple
    off: tuple
    basis: Variant
    rho: float | None = None

    @property
    def order(self) -> int:
        return len(self.diag)

    def matrix(self) -> np.ndarray:
        n = self.order
        m = np.zeros((n, n))
        m[np.arange(n), np.arange(n)] = self.diag
        if n > 1:
            idx = np.arange(n - 1)
            m[idx, idx + 1] = self.off
            m[idx + 1, idx] = self.off
        if self.rho is not None:
            m[n - 1, n - 1] += self.rho
        return m


def _check_degree(spec: MeasureSpec, basis: Variant, needed: int, what: str):
    cap = max_degree(spec, basis)
    if spec.kind == "custom" and basis is Variant.BASE:
        cap = len(spec.ab[0]) - 1
    if cap is not None and needed > cap:
        raise ValidationError(
            "%s needs coefficient index %d but %s/%s supports at most %d"
            % (what, needed, spec.label(), basis.value, cap)
        )


def _stieltjes(x: np.ndarray, w: np.ndarray, m: int) -> RecurrenceCoeffs:
    """The discrete Stieltjes procedure for the measure sum w_j delta(x_j),
    run to index m. A measure on fewer points than m + 1 loses positivity
    first: the residual norm a_i vanishes at some i < m, and the request
    is refused."""
    keep = w > 0.0
    x, w = x[keep], w[keep]
    mass = float(np.sum(w))
    a, b = [], []
    prev, cur = np.zeros_like(x), np.full_like(x, 1.0 / math.sqrt(mass))
    for i in range(m + 1):
        b.append(float(np.dot(w, x * cur * cur)))
        resid = (x - b[-1]) * cur - (a[-1] if a else 0.0) * prev
        a.append(math.sqrt(float(np.dot(w, resid * resid))))
        if i < m:
            if a[-1] < 1e-13:
                raise ValidationError(
                    "measure lost positivity at index %d; degree request too high" % i
                )
            prev, cur = cur, resid / a[-1]
    return RecurrenceCoeffs(a=tuple(a), b=tuple(b), mass=mass)


@lru_cache(maxsize=None)
def _coeffs_cached(spec: MeasureSpec, basis: Variant, m: int) -> RecurrenceCoeffs:
    plusminus = basis is Variant.PLUSMINUS
    if spec.kind == "hamming":
        # (1 - x) dmu and (1 - x^2) dmu are binomial(n - 1) and binomial(n - 2)
        # under affine maps: Krawtchouk systems whose a_i vanish at the top.
        n, top = spec.params[0], max_degree(spec, basis)
        if m < top:
            # slices of the full tuples share their float objects
            full = _coeffs_cached(spec, basis, top)
            return RecurrenceCoeffs(a=full.a[: m + 1], b=full.b[: m + 1], mass=full.mass)
        a = tuple(math.sqrt((top - i) * (i + 1)) / n for i in range(m + 1))
        b = (-1.0 / n if basis is Variant.MINUS else 0.0,) * (m + 1)
        return RecurrenceCoeffs(a=a, b=b, mass=(n - 1) / n if plusminus else 1.0)
    if spec.kind == "sphere":
        # The base weight (1 - x)^al (1 + x)^be has al = be = (d - 3)/2, and
        # the factors 1 - x and 1 + x raise al and be by one: orthonormal
        # Jacobi (Szego, section 4.5) with t = 2i + al + be. The d = 3 base
        # b_0 is 0/0, so b = 0 wherever al = be.
        d = spec.params[0]
        al = (d - 3) / 2 + (basis is not Variant.BASE)
        be = (d - 3) / 2 + plusminus
        a, b = [], []
        for i in range(m + 1):
            t = 2 * i + al + be
            num = 4 * (i + 1) * (i + 1 + al) * (i + 1 + be) * (i + 1 + al + be)
            a.append(math.sqrt(num / ((t + 2) ** 2 * (t + 3) * (t + 1))))
            b.append(0.0 if al == be else (be * be - al * al) / (t * (t + 2)))
        mass = (d - 1) / d if plusminus else 1.0
        return RecurrenceCoeffs(a=tuple(a), b=tuple(b), mass=mass)
    if spec.kind == "custom" and basis is Variant.BASE:
        ca, cb = spec.ab
        return RecurrenceCoeffs(a=tuple(ca[: m + 1]), b=tuple(cb[: m + 1]), mass=1.0)
    if spec.discrete:
        return _stieltjes(*node_weights(spec, basis), m)
    # Adjacent system of a custom space: a Gauss rule of the base measure
    # large enough that every Stieltjes inner product is integrated exactly.
    x, w = quadrature(spec, Variant.BASE, adjacent_rule_points(basis, m))
    return _stieltjes(x, w * variant_multiplier(basis, x), m)


def recurrence_coeffs(spec: MeasureSpec, basis: Variant, m: int) -> RecurrenceCoeffs:
    """Orthonormal recurrence coefficients a_0..a_m, b_0..b_m.

    Coefficient a_i couples p_i to p_{i+1}; requesting m equal to the
    system's maximal degree is allowed and yields a trailing a_m of zero
    for discrete measures (the residual past the support vanishes).
    """
    if m < 0:
        raise ValidationError("coefficient index must be nonnegative")
    _check_degree(spec, basis, m, "recurrence_coeffs")
    return _coeffs_cached(spec, basis, m)


def eval_basis_table(spec: MeasureSpec, basis: Variant, deg: int, x) -> np.ndarray:
    """Values of p_0..p_deg (deg <= max_degree) at x, a (deg+1, len(x)) array."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if deg < 0:
        raise ValidationError("degree must be nonnegative")
    cap = max_degree(spec, basis)
    if cap is not None and deg > cap:
        raise ValidationError("eval_basis_table degree %d exceeds %s/%s (max degree %d)"
                              % (deg, spec.label(), basis.value, cap))
    rc = _coeffs_cached(spec, basis, max(deg - 1, 0))
    if np.any(np.abs(x) > 1.0 + _EXTRAPOLATION_SLACK):
        warnings.warn(
            "evaluating orthonormal system outside [-1, 1] (extrapolation)",
            RuntimeWarning,
            stacklevel=2,
        )
    a, b = rc.a, rc.b
    out = np.empty((deg + 1, x.size))
    out[0] = 1.0 / math.sqrt(rc.mass)
    if deg >= 1:
        out[1] = (x - b[0]) * out[0] / a[0]
    for i in range(1, deg):
        out[i + 1] = ((x - b[i]) * out[i] - a[i - 1] * out[i - 1]) / a[i]
    return out


def eval_basis(spec: MeasureSpec, basis: Variant, i: int, x):
    """Value of the degree-i orthonormal polynomial at x (scalar or array)."""
    scalar = np.isscalar(x) or (isinstance(x, np.ndarray) and x.ndim == 0)
    table = eval_basis_table(spec, basis, i, x)
    row = table[i]
    return float(row[0]) if scalar else row


@lru_cache(maxsize=None)
def discrete_basis_table(spec: MeasureSpec, basis: Variant):
    """Cached table of p_0..p_maxdeg at all support nodes of a discrete
    measure. Rows are degrees, columns follow spec.nodes order."""
    if not spec.discrete:
        raise ValidationError("discrete_basis_table needs a discrete measure")
    cap = max_degree(spec, basis)
    x, _ = node_weights(spec, Variant.BASE)
    table = eval_basis_table(spec, basis, cap, x)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def basis_at_one(spec: MeasureSpec, basis: Variant, deg: int) -> np.ndarray:
    """p_0(1)..p_deg(1) of the basis, read-only: the one table of these
    values. For the base system of a discrete space it is the node-0
    column of discrete_basis_table (x = 1 is node 0), which holds the
    values of a recurrence run at x = 1 without a run per degree;
    otherwise it is that run of eval_basis_table at x = 1, done once."""
    if spec.discrete and basis is Variant.BASE:
        return discrete_basis_table(spec, basis)[: deg + 1, 0]
    row = eval_basis_table(spec, basis, deg, 1.0)[:, 0]
    row.flags.writeable = False
    return row


@lru_cache(maxsize=None)
def gauss_basis_table(spec: MeasureSpec, basis: Variant, deg: int, m: int) -> np.ndarray:
    """Cached table of p_0..p_deg of the basis at the nodes of the m-point
    Gauss rule of the base measure, read-only. In the base system it is a
    slice of the table the rule's weights were read from (rows past m - 1
    aside), so every base table at one rule is one recurrence run; another
    basis takes one run of eval_basis_table at the rule's nodes."""
    x, _, table = _gauss_rule(spec, Variant.BASE, m)
    if basis is not Variant.BASE or deg >= m:
        table = eval_basis_table(spec, basis, deg, x)
        table.flags.writeable = False
    return table[: deg + 1]


def jacobi_matrix(spec: MeasureSpec, basis: Variant, k: int) -> JacobiOperator:
    """The (k+1) x (k+1) truncation J_k of the Jacobi matrix."""
    rc = _jacobi_coeffs(spec, basis, k)
    return JacobiOperator(diag=rc.b[: k + 1], off=rc.a[:k], basis=basis)


def _jacobi_coeffs(spec: MeasureSpec, basis: Variant, k: int) -> RecurrenceCoeffs:
    """a_0..a_k and b_0..b_k behind the order check of jacobi_matrix."""
    if k < 0:
        raise ValidationError("jacobi_matrix needs k >= 0")
    cap = max_degree(spec, basis)
    if cap is not None and k > cap - 1:
        raise ValidationError(
            "jacobi_matrix order %d exceeds %s/%s (max degree %d)"
            % (k, spec.label(), basis.value, cap)
        )
    return _coeffs_cached(spec, basis, k)


def tridiagonal_eigenvalues(diag, off) -> np.ndarray:
    """All eigenvalues of a symmetric tridiagonal matrix, ascending.

    The lower triangle is filled into one dense array and its spectrum
    taken by LAPACK through np.linalg.eigvalsh, accurate to a small
    multiple of eps times the matrix norm. It serves the public zeros and
    the Gauss nodes of spaces.quadrature; no bound path takes a spectrum.
    """
    d = np.asarray(diag, dtype=float)
    e = np.asarray(off, dtype=float)
    n = d.size
    if n == 0:
        return np.array([])
    if e.size != n - 1:
        raise ValidationError("off-diagonal length must be order - 1")
    m = np.zeros((n, n))
    m.flat[:: n + 1] = d
    m.flat[n :: n + 1] = e
    return np.linalg.eigvalsh(m)


def zeros(spec: MeasureSpec, basis: Variant, k: int) -> np.ndarray:
    """Zeros of the degree-k polynomial of the basis, ascending.

    Computed as the spectrum of J_{k-1}, fresh on every call; k = 0 gives
    an empty list.
    """
    if k < 0:
        raise ValidationError("zeros needs k >= 0")
    if k == 0:
        return np.array([])
    _check_degree(spec, basis, k, "zeros")
    rc = recurrence_coeffs(spec, basis, k - 1)
    return tridiagonal_eigenvalues(np.array(rc.b[:k]), np.array(rc.a[: k - 1]))


def _pivots(diag, off, t: float):
    """The LDL^T pivots r_0 = t - d_0, r_i = t - d_i - e_{i-1}^2 / r_{i-1}
    of t - T, and the derivative in t of the last one, from r_0' = 1 and
    r_i' = 1 + e_{i-1}^2 r_{i-1}' / r_{i-1}^2. The list stops short of r_k
    after the first pivot of the leading block that is not positive: t
    then lies at or below the top eigenvalue of that block."""
    ri, dri = t - diag[0], 1.0
    r = [ri]
    for di, e in zip(diag[1:], off):
        if not ri > 0.0:
            break
        q = e * e / ri
        dri = 1.0 + q * dri / ri
        ri = t - di - q
        r.append(ri)
    return r, dri


def _top_zero(diag, off, lo=None, start=None) -> float:
    """The greatest double t at which some LDL^T pivot of t - J is not
    positive: the top eigenvalue of the tridiagonal J rounded down, so an
    exact zero such as 0 or 1/2 stays exact. Newton's method on the last
    pivot (see spectral.top_eigenpair) runs from start, the Gershgorin
    bound by default, inside a bisection bracket from lo or the largest
    diagonal entry up to that bound; once its step is within eps of the
    bracket's scale, single ulps close the bracket to two adjacent
    doubles, so the result does not depend on start."""
    lo = max(diag) if lo is None else max(lo, max(diag))
    # Gershgorin: max_i d_i + |e_{i-1}| + |e_i|, in one C-level pass
    hi = max(map(add, map(add, diag, map(abs, (0.0, *off))), map(abs, (*off, 0.0))))
    tol = _EPS * max(abs(lo), abs(hi))
    hi = math.nextafter(hi + tol, math.inf)
    t = hi if start is None else min(max(start, lo), hi)
    while True:
        r, slope = _pivots(diag, off, t)
        full = len(r) == len(diag)
        lo, hi = (lo, t) if full and r[-1] > 0.0 else (t, hi)
        if math.nextafter(lo, hi) == hi:
            return lo
        step = r[-1] / slope if full else math.inf
        if lo < t - step < hi:
            t -= step
        elif abs(step) <= tol:
            t = math.nextafter(t, lo if t == hi else hi)
        else:
            t = lo + 0.5 * (hi - lo)


@lru_cache(maxsize=None)
def _largest_zeros(spec: MeasureSpec, basis: Variant) -> dict:
    return {0: -1.0}


def largest_zero(spec: MeasureSpec, basis: Variant, k: int) -> float:
    """Largest zero x_k of the degree-k polynomial; -1 by convention for k=0.

    The top eigenvalue of J_{k-1} rounded down (_top_zero), within a few eps
    of the top of zeros(spec, basis, k), kept per (spec, basis) in a dict
    filled once per degree (concurrent readers at worst compute one twice).
    x_{k-1} bounds the search from below (interlacing); with x_{k-2}, too,
    it starts at 2 x_{k-1} - x_{k-2}.
    """
    table = _largest_zeros(spec, basis)
    x = table.get(k)
    if x is None:
        if k < 0:
            raise ValidationError("zeros needs k >= 0")
        _check_degree(spec, basis, k, "zeros")
        rc = recurrence_coeffs(spec, basis, k - 1)
        below, before = table.get(k - 1), table.get(k - 2)
        start = None if below is None or before is None else below + (below - before)
        x = table[k] = _top_zero(rc.b[:k], rc.a[: k - 1], below, start)
    return x


def _zeros_below(spec: MeasureSpec, basis: Variant, t: float, top: int) -> int:
    """#{m <= top : x_m < t}, from one Sturm pass (Barth, Martin and Wilkinson
    1967): one plus the leading pivots of t - J_{top-1} that are positive, in
    the arithmetic of _pivots. Each step is monotone in t, so r_0..r_{m-1}
    are all positive exactly when t > x_m, for the x_m of largest_zero
    wherever a_i and b_i do not depend on the index they are read to. On a
    custom space's adjacent systems they do (a Gauss rule grows with it),
    and the count is exact for zeros of J_{top-1}'s own coefficients."""
    if top == 0 or not t > -1.0:
        return int(t > -1.0)
    rc = _coeffs_cached(spec, basis, top - 1)
    r = t - rc.b[0]
    for m, (d, ee) in enumerate(rc._steps, 1):
        if not r > 0.0:
            return m
        r = t - d - ee / r
    return top + (r > 0.0)
