"""Orthonormal polynomial engine.

Recurrence coefficients for the base and adjacent systems, forward-recurrence
evaluation, truncated Jacobi matrices, and zeros as the eigenvalues of
those matrices. Every orthonormal family {p_i} here satisfies

    x p_i(x) = a_i p_{i+1}(x) + b_i p_i(x) + a_{i-1} p_{i-1}(x)

with p_{-1} = 0 and p_0 = 1/sqrt(mass), where mass is the total measure
(1 for base measures, less for the unnormalized adjacent ones).

Closed forms are used where the family is classical (Hamming base,
sphere base). Adjacent systems are always derived numerically from their
measure by the Stieltjes procedure; the classical closed forms for them
appear only in the test suite as cross-checks.
"""

from __future__ import annotations

import math
import threading
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ValidationError
from .spaces import (
    MeasureSpec,
    Variant,
    max_degree,
    node_weights,
    quadrature,
    variant_multiplier,
)

_EXTRAPOLATION_SLACK = 1e-12


@dataclass(frozen=True)
class RecurrenceCoeffs:
    """Coefficients a_0..a_m, b_0..b_m plus the measure's total mass."""

    a: tuple
    b: tuple
    mass: float


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


class _StieltjesRun:
    """The discrete Stieltjes procedure for the measure sum w_j delta(x_j),
    resumable: it runs as far as the highest index asked for so far, and a
    later request continues the recurrence where it stopped. Each
    coefficient depends only on those before it, so what a request gets
    is bit for bit what a fresh run to its index would give. A run is
    shared through a cache, so a lock keeps concurrent requests from
    interleaving their steps."""

    def __init__(self, x: np.ndarray, w: np.ndarray):
        keep = w > 0.0
        self.x = x[keep]
        self.w = w[keep]
        self.mass = float(np.sum(self.w))
        self.a, self.b = [], []
        self.prev = np.zeros_like(self.x)
        self.cur = np.full_like(self.x, 1.0 / math.sqrt(self.mass))
        self.lost = False
        self._lock = threading.Lock()

    def through(self, m: int):
        """(a, b, mass) with arrays a_0..a_m, b_0..b_m, or shorter when the
        measure loses positivity first: the arrays then end at the index
        whose residual norm a_i vanished."""
        x, w = self.x, self.w
        with self._lock:
            while len(self.a) <= m and not self.lost:
                bi = float(np.dot(w, x * self.cur * self.cur))
                resid = (x - bi) * self.cur - (self.a[-1] if self.a else 0.0) * self.prev
                nrm = math.sqrt(float(np.dot(w, resid * resid)))
                self.a.append(nrm)
                self.b.append(bi)
                if nrm < 1e-13:
                    self.lost = True
                else:
                    self.prev, self.cur = self.cur, resid / nrm
            return np.array(self.a[: m + 1]), np.array(self.b[: m + 1]), self.mass


def _stieltjes(x: np.ndarray, w: np.ndarray, m: int):
    """A fresh Stieltjes run to index m; see _StieltjesRun.through."""
    return _StieltjesRun(x, w).through(m)


@lru_cache(maxsize=None)
def _discrete_stieltjes(spec: MeasureSpec, basis: Variant) -> _StieltjesRun:
    """The one Stieltjes run of a discrete system, shared by every index."""
    return _StieltjesRun(*node_weights(spec, basis))


def _coeffs_from(a, b, mass, m: int) -> RecurrenceCoeffs:
    if len(a) <= m:
        raise ValidationError(
            "measure lost positivity at index %d; degree request too high" % (len(a) - 1)
        )
    return RecurrenceCoeffs(a=tuple(a[: m + 1]), b=tuple(b[: m + 1]), mass=mass)


@lru_cache(maxsize=None)
def _coeffs_cached(spec: MeasureSpec, basis: Variant, m: int) -> RecurrenceCoeffs:
    if spec.kind == "hamming" and basis is Variant.BASE:
        n = spec.params[0]
        if m < n:
            # slices of the full tuples share their float objects
            full = _coeffs_cached(spec, basis, n)
            return RecurrenceCoeffs(a=full.a[: m + 1], b=full.b[: m + 1], mass=1.0)
        a = tuple(math.sqrt((n - i) * (i + 1)) / n for i in range(m + 1))
        b = (0.0,) * (m + 1)
        return RecurrenceCoeffs(a=a, b=b, mass=1.0)
    if spec.kind == "sphere" and basis is Variant.BASE:
        d = spec.params[0]
        # a_i^2 = (i+1)(d+i-2) / ((d+2i)(d+2i-2)). At i = 0 this equals
        # 1/d, the second moment of the projected measure, which pins the
        # formula down; the test suite checks it against a moment-based
        # Gram-Schmidt oracle.
        a = tuple(
            math.sqrt((i + 1) * (d + i - 2) / ((d + 2 * i) * (d + 2 * i - 2)))
            for i in range(m + 1)
        )
        b = (0.0,) * (m + 1)
        return RecurrenceCoeffs(a=a, b=b, mass=1.0)
    if spec.kind == "custom" and basis is Variant.BASE:
        ca, cb = spec.ab
        return RecurrenceCoeffs(a=tuple(ca[: m + 1]), b=tuple(cb[: m + 1]), mass=1.0)
    if spec.discrete:
        # slices of the shared run's lists share their float objects
        run = _discrete_stieltjes(spec, basis)
        run.through(m)
        return _coeffs_from(run.a, run.b, run.mass, m)
    # Continuous adjacent system: discretize the base measure by a Gauss
    # rule large enough that all Stieltjes inner products (degree 2m + 3
    # at most, multiplier included) are integrated exactly, then proceed
    # as in the discrete case. The rule grows with m, so each m gets its
    # own run.
    pts = m + 4
    x, w = quadrature(spec, Variant.BASE, pts)
    return _coeffs_from(*_stieltjes(x, w * variant_multiplier(basis, x), m), m)


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


@lru_cache(maxsize=None)
def _ab_arrays(spec: MeasureSpec, basis: Variant, m: int):
    rc = _coeffs_cached(spec, basis, m)
    a = np.array(rc.a)
    b = np.array(rc.b)
    a.flags.writeable = False
    b.flags.writeable = False
    return a, b, rc.mass


def eval_basis_table(spec: MeasureSpec, basis: Variant, deg: int, x) -> np.ndarray:
    """Values of p_0..p_deg at the points x, as a (deg+1, len(x)) array."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if deg < 0:
        raise ValidationError("degree must be nonnegative")
    _check_degree(spec, basis, max(deg - 1, 0), "eval_basis_table")
    if np.any(np.abs(x) > 1.0 + _EXTRAPOLATION_SLACK):
        warnings.warn(
            "evaluating orthonormal system outside [-1, 1] (extrapolation)",
            RuntimeWarning,
            stacklevel=2,
        )
    a, b, mass = _ab_arrays(spec, basis, max(deg - 1, 0))
    out = np.empty((deg + 1, x.size))
    out[0] = 1.0 / math.sqrt(mass)
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
    Gauss rule of the base measure, read-only: the recurrence run of
    eval_basis_table at quadrature(spec, BASE, m), done once."""
    x, _ = quadrature(spec, Variant.BASE, m)
    table = eval_basis_table(spec, basis, deg, x)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def chebyshev_table(spec: MeasureSpec, basis: Variant, deg: int) -> np.ndarray:
    """Chebyshev coefficients M of p_0..p_deg, read-only: p_i = sum_j
    M[i, j] T_j, so fhat @ M holds those of sum_i fhat_i p_i. Built by the
    three-term recurrence run on Chebyshev coefficient vectors."""
    _check_degree(spec, basis, max(deg - 1, 0), "chebyshev_table")
    a, b, mass = _ab_arrays(spec, basis, max(deg - 1, 0))
    out = np.zeros((deg + 1, deg + 1))
    out[0, 0] = 1.0 / math.sqrt(mass)
    for i in range(deg):
        xp = np.polynomial.chebyshev.chebmulx(out[i, : i + 1])
        row = np.zeros(deg + 1)
        row[: xp.size] = xp
        row -= b[i] * out[i] + (a[i - 1] * out[i - 1] if i else 0.0)
        out[i + 1] = row / a[i]
    out.flags.writeable = False
    return out


def jacobi_matrix(spec: MeasureSpec, basis: Variant, k: int) -> JacobiOperator:
    """The (k+1) x (k+1) truncation J_k of the Jacobi matrix."""
    if k < 0:
        raise ValidationError("jacobi_matrix needs k >= 0")
    cap = max_degree(spec, basis)
    if cap is not None and k > cap - 1:
        raise ValidationError(
            "jacobi_matrix order %d exceeds %s/%s (max degree %d)"
            % (k, spec.label(), basis.value, cap)
        )
    rc = recurrence_coeffs(spec, basis, k)
    return JacobiOperator(diag=rc.b[: k + 1], off=rc.a[:k], basis=basis)


def tridiagonal_eigenvalues(diag, off) -> np.ndarray:
    """All eigenvalues of a symmetric tridiagonal matrix, ascending.

    The lower triangle is filled into one dense array and its spectrum
    taken by LAPACK through np.linalg.eigvalsh. The orders used here are at
    most a few hundred, where the dense solver takes well under a
    millisecond and is accurate to a small multiple of eps times the
    matrix norm.
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


def _spectrum(spec: MeasureSpec, basis: Variant, k: int) -> np.ndarray:
    """Zeros of the degree-k polynomial, k >= 1, as the eigenvalues of
    J_{k-1}, fresh on every call."""
    _check_degree(spec, basis, k, "zeros")
    rc = recurrence_coeffs(spec, basis, k - 1)
    return tridiagonal_eigenvalues(np.array(rc.b[:k]), np.array(rc.a[: k - 1]))


def zeros(spec: MeasureSpec, basis: Variant, k: int) -> np.ndarray:
    """Zeros of the degree-k polynomial of the basis, ascending.

    Computed as the spectrum of J_{k-1}, fresh on every call; k = 0 gives
    an empty list.
    """
    if k < 0:
        raise ValidationError("zeros needs k >= 0")
    if k == 0:
        return np.array([])
    return _spectrum(spec, basis, k)


class _ZeroTable(dict):
    """Largest zeros by degree, as far as they were asked for. A value is
    filled in once and never changes, so concurrent readers can at worst
    compute it twice. prefix lists x_0, x_1, ... consecutively from degree
    0, as far as largest_zeros_until has read them; its lock keeps two
    readers from appending the same degree."""

    def __init__(self):
        super().__init__({0: -1.0})
        self.prefix = [-1.0]
        self.lock = threading.Lock()


@lru_cache(maxsize=None)
def _largest_zeros(spec: MeasureSpec, basis: Variant) -> _ZeroTable:
    return _ZeroTable()


def largest_zero(spec: MeasureSpec, basis: Variant, k: int) -> float:
    """Largest zero x_k of the degree-k polynomial; -1 by convention for k=0.

    Equal to the top of zeros(spec, basis, k), kept per (spec, basis) so
    that the window searches, which read x_0, x_1, ... in turn, pay one
    dictionary lookup for each degree already seen. Only the top is kept:
    the spectrum it is read from is not cached.
    """
    table = _largest_zeros(spec, basis)
    x = table.get(k)
    if x is None:
        if k < 0:
            raise ValidationError("zeros needs k >= 0")
        x = table[k] = float(_spectrum(spec, basis, k)[-1])
    return x


def largest_zeros_until(spec: MeasureSpec, basis: Variant, x: float, top: int) -> list:
    """The shared list x_0, x_1, ... of largest zeros, read through
    largest_zero degree by degree until its last entry reaches x or its
    degree reaches top. The list only grows; callers must not change it."""
    table = _largest_zeros(spec, basis)
    xs = table.prefix
    if xs[-1] < x and len(xs) <= top:
        with table.lock:
            while xs[-1] < x and len(xs) <= top:
                xs.append(largest_zero(spec, basis, len(xs)))
    return xs
