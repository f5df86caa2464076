"""Orthonormal polynomial engine.

Recurrence coefficients for the base and adjacent systems, forward-recurrence
evaluation, truncated Jacobi matrices (JacobiOperator.matrix, the one dense
one), and largest zeros by O(k) passes over LDL^T pivots: the Sturm count
_positive_pivots places a point among them, and _top_zero, the one pivot
search, gives largest_zero its zero and spectral.top_eigenpair its pair.
Every orthonormal family {p_i} here satisfies

    x p_i(x) = a_i p_{i+1}(x) + b_i p_i(x) + a_{i-1} p_{i-1}(x)

with p_{-1} = 0 and p_0 = 1/sqrt(mass), where mass is the total measure
(1 for base measures, less for the unnormalized adjacent ones).

Every system of a Hamming space or a sphere is a closed form (Krawtchouk
on n, n-1 and n-2 points; Jacobi on sphere:d), each coefficient a
function of its own index: one run per system serves every index as a
slice, the run to the top index on a Hamming space and the longest run
so far on a sphere. The Stieltjes procedure derives only the adjacent
systems of custom spaces and the systems of any other discrete measure.

_basis_at gives every layer above p(s), from the node table if it can.

eval_basis_table runs the forward recurrence in Python floats at up to
_FEW_POINTS points (p(s) at one point, the few points of a sphere audit),
reading a Python float or a list of them as it is, and in numpy rows
over larger sets (node tables, large Gauss rules). Both perform the same
IEEE operations in the same order, so they give the same bits, and
numpy's per-call overhead is paid only where a row is long.
"""

from __future__ import annotations

import bisect
import math
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import add, neg

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
# eval_basis_table runs at most this many points in Python floats: timed
# against numpy rows (timeit, CPython 3.11, numpy 2), the float lists are
# faster below a crossover of 20 to 30 points at every degree from 5 to 100
_FEW_POINTS = 24


@dataclass(frozen=True)
class RecurrenceCoeffs:
    """Coefficients a_0..a_m, b_0..b_m plus the measure's total mass."""

    a: tuple
    b: tuple
    mass: float

    @cached_property
    def _steps(self) -> tuple:
        """(b_i, a_{i-1}^2) for i = 1..m: the steps of _positive_pivots."""
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
        """The dense matrix, filled by strides; off must hold order - 1 entries."""
        n = self.order
        if len(self.off) != max(n - 1, 0):
            raise ValidationError("off-diagonal length must be order - 1")
        m = np.zeros((n, n))
        flat = m.reshape(-1)
        flat[:: n + 1] = self.diag
        flat[n :: n + 1] = self.off
        flat[1 :: n + 1] = self.off
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
def _sphere_run(spec: MeasureSpec, basis: Variant) -> list:
    """A one-entry list holding (a, b), the longest closed-form run of a
    sphere system computed so far, replaced as a whole by a longer one
    (concurrent callers at worst compute the same entries twice)."""
    return [((), ())]


@lru_cache(maxsize=None)
def _coeffs_cached(spec: MeasureSpec, basis: Variant, m: int) -> RecurrenceCoeffs:
    """a_0..a_m, b_0..b_m of the system. Every closed-form coefficient
    depends on its own index alone, so a Hamming index is served as a
    slice of the run to the top index, and a sphere index as a slice of
    the longest run so far, extended by the entries past it: the same bits
    whatever order the indices are asked for in."""
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
        held = _sphere_run(spec, basis)
        a, b = held[0]
        if len(a) <= m:
            a, b = list(a), list(b)
            for i in range(len(a), m + 1):
                t = 2 * i + al + be
                num = 4 * (i + 1) * (i + 1 + al) * (i + 1 + be) * (i + 1 + al + be)
                a.append(math.sqrt(num / ((t + 2) ** 2 * (t + 3) * (t + 1))))
                b.append(0.0 if al == be else (be * be - al * al) / (t * (t + 2)))
            a, b = tuple(a), tuple(b)
            held[0] = a, b
        mass = (d - 1) / d if plusminus else 1.0
        return RecurrenceCoeffs(a=a[: m + 1], b=b[: m + 1], mass=mass)
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
    """Values of p_0..p_deg (deg <= max_degree) at x, a C-contiguous
    (deg+1, len(x)) array.

    Every path runs the same IEEE operations in the same order, p_{i+1} =
    ((x - b_i) p_i - a_{i-1} p_{i-1}) / a_i, so the table is the same bit
    for bit whichever runs. At most _FEW_POINTS points run in Python
    floats, one list per degree: a Python float, or a list of at most
    _FEW_POINTS of them, is read as it is (p(s), a sphere audit), and any
    other input of that size is converted once. Larger inputs (node
    tables, Gauss rules) fill numpy rows.
    """
    pts = [x] if type(x) is float else x
    if not (type(pts) is list and len(pts) <= _FEW_POINTS
            and all(type(t) is float for t in pts)):
        pts = np.atleast_1d(np.asarray(x, dtype=float))
        if pts.size <= _FEW_POINTS:
            pts = pts.tolist()
    few = type(pts) is list
    if deg < 0:
        raise ValidationError("degree must be nonnegative")
    cap = max_degree(spec, basis)
    if cap is not None and deg > cap:
        raise ValidationError("eval_basis_table degree %d exceeds %s/%s (max degree %d)"
                              % (deg, spec.label(), basis.value, cap))
    rc = _coeffs_cached(spec, basis, max(deg - 1, 0))
    limit = 1.0 + _EXTRAPOLATION_SLACK
    if any(abs(t) > limit for t in pts) if few else np.any(np.abs(pts) > limit):
        warnings.warn(
            "evaluating orthonormal system outside [-1, 1] (extrapolation)",
            RuntimeWarning,
            stacklevel=2,
        )
    a, b = rc.a, rc.b
    p0 = 1.0 / math.sqrt(rc.mass)
    if few:
        rows = [[p0] * len(pts)]
        if deg >= 1:
            rows.append([(t - b[0]) * p0 / a[0] for t in pts])
        for bi, am, ai in zip(b[1:deg], a, a[1:deg]):
            rows.append([((t - bi) * p - am * q) / ai
                         for t, p, q in zip(pts, rows[-1], rows[-2])])
        return np.array(rows)
    out = np.empty((deg + 1, pts.size))
    out[0] = p0
    if deg >= 1:
        out[1] = (pts - b[0]) * out[0] / a[0]
    for i in range(1, deg):
        out[i + 1] = ((pts - b[i]) * out[i] - a[i - 1] * out[i - 1]) / a[i]
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


def _audit_start(nodes: tuple, s: float) -> int:
    """Index of the first node x_j <= s, by one bisect of spec.nodes. The
    nodes of a discrete space descend, so the nodes in [-1, s] are the
    suffix from there."""
    return bisect.bisect_left(nodes, -s, key=neg)


def _basis_at(spec: MeasureSpec, basis: Variant, deg: int, s: float) -> np.ndarray:
    """p_0(s)..p_deg(s): a read-only column of the base node table when s
    is a node of a discrete space (found by _audit_start), else one run of
    the recurrence at s."""
    if spec.discrete and basis is Variant.BASE:
        table = discrete_basis_table(spec, basis)
        j = _audit_start(spec.nodes, s)
        if deg < table.shape[0] and j < len(spec.nodes) and spec.nodes[j] == s:
            return table[: deg + 1, j]
    return eval_basis_table(spec, basis, deg, s)[:, 0]


@lru_cache(maxsize=None)
def basis_at_end(spec: MeasureSpec, basis: Variant, deg: int, end: float) -> np.ndarray:
    """p_0(end)..p_deg(end) of the basis at end = 1.0 or -1.0, read-only: the
    one table of these values. For the base system of a discrete space it
    is the first or last column of discrete_basis_table (the nodes run from
    1 down to -1), with no run per degree; otherwise one run of
    eval_basis_table at end, done once."""
    if spec.discrete and basis is Variant.BASE:
        return discrete_basis_table(spec, basis)[: deg + 1, 0 if end == 1.0 else -1]
    row = eval_basis_table(spec, basis, deg, end)[:, 0]
    row.flags.writeable = False
    return row


def gauss_basis_table(spec: MeasureSpec, deg: int, m: int) -> np.ndarray:
    """p_0..p_deg (deg < m) of the base system at the nodes of the m-point
    Gauss rule of the base measure, read-only: a slice of the table the
    rule's weights were read from, so every table at one rule is one
    recurrence run."""
    return _gauss_rule(spec, Variant.BASE, m)[2][: deg + 1]


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

    np.linalg.eigvalsh (LAPACK) on the lower triangle of JacobiOperator's
    dense matrix, accurate to a small multiple of eps times its norm. It
    serves the public zeros and the Gauss nodes of spaces.quadrature; no
    bound path takes a spectrum.
    """
    return np.linalg.eigvalsh(JacobiOperator(diag=diag, off=off, basis=None).matrix())


def zeros(spec: MeasureSpec, basis: Variant, k: int) -> np.ndarray:
    """Zeros of the degree-k polynomial of the basis, ascending.

    Computed as the spectrum of J_{k-1}, fresh on every call; k = 0 gives
    an empty list.
    """
    if k < 0:
        raise ValidationError("zeros needs k >= 0")
    if k == 0:
        return np.array([])
    rc = _jacobi_coeffs(spec, basis, k - 1)
    return tridiagonal_eigenvalues(np.array(rc.b[:k]), np.array(rc.a[: k - 1]))


def _positive_pivots(d0: float, steps, t: float) -> int:
    """The Sturm count (Barth, Martin and Wilkinson 1967): how many leading
    LDL^T pivots r_0 = t - d_0, r_i = t - d_i - e_{i-1}^2 / r_{i-1} of t - J
    are positive, steps holding (d_i, e_{i-1}^2); monotone in t, as each is."""
    r = t - d0
    for m, (d, ee) in enumerate(steps):
        if not r > 0.0:
            return m
        r = t - d - ee / r
    return len(steps) + (r > 0.0)


def _pivots(diag, off, t: float):
    """The pivots of t - T in the arithmetic of _positive_pivots, and the
    derivative in t of the last one, from r_0' = 1 and r_i' = 1 + e_{i-1}^2
    r_{i-1}' / r_{i-1}^2. The list stops short of r_k after the first pivot
    of the leading block that is not positive: t then lies at or below the
    top eigenvalue of that block."""
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


def _top_zero(diag, off) -> float:
    """The greatest double t at which some LDL^T pivot of t - J is not
    positive: the top eigenvalue of the tridiagonal J rounded down, so an
    exact zero such as 0 or 1/2 stays exact. Newton's method on the last
    pivot, increasing and concave above the leading block's spectrum
    (Golub 1973), runs from the Gershgorin bound inside a bisection
    bracket from the largest diagonal entry. A step within eps of the
    bracket's scale that leaves the bracket is replaced by one ulp inward,
    and a bisection follows such an ulp that did not close the bracket to
    two adjacent doubles: where an e_i^2 underflows, the last pivot's root
    is not the top eigenvalue, and single ulps would never end. The one
    pivot search: largest_zero reads it, and so does
    spectral.top_eigenpair where one pass at its start settles nothing."""
    lo = max(diag)
    # Gershgorin: max_i d_i + |e_{i-1}| + |e_i|, in one C-level pass
    hi = max(map(add, map(add, diag, map(abs, (0.0, *off))), map(abs, (*off, 0.0))))
    tol = _EPS * max(abs(lo), abs(hi))
    t = hi = math.nextafter(hi + tol, math.inf)
    walked = False
    while True:
        r, slope = _pivots(diag, off, t)
        full = len(r) == len(diag)
        lo, hi = (lo, t) if full and r[-1] > 0.0 else (t, hi)
        if math.nextafter(lo, hi) == hi:
            return lo
        step = r[-1] / slope if full else math.inf
        if lo < t - step < hi:
            t, walked = t - step, False
        elif abs(step) <= tol and not walked:
            t, walked = math.nextafter(t, lo if t == hi else hi), True
        else:
            t, walked = lo + 0.5 * (hi - lo), False


@lru_cache(maxsize=None)
def _largest_zeros(spec: MeasureSpec, basis: Variant) -> dict:
    return {0: -1.0}


def largest_zero(spec: MeasureSpec, basis: Variant, k: int) -> float:
    """Largest zero x_k of the degree-k polynomial; -1 by convention for k=0.

    The top eigenvalue of J_{k-1} rounded down (_top_zero), within a few eps
    of the top of zeros(spec, basis, k), kept per (spec, basis) in a dict
    filled once per degree (concurrent readers at worst compute one twice).
    Each degree is searched on its own, so a value does not depend on the
    degrees filled before it.
    """
    table = _largest_zeros(spec, basis)
    x = table.get(k)
    if x is None:
        if k < 0:
            raise ValidationError("zeros needs k >= 0")
        rc = _jacobi_coeffs(spec, basis, k - 1)
        x = table[k] = _top_zero(rc.b[:k], rc.a[: k - 1])
    return x


def _zeros_below(spec: MeasureSpec, basis: Variant, t: float, top: int) -> int:
    """#{m <= top : x_m < t}: one plus the Sturm count of t - J_{top-1}, as
    r_0..r_{m-1} are all positive exactly when t > x_m for the x_m of
    largest_zero, wherever a_i and b_i do not depend on the index they are
    read to. On a custom space's adjacent systems they do (a Gauss rule
    grows with it); there the count is exact for J_{top-1}'s own zeros."""
    if top == 0 or not t > -1.0:
        return int(t > -1.0)
    rc = _coeffs_cached(spec, basis, top - 1)
    return 1 + _positive_pivots(rc.b[0], rc._steps, t)
