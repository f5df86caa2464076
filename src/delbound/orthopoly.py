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
on n, n-1 and n-2 points; Jacobi on sphere:d); a custom space's adjacent
systems are one Christoffel step each on its base Jacobi matrix, run when
the space is built. Each coefficient is a function of its own index, so
every s-independent table read here is a leading slice of one cached run
per depth, and one rule, _run_depth, gives the depth an index is read
at: the system's top on a Hamming or custom space, and on a sphere, which
has none, the least power of two above the index, at least _RUN_START.
The coefficients (_system_run), the window steps of _zeros_below, which
move to the next depth only where every pivot they read was positive,
p(+-1) of basis_at_end and the derivative block of the feasibility audit
all follow it, so each is read only as deep as an op needs, and a slice
is the same bits whatever was read before it.

_basis_at gives every layer above p(s), from the node table if it can,
and _expansion_rule the points, weights and base rows every expansion
reads. Two guards check the public inputs of the stack, here and above:
_check_degree each degree and _check_threshold each threshold s; the
bound path reads its tables unchecked.

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
import operator
import warnings
from collections import namedtuple
from functools import cached_property, lru_cache
from operator import add, neg

import numpy as np

from .errors import ValidationError
from .spaces import MeasureSpec, Variant, _gauss_rule, _top_index, max_degree, node_weights

_EXTRAPOLATION_SLACK = 1e-12
_EPS = float(np.finfo(float).eps)
# eval_basis_table runs at most this many points in Python floats: timed
# against numpy rows (timeit, CPython 3.11, numpy 2), the float lists are
# faster below a crossover of 20 to 30 points at every degree from 5 to 100
_FEW_POINTS = 24
# the least depth of a sphere run (_run_depth): windows at s <= 0.5 on
# sphere:100 read to index 13
_RUN_START = 16
# _scale_exponent leaves an operator unscaled where its scale lies in
# [2^-_SCALE_FREE, 2^_SCALE_FREE): the square of its largest entry is then a
# normal double
_SCALE_FREE = 256


class RecurrenceCoeffs(namedtuple("RecurrenceCoeffs", "a b mass")):
    """Coefficients a_0..a_m, b_0..b_m plus the measure's total mass: a
    named tuple, with a per-instance __dict__ for _sturm."""

    @cached_property
    def _sturm(self) -> tuple:
        """(e, b_0, steps) of the Sturm count over J_m: steps holds (b_i,
        a_{i-1}^2) for i = 1..m, the steps of _positive_pivots, with every
        entry of J_m scaled by 2^-e first (_scale_exponent), so that no
        square of a tiny a_i underflows."""
        diag, off = self.b, self.a[: len(self.b) - 1]
        lo = max(diag)
        e = _scale_exponent(diag, lo, lo + 2.0 * max(off, default=0.0))
        if e:
            diag, off = _scale(diag, e), _scale(off, e)
        return e, diag[0], tuple(zip(diag[1:], [x * x for x in off]))


class JacobiOperator(namedtuple("JacobiOperator", "diag off basis rho", defaults=(None,))):
    """Truncated Jacobi matrix, optionally with a corner perturbation: a
    named tuple.

    diag holds b_0..b_k, off holds a_0..a_{k-1}. When rho is not None the
    operator is J_k + rho * e_k e_k^T, i.e. rho is added to the last
    diagonal entry.
    """

    __slots__ = ()

    @property
    def order(self) -> int:
        return len(self.diag)

    def matrix(self) -> np.ndarray:
        """The dense matrix, filled by strides; off must hold order - 1 entries."""
        diag, off, _, rho = self
        n = len(diag)
        if len(off) != max(n - 1, 0):
            raise ValidationError("off-diagonal length must be order - 1")
        m = np.zeros((n, n))
        flat = m.reshape(-1)
        flat[:: n + 1] = diag
        flat[n :: n + 1] = off
        flat[1 :: n + 1] = off
        if rho is not None:
            m[n - 1, n - 1] += rho
        return m


def _check_degree(spec: MeasureSpec, basis: Variant, k, what: str, reach: int = 0,
                  index: bool = False):
    """The one degree guard: one ValidationError unless k, the degree or
    index that what reads on the system, is an integer (operator.index, so
    numpy integers pass) from 0 to the system's top less reach, where it
    has one: max_degree, or _top_index with index. Public functions call
    it at entry; the bound path's degrees are in range by construction."""
    cap = (_top_index if index else max_degree)(spec, basis)
    try:
        valid = operator.index(k) >= 0 and (cap is None or k + reach <= cap)
    except TypeError:
        valid = False
    if not valid:
        span = ("integers from 0 (no max degree)" if cap is None else
                "at most %d, integers from 0 (max degree %d)"
                % (cap - reach, max_degree(spec, basis)))
        raise ValidationError("%s needs index %s but %s/%s supports %s"
                              % (what, k, spec.label(), basis.value, span))


def _check_threshold(s, what: str, closed: bool = False) -> float:
    """The one threshold guard of every public function that takes s:
    float(s), or one ValidationError naming what where float() cannot read
    s or s lies outside [-1, 1), or [-1, 1] with closed (T_k(s) exists at
    s = 1). NaN fails the comparison, and so is refused too."""
    try:
        t = float(s)
    except (TypeError, ValueError, OverflowError):
        t = math.nan
    if not (-1.0 <= t <= 1.0 if closed else -1.0 <= t < 1.0):
        raise ValidationError("%s needs s in [-1, 1%s, got %r" % (what, "]" if closed else ")", s))
    return t


def _christoffel_step(rc: RecurrenceCoeffs, t: float, system: str) -> RecurrenceCoeffs:
    """The system of |t - x| dmu from that of dmu, t = +-1: one Cholesky
    step on t - J (Christoffel's theorem; Gautschi 2004, section 2.4), with
    b'_i = t - r_i - a_i^2/r_i, a'_i = a_i sqrt(r_{i+1}/r_i) and mass' =
    mass |r_0| for r_i the LDL^T pivots of t - J: M pairs give a' to M - 2.
    Those are t times the pivots of 1 - tJ, which _pivots gives, exactly,
    as negation is exact. A pivot not of t's sign means |t - x| dmu is not
    positive, and is refused, naming the system and the pivot's index."""
    a, b, mass = rc
    r = [t * ri for ri in _pivots([t * bi for bi in b], a, 1.0)[0]]
    if not r[-1] * t > 0.0:
        raise ValidationError("%s measure lost positivity at pivot %d of %g - J"
                              % (system, len(r) - 1, t))
    return RecurrenceCoeffs(a=tuple(ai * math.sqrt(q / p) for ai, p, q in zip(a, r, r[1:])),
                            b=tuple(t - p - ai * ai / p for p, ai in zip(r, a)),
                            mass=mass * abs(r[0]))


def _run_depth(spec: MeasureSpec, basis: Variant, need: int) -> int:
    """The depth of the run that serves coefficient index need (-1 for
    none): max_degree on a capped system (Hamming, custom), where the one
    run reaches the top index; on a sphere, which has no cap, the least
    power of two above need and at least _RUN_START, so that the runs an
    op reads to index need cost O(need) in all."""
    if spec.kind == "sphere":
        return _RUN_START if need < _RUN_START else 1 << need.bit_length()
    return max_degree(spec, basis)


@lru_cache(maxsize=None)
def _system_run(spec: MeasureSpec, basis: Variant, depth: int) -> RecurrenceCoeffs:
    """The recurrence run of the system at a depth of _run_depth: to index
    depth - 1 on a sphere, and to _top_index on a Hamming or custom space."""
    plusminus = basis is Variant.PLUSMINUS
    if spec.kind == "sphere":
        # The base weight (1 - x)^al (1 + x)^be has al = be = (d - 3)/2, and
        # the factors 1 - x and 1 + x raise al and be by one: orthonormal
        # Jacobi (Szego, section 4.5) with t = 2i + al + be. The d = 3 base
        # b_0 is 0/0, so b = 0 wherever al = be.
        d = spec.params[0]
        al = (d - 3) / 2 + (basis is not Variant.BASE)
        be = (d - 3) / 2 + plusminus
        a, b = [], []
        for i in range(depth):
            t = 2 * i + al + be
            num = 4 * (i + 1) * (i + 1 + al) * (i + 1 + be) * (i + 1 + al + be)
            a.append(math.sqrt(num / ((t + 2) ** 2 * (t + 3) * (t + 1))))
            b.append(0.0 if al == be else (be * be - al * al) / (t * (t + 2)))
        return RecurrenceCoeffs(a=tuple(a), b=tuple(b), mass=(d - 1) / d if plusminus else 1.0)
    if spec.kind == "hamming":
        # (1 - x) dmu and (1 - x^2) dmu are binomial(n - 1) and binomial(n - 2)
        # under affine maps: Krawtchouk systems whose a_i vanish at the top.
        n = spec.params[0]
        a = tuple(math.sqrt((depth - i) * (i + 1)) / n for i in range(depth + 1))
        b = (-1.0 / n if basis is Variant.MINUS else 0.0,) * (depth + 1)
        return RecurrenceCoeffs(a=a, b=b, mass=(n - 1) / n if plusminus else 1.0)
    if basis is Variant.BASE:
        return RecurrenceCoeffs(*spec.ab, mass=1.0)
    system = "%s/%s" % (spec.label(), basis.value)
    if plusminus:  # (1 - x^2) dmu: one more step, on the run of (1 - x) dmu
        return _christoffel_step(_system_run(spec, Variant.MINUS, depth), -1.0, system)
    return _christoffel_step(_system_run(spec, Variant.BASE, depth + 1), 1.0, system)


@lru_cache(maxsize=None)
def _coeffs_cached(spec: MeasureSpec, basis: Variant, m: int) -> RecurrenceCoeffs:
    """a_0..a_m, b_0..b_m of the system: a leading slice of its run at
    _run_depth, whose every coefficient depends on its own index alone, so
    the same bits whatever order the indices are asked for in. Slices of
    the run's tuples share its float objects."""
    a, b, mass = _system_run(spec, basis, _run_depth(spec, basis, m))
    return RecurrenceCoeffs(a=a[: m + 1], b=b[: m + 1], mass=mass)


def recurrence_coeffs(spec: MeasureSpec, basis: Variant, m: int) -> RecurrenceCoeffs:
    """Orthonormal recurrence coefficients a_0..a_m, b_0..b_m.

    Coefficient a_i couples p_i to p_{i+1}; m runs to _top_index, which on
    a discrete measure is its maximal degree, with a trailing a_m of zero
    (the residual past the support vanishes).
    """
    _check_degree(spec, basis, m, "recurrence_coeffs", index=True)
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
    _check_degree(spec, basis, deg, "eval_basis_table")
    pts = [x] if type(x) is float else x
    if not (type(pts) is list and len(pts) <= _FEW_POINTS
            and all(type(t) is float for t in pts)):
        pts = np.atleast_1d(np.asarray(x, dtype=float))
        if pts.size <= _FEW_POINTS:
            pts = pts.tolist()
    few = type(pts) is list
    rc = _coeffs_cached(spec, basis, max(deg - 1, 0))
    limit = 1.0 + _EXTRAPOLATION_SLACK
    if any(abs(t) > limit for t in pts) if few else np.any(np.abs(pts) > limit):
        warnings.warn(
            "evaluating orthonormal system outside [-1, 1] (extrapolation)",
            RuntimeWarning,
            stacklevel=2,
        )
    a, b, mass = rc
    p0 = 1.0 / math.sqrt(mass)
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
    one table of these values, a leading slice of the run at end to the
    depth of _run_depth (_end_run). Every p_i(end) reads indices up to i
    alone, so a slice equals a run to deg bit for bit."""
    return _end_run(spec, basis, _run_depth(spec, basis, deg - 1), end)[: deg + 1]


@lru_cache(maxsize=None)
def _end_run(spec: MeasureSpec, basis: Variant, depth: int, end: float) -> np.ndarray:
    """p_0(end)..p_depth(end), read-only: one run of eval_basis_table."""
    row = eval_basis_table(spec, basis, depth, end)[:, 0]
    row.flags.writeable = False
    return row


def _expansion_rule(spec: MeasureSpec, deg: int):
    """(x, w, rows): the rule an expansion to degree deg sums on, and the
    base p_0..p_deg at its points, read-only and unchecked. On a discrete
    space that is every node, with a slice of the node table; on a
    continuous one the (deg + 1)-point Gauss rule, with the very table its
    weights were read from, so every table at one rule is one run."""
    if spec.discrete:
        x, w = node_weights(spec, Variant.BASE)
        return x, w, discrete_basis_table(spec, Variant.BASE)[: deg + 1]
    return _gauss_rule(spec, Variant.BASE, deg + 1)


def jacobi_matrix(spec: MeasureSpec, basis: Variant, k: int) -> JacobiOperator:
    """The (k+1) x (k+1) truncation J_k of the Jacobi matrix, k < max_degree."""
    _check_degree(spec, basis, k, "jacobi_matrix", 1)
    rc = _coeffs_cached(spec, basis, k)
    return JacobiOperator(diag=rc.b, off=rc.a[:k], basis=basis)


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
    _check_degree(spec, basis, k, "zeros")
    if k == 0:
        return np.array([])
    rc = _coeffs_cached(spec, basis, k - 1)
    return tridiagonal_eigenvalues(np.array(rc.b[:k]), np.array(rc.a[: k - 1]))


def _positive_pivots(d0: float, steps, t: float) -> int:
    """The Sturm count (Barth, Martin and Wilkinson 1967): how many leading
    LDL^T pivots r_0 = t - d_0, r_i = t - d_i - e_{i-1}^2 / r_{i-1} of t - J
    are positive, steps any iterable of the (d_i, e_{i-1}^2), read only up
    to the first pivot that is not; monotone in t, as each pivot is."""
    r, m = t - d0, 0
    for m, (d, ee) in enumerate(steps, 1):
        if not r > 0.0:
            return m - 1
        r = t - d - ee / r
    return m + (r > 0.0)


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


def _scale_exponent(diag, lo: float, hi: float) -> int:
    """The e by which a tridiagonal operator's pivot passes scale it, by
    2^-e, or 0 where they do not. lo is its largest diagonal entry and hi
    a Gershgorin-type bound on its top eigenvalue, at least max_i d_i +
    |e_{i-1}| + |e_i| and at most lo + 2 max_i |e_i| (_sturm takes the
    latter, one pass cheaper), so every entry is at most 2M in magnitude,
    M = max(|lo|, |hi|, |min diag|) is at most three times the largest,
    and e is M's binary exponent, 2^(e-1) <= M < 2^e, where M lies outside
    [2^-_SCALE_FREE, 2^_SCALE_FREE). Where
    every entry is tiny, a square e_i^2 of the passes underflows to zero
    and decouples the operator. A power of two scales a normal double
    exactly, and every pivot pass is homogeneous in the entries and t, so
    a scaled pass gives the unscaled result times 2^-e, bit for bit."""
    e = math.frexp(max(abs(lo), abs(hi), abs(min(diag))))[1]
    return 0 if -_SCALE_FREE < e <= _SCALE_FREE else e


def _scale(values, e: int) -> list:
    """values times 2^-e."""
    return [math.ldexp(v, -e) for v in values]


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
    spectral.top_eigenpair where one pass at its start settles nothing.
    Where _scale_exponent gives an e, the search runs on J times 2^-e, and
    its result is scaled back."""
    lo = max(diag)
    # Gershgorin: max_i d_i + |e_{i-1}| + |e_i|, in one C-level pass
    hi = max(map(add, map(add, diag, map(abs, (0.0, *off))), map(abs, (*off, 0.0))))
    e = _scale_exponent(diag, lo, hi)
    if e:
        return math.ldexp(_top_zero(_scale(diag, e), _scale(off, e)), e)
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


@lru_cache(maxsize=None, typed=True)
def largest_zero(spec: MeasureSpec, basis: Variant, k: int) -> float:
    """Largest zero x_k of the degree-k polynomial; -1 by convention for k=0.

    The top eigenvalue of J_{k-1} rounded down (_top_zero), within a few eps
    of the top of zeros(spec, basis, k), cached per degree. Each degree is
    searched on its own, so a value does not depend on the degrees read
    before it. The cache is typed, so that k = 2.0 is never served as 2.
    """
    _check_degree(spec, basis, k, "largest_zero")
    if k == 0:
        return -1.0
    rc = _coeffs_cached(spec, basis, k - 1)
    return _top_zero(rc.b[:k], rc.a[: k - 1])


def _zeros_below(spec: MeasureSpec, basis: Variant, t: float, top: int) -> int:
    """#{m <= top : x_m < t}: one plus the Sturm count of t - J_{top-1}, as
    r_0..r_{m-1} are all positive exactly when t > x_m for the x_m of
    largest_zero: every a_i and b_i depends on its own index alone, so
    J_{m-1} is the leading block of J_{top-1}, and the count over J_{top-1}
    is the count over any longer run capped at top.

    The pass walks the Sturm steps of the system's run (RecurrenceCoeffs.
    _sturm), from the depth _run_depth gives index 0, and stops at the
    first pivot that is not positive, so it reads only as deep as the
    window of t. Where every pivot of a run was positive short of top, it
    moves to the next depth, which only a sphere has, and passes again: a
    warm count builds nothing. It counts t 2^-e on J 2^-e where
    _scale_exponent gives the run an e, as _top_zero does, so that no
    e_i^2 underflows and decouples it. Every operator of a Hamming space
    or a sphere has e = 0."""
    if top == 0 or not t > -1.0:
        return int(t > -1.0)
    depth = _run_depth(spec, basis, 0)
    while True:
        e, d0, steps = _system_run(spec, basis, depth)._sturm
        m = _positive_pivots(d0, steps, math.ldexp(t, -e) if e else t)
        # a capped run read to its end has no next depth
        if m <= len(steps) or m >= top or depth == (depth := _run_depth(spec, basis, m)):
            return 1 + (m if m < top else top)
