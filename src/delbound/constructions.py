"""Extremal polynomials and the code-size bound f(1)/fhat_0.

Every polynomial here is c (x - s)(x + 1)^e (v . p(x))^2 with c = 1/f(1)
and p = (p_0..p_k) the base orthonormal system; the routes differ only in
e and in how v is found:

    mrrw      e = 0, v = p(s), so v . p is the kernel K_k(x, s)
    lev_odd   e = 0, v = p_{k+1}(1) p(s) - p_{k+1}(s) p(1), up to scale
    lev_even  e = 1, v = G^-1 p(s), G = I - J_k^2 - a_k^2 e_k e_k^T
    spectral  e = 0, v the top eigenvector of T_k(s) (spectral.top_eigenpair)

By Christoffel-Darboux, (J_k - t) p(t) = -a_k p_{k+1}(t) e_k, the lev_odd
v is (I - J_k)^-1 p(s), the minus kernel K_k^-(x, s); G is the Gram matrix
of (1 - x^2) dmu, so the lev_even v is the plusminus kernel K_k^+-(x, s).
Each lev v is the stationary point of (1 - s) g(1)^2 / int (x - s)
(x + 1)^e g^2 dmu over g = v . p (Levenshtein). The adjacent systems serve
only the Levenshtein windows, through their coefficients.

The product form is evaluated once, at x = 1 for c and at the expansion
points for the coefficient vector fhat; from then on a polynomial is that
vector, which the certificate audits as it is and whose first entry gives
the bound 1/fhat_0. Every s-independent value is read from a cache: on a
discrete space the base node table (x = 1 is node 0, and p(s) is a column
when s is a node), on a continuous one basis_at_end at x = 1 and -1 and
the rows at the Gauss rule of the expansion, so only p(s) runs the
recurrence on each call.

One function, _kernel_result, builds every bound, spectral_recover_bound
over an adjacent system included. Construction never asserts cone
membership; the feasibility module owns that decision, and no
BoundResult is built without a passing certificate.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from functools import lru_cache

import numpy as np

from .errors import (
    DegreeBudgetError,
    NotCertifiedError,
    NumericError,
    SingularOperatorError,
    ValidationError,
)
from .feasibility import ConeCertificate, _certificate, _evaluate, cone_certificate
from .orthopoly import (
    _basis_at,
    _check_degree,
    _jacobi_coeffs,
    _zeros_below,
    basis_at_end,
    discrete_basis_table,
    eval_basis_table,
    gauss_basis_table,
    jacobi_matrix,
    recurrence_coeffs,
)
from .spaces import MeasureSpec, Variant, _binomial_row, max_degree, node_weights, quadrature
from .spectral import _operator_at, top_eigenpair

_WINDOW_TIE_TOL = 1e-12
# the cap on the degree a window search reaches on a space without a
# max_degree; a search reads only as deep as the window it finds
_LEV_DEGREE_CAP = 128
# degrees, from e up, that the MRRW scan certifies when s is a largest zero x_e
_EDGE_REACH = 4


class BoundPolynomial(namedtuple("BoundPolynomial", "method degree s c fhat spec k",
                                 defaults=(None,))):
    """A candidate polynomial for the code-size bound, with f(1) = 1: a named tuple.

    It is carried as fhat, its coefficients in the base orthonormal system
    of spec, and calling it evaluates sum_i fhat_i p_i(x). On a discrete
    space fhat stops at max_degree even when degree is higher: it then
    gives the polynomial exactly at every support node, which is all the
    linear program looks at, and its interpolant between them.
    """

    __slots__ = ()

    def __call__(self, x):
        out = _evaluate(self.spec, np.asarray(self.fhat), x)
        return float(out[0]) if np.isscalar(x) else out


class BoundResult(namedtuple("BoundResult", "method space s degree bound certificate "
                                            "d closed_form baselines")):
    """A certified bound value together with everything needed to audit it,
    built once, with every field set, on a passing certificate: a named
    tuple, validated on every construction."""

    __slots__ = ()

    def __new__(cls, method, space, s, degree, bound, certificate, d=None,
                closed_form=None, baselines=()):
        if not certificate.passed:
            raise NotCertifiedError(
                "refusing to build a BoundResult on a failed certificate: %s"
                % certificate.reason,
                certificate=certificate,
            )
        return super().__new__(cls, method, space, s, degree, bound, certificate, d,
                               closed_form, baselines)

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _make, which _replace calls, skips __new__
        return cls(*iterable)

    def to_json(self) -> dict:
        out = {
            "schema": 1,
            "space": self.space.label(),
            "method": self.method,
            "s": self.s,
            "degree": self.degree,
            "bound": self.bound,
            "certificate_id": self.certificate.certificate_id,
            "baselines": {k: v for k, v in self.baselines},
        }
        if self.space.kind == "hamming":
            out["n"] = self.space.params[0]
        if self.d is not None:
            out["d"] = self.d
        if self.closed_form is not None:
            out["closed_form"] = self.closed_form
        return out


def _lev_vector(spec: MeasureSpec, k: int, s: float, e: int) -> np.ndarray:
    """The v of lev_odd (e = 0), p(s) - (p_{k+1}(s)/p_{k+1}(1)) p(1), or of
    lev_even (e = 1), (1 - s^2) G^-1 p(s), as Python-float combinations of
    p(s), p(1) and p(-1): (I - J_k^2)^-1 is the mean of (I -/+ J_k)^-1,
    which Christoffel-Darboux gives on p(s) and e_k in closed form, and one
    Sherman-Morrison step (denominator det G / det(I - J_k^2) > 0) adds the
    a_k^2 corner. That form divides by 1 + s: at s = -1, G v = p(-1)."""
    _check_degree(spec, Variant.PLUSMINUS if e else Variant.MINUS, k, "the Levenshtein kernel")
    at_s = _basis_at(spec, Variant.BASE, k + 1, s)
    one = basis_at_end(spec, Variant.BASE, k + 1, 1.0)
    ps, po = at_s.item(k + 1), one.item(k + 1)
    if not e:
        return at_s[: k + 1] - (ps / po) * one[: k + 1]
    a = recurrence_coeffs(spec, Variant.BASE, k).a[k]
    if s == -1.0:
        jac = jacobi_matrix(spec, Variant.BASE, k).matrix()
        gram = np.eye(k + 1) - jac @ jac
        gram[k, k] -= a * a
        return np.linalg.solve(gram, at_s[: k + 1])
    neg = basis_at_end(spec, Variant.BASE, k + 1, -1.0)
    pm = neg.item(k + 1)
    to_one, to_neg = -0.5 * ps * (1.0 + s) / po, -0.5 * ps * (1.0 - s) / pm
    corner = at_s.item(k) + to_one * one.item(k) + to_neg * neg.item(k)
    q = 0.5 * a * corner / (1.0 - 0.5 * a * (one.item(k) / po - neg.item(k) / pm))
    return at_s[: k + 1] + (to_one + q / po) * one[: k + 1] + (to_neg - q / pm) * neg[: k + 1]


def _kernel_square_poly(spec, k, s, method, v=None, e=0, basis=Variant.BASE) -> BoundPolynomial:
    """c (x - s)(x + 1)^e (v . p(x))^2 over p_0..p_k of the basis system:
    the base system for every bound, an adjacent one only for
    spectral_recover_bound over it. v defaults to the vector of method,
    _lev_vector's for lev_odd and lev_even, else p(s); any other v is an
    eigenvector from the spectral route.

    fhat is one expansion on a rule, base rows times the weighted product
    form: the nodes of a discrete space, where v . p(x) is v times the
    cached base node table and f(1) its value at node 0 (x = 1), or the
    (degree + 1)-point Gauss rule of fourier_expand on a continuous one,
    where v . p(x) is v times the leading rows of the expansion's cached
    table and f(1) reads the cached basis_at_end table. These are the
    values the recurrence gives there, bit for bit; an adjacent system
    runs its recurrence there. Callers hold an np.errstate: an overflow
    leaves a non-finite fhat, which the certificate refuses.
    """
    if not -1.0 <= s < 1.0:
        raise ValidationError("%s_poly needs s in [-1, 1), got %r" % (method, s))
    degree = 2 * k + 1 + e
    if spec.kind == "custom":
        # the expansion takes degree + 1 Gauss points, and M coefficient
        # pairs build rules of at most M points
        points = max_degree(spec, Variant.BASE)
        if degree >= points:
            raise DegreeBudgetError(
                "degree budget exceeded: the degree-%d %s polynomial needs a %d-point "
                "Gauss rule, and %s's coefficients build at most %d points"
                % (degree, method, degree + 1, spec.label(), points)
            )
    if v is None:
        v = (_lev_vector(spec, k, s, e) if method.startswith("lev")
             else _basis_at(spec, basis, k, s))

    def product(x, table):
        kern = v @ table
        return ((x - s) * (x + 1.0) if e else x - s) * kern * kern

    if spec.discrete:
        x, w = node_weights(spec, Variant.BASE)
        base_rows = discrete_basis_table(spec, Variant.BASE)[: degree + 1]
    else:
        x, w = quadrature(spec, Variant.BASE, degree + 1)
        base_rows = gauss_basis_table(spec, degree, degree + 1)
    rows = base_rows[: k + 1] if basis is Variant.BASE else eval_basis_table(spec, basis, k, x)
    on_rule = product(x, rows)
    at_one = float(on_rule[0] if spec.discrete
                   else product(1.0, basis_at_end(spec, basis, k, 1.0)))
    if at_one == 0.0:
        raise SingularOperatorError(
            "%s normalization undefined: f(1) = 0 at k=%d, s=%r" % (method, k, s)
        )
    c = 1.0 / at_one
    if not math.isfinite(c):
        raise NumericError("%s normalization overflowed at k=%d, s=%r" % (method, k, s))
    fhat = base_rows @ (w * (c * on_rule))
    return BoundPolynomial(
        method=method, degree=degree, s=float(s), c=c,
        fhat=tuple(fhat.tolist()), spec=spec, k=k,
    )


def mrrw_poly(spec: MeasureSpec, k: int, s: float) -> BoundPolynomial:
    """c (x - s) K_k(x, s)^2 over the base kernel, degree 2k + 1."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _kernel_square_poly(spec, k, s, "mrrw")


def mrrw_bound_closed(spec: MeasureSpec, k: int, s: float, at_s=None) -> float:
    """Closed-form value -(1-s) K_k(1,s)^2 / (a_k p_{k+1}(s) p_k(s)).

    Only meaningful strictly inside the window x_k < s < x_{k+1} between
    consecutive largest zeros; outside it, or within _WINDOW_TIE_TOL of
    either edge, the expression is rejected. at_s, when given, holds
    p_0(s)..p_{k+1}(s) from the caller's own run at s, which is then not
    run again.
    """
    _jacobi_coeffs(spec, Variant.BASE, k)
    if _base_window(spec, s, k + 1) != (k + 1, True):
        raise ValidationError("closed-form bound needs x_k < s < x_{k+1} clear of both edges, "
                              "got s=%r outside the window of k=%d" % (s, k))
    table_s = _basis_at(spec, Variant.BASE, k + 1, s) if at_s is None else at_s
    kern_one = float(table_s[: k + 1] @ basis_at_end(spec, Variant.BASE, k, 1.0))
    denom = recurrence_coeffs(spec, Variant.BASE, k).a[k] * table_s[k + 1] * table_s[k]
    if denom == 0.0:
        raise SingularOperatorError("closed-form denominator vanished at s=%r" % (s,))
    return -(1.0 - s) * kern_one * kern_one / denom


def lev_odd_poly(spec: MeasureSpec, k: int, s: float) -> BoundPolynomial:
    """c (x - s) (v . p(x))^2 in the base system, degree 2k + 1, with v =
    p_{k+1}(1) p(s) - p_{k+1}(s) p(1): the minus kernel K_k^-(x, s) up to scale."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _kernel_square_poly(spec, k, s, "lev_odd")


def lev_even_poly(spec: MeasureSpec, k: int, s: float) -> BoundPolynomial:
    """c (x - s)(x + 1) (v . p(x))^2 in the base system, degree 2k + 2, with
    v = G^-1 p(s), G = I - J_k^2 - a_k^2 e_k e_k^T: the plusminus kernel K_k^+-(x, s)."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _kernel_square_poly(spec, k, s, "lev_even", e=1)


def _window_top(spec: MeasureSpec, basis: Variant) -> int:
    """The top degree a window search on basis reads: max_degree, or on a
    sphere, which has none, _LEV_DEGREE_CAP + 1."""
    cap = max_degree(spec, basis)
    return _LEV_DEGREE_CAP + 1 if cap is None else cap


def _above(spec: MeasureSpec, basis: Variant, k: int, s: float, top: int) -> bool:
    """x_k > s + tol, as rounded: one Sturm pass over J_{top-1}, top >= k fixed per system."""
    return _zeros_below(spec, basis, math.nextafter(s + _WINDOW_TIE_TOL, math.inf), top) <= k


def lev_degree_select(spec: MeasureSpec, s: float):
    """Kernel degree and parity whose validity window contains s.

    Windows tile the s axis: [x_k^+-, x_{k+1}^-] belongs to the odd
    polynomial with kernel degree k (endpoints included), and the open gap
    (x_{k+1}^-, x_{k+1}^+-) to the even one with the same kernel degree.
    Ties at shared endpoints go to the odd variant, and each endpoint is
    widened by _WINDOW_TIE_TOL. The zeros interlace, x_k^+- < x_{k+1}^- <
    x_{k+1}^+- (Levenshtein 1995), so two Sturm passes settle the window:
    with i the first degree where x_i^- >= s - tol (_zeros_below) and
    k = max(i, 1) - 1, s lies in the odd window of k when s >= x_k^+- - tol
    and in the even window of k - 1 otherwise. Past the last minus zero
    only the even window of the top degree k_top can hold s. Raises when s
    lies beyond every available window.
    """
    if not s < 1.0:
        raise ValidationError("lev_degree_select needs s < 1")
    k_top = _window_top(spec, Variant.MINUS) - 1
    top_pm = _window_top(spec, Variant.PLUSMINUS)
    i = _zeros_below(spec, Variant.MINUS, s - _WINDOW_TIE_TOL, k_top + 1)
    k = max(i, 1) - 1
    if k <= top_pm:
        if _above(spec, Variant.PLUSMINUS, k, s, top_pm):
            return k - 1, "even"
        if k <= k_top:
            return k, "odd"
    raise DegreeBudgetError(
        "degree budget exceeded: no Levenshtein window of %s reaches s=%r"
        % (spec.label(), s)
    )


def bound_value(spec: MeasureSpec, f: BoundPolynomial) -> float:
    """f(1)/fhat_0 with f(1) = 1 enforced, i.e. 1/fhat_0, behind the same
    certificate every bound passes. Raises NotCertifiedError otherwise."""
    return _certified_result(spec, f, f.s).bound


def _certified_result(spec: MeasureSpec, poly: BoundPolynomial, s: float,
                      tolerances=None, cert=None, **fields) -> BoundResult:
    """The bound 1/fhat_0 of poly at s, with the other fields, read from a
    passing certificate's fhat: cert, or cone_certificate's verdict. Raises
    NotCertifiedError on a failed certificate."""
    cert = cert or cone_certificate(spec, poly, s, tolerances)
    if not cert.passed:
        raise NotCertifiedError(
            "%s polynomial of degree %d failed certification at s=%r on %s: %s"
            % (poly.method, poly.degree, s, spec.label(), cert.reason),
            certificate=cert,
        )
    return BoundResult(
        method=poly.method, space=spec, s=float(s), degree=poly.degree,
        bound=1.0 / cert.fhat[0], certificate=cert, **fields,
    )


def _kernel_result(spec: MeasureSpec, k: int, s: float, method: str, tolerances, fields,
                   basis: Variant = Variant.BASE) -> BoundResult:
    """The certified kernel square of method at (k, s), with the other
    fields given. v is p(s) for mrrw, _lev_vector's for lev_odd and
    lev_even, and the top eigenvector of T_k(s) over basis for spectral
    (an overflow in it is refused for its NaN residual). On the base
    system an mrrw or spectral result carries mrrw_bound_closed, from the
    same run of p(s), where s lies inside the window of k; a spectral
    bound must agree with it to 1e-7."""
    e = method == "lev_even" or basis is Variant.PLUSMINUS
    at_s = v = None
    if method == "spectral":
        T, at_s = _operator_at(spec, basis, k, s)
    elif method == "mrrw":
        cap = max_degree(spec, Variant.BASE)
        at_s = _basis_at(spec, Variant.BASE, k + 1 if cap is None or k < cap else k, s)
        v = at_s[: k + 1]
    with np.errstate(over="ignore", invalid="ignore"):
        if method == "spectral":
            v = top_eigenpair(T, start=s).vector
        poly = _kernel_square_poly(spec, k, s, method, v, e, basis)
        cert = _certificate(spec, poly, s, tolerances)
    closed = None
    if at_s is not None and basis is Variant.BASE and cert.passed:
        try:
            closed = mrrw_bound_closed(spec, k, s, at_s)
        except (ValidationError, SingularOperatorError):
            pass
    if (method == "spectral" and closed is not None
            and not math.isclose(1.0 / cert.fhat[0], closed, rel_tol=1e-7)):
        raise NumericError("spectral route %.12g disagrees with closed form %.12g"
                           % (1.0 / cert.fhat[0], closed))
    return _certified_result(spec, poly, s, tolerances, cert, closed_form=closed, **fields)


def spectral_recover_bound(spec: MeasureSpec, basis: Variant, k: int, s: float,
                           tolerances=None) -> BoundResult:
    """Bound rebuilt from the top eigenfunction of T_k(s).

    Squaring the top eigenfunction and multiplying by (x - s) (plus the
    (x + 1) root in the plusminus basis) reproduces the kernel-based
    constructions; for the base basis, inside the window of k, the result
    is checked against the closed form to 1e-7 relative and carries it.
    """
    return _kernel_result(spec, k, s, "spectral", tolerances, {}, basis)


@lru_cache(maxsize=None)
def _ball_sizes(n: int) -> tuple:
    """sum_{j <= e} C(n, j) for e = 0..n: the Hamming ball sizes of space n."""
    return tuple(itertools.accumulate(_binomial_row(n)))


def _ratio_or_inf(num: int, den: int) -> float:
    """num / den as a float, or inf where it leaves the float range."""
    try:
        return num / den
    except OverflowError:
        return math.inf


@lru_cache(maxsize=None)
def classical_baselines(n: int, d: int) -> tuple:
    """Textbook upper bounds attached to reports for context; inf where a
    bound leaves the float range."""
    e = (d - 1) // 2
    out = [
        ("singleton", _ratio_or_inf(2 ** (n - d + 1), 1)),
        ("sphere_packing", _ratio_or_inf(2 ** n, _ball_sizes(n)[e])),
    ]
    if 2 * d > n:
        out.append(("plotkin", 2 * d / (2 * d - n)))
    return tuple(out)


def _mrrw_scan(spec: MeasureSpec, s: float, tolerances, fields):
    """The certified MRRW candidate at this s, or None.

    Inside a window x_k < s < x_{k+1} the kernel square of degree k is the
    stationary point, so that degree alone is certified. When s sits on a
    largest zero x_e, the degrees e..e + _EDGE_REACH - 1 are certified and
    the least bound is kept, the lowest degree on a tie. They stop below
    the top window degree n - 1, which at s = -1 only ties the bound 2 of
    degree 0 up to rounding (on hamming:2 it undercuts it).
    """
    cap = max_degree(spec, Variant.BASE)
    e, inside = _base_window(spec, s, cap)
    ks = (e - 1,) if inside else range(e, min(e + _EDGE_REACH, cap - 1))
    results = []
    for k in ks:
        try:
            results.append(_kernel_result(spec, k, s, "mrrw", tolerances, fields))
        except (NotCertifiedError, SingularOperatorError, NumericError):
            continue
    return min(results, key=lambda r: r.bound, default=None)


def bound_for_distance(spec: MeasureSpec, d: int, method: str = "lev",
                       tolerances=None) -> BoundResult:
    """Certified bound for codes of minimum distance d in Hamming space.

    Maps d to s = 1 - 2d/n (a support node), picks the polynomial degree
    (the window containing s; for mrrw at a window edge x_e, the least
    bound over degrees e..e+3), and attaches classical baseline values for
    the report. Raises NotCertifiedError rather than returning any
    uncertified number.
    """
    if spec.kind != "hamming":
        raise ValidationError("bound_for_distance applies to Hamming spaces only")
    n = spec.params[0]
    if not (type(d) is int and 1 <= d <= n):
        raise ValidationError("distance must satisfy 1 <= d <= n, got %r" % (d,))
    s = spec.nodes[d]
    fields = {"d": d, "baselines": classical_baselines(n, d)}
    if method != "mrrw":
        return _bound_at(spec, s, method, None, tolerances, fields)
    res = _mrrw_scan(spec, s, tolerances, fields)
    if res is None:
        raise NotCertifiedError("no MRRW degree certifies at n=%d, d=%d (s=%r)" % (n, d, s))
    return res


def bound_for_s(spec: MeasureSpec, s: float, method: str = "lev", k=None,
                tolerances=None) -> BoundResult:
    """Certified bound at an explicit threshold s in [-1, 1).

    Works on any space, discrete or continuous. The kernel degree is
    selected automatically (lev by its window tiling, mrrw and spectral by
    the base window containing s); mrrw and spectral accept an explicit k
    override. Raises NotCertifiedError rather than returning an
    uncertified number.
    """
    s = float(s)
    if not (-1.0 <= s < 1.0):
        raise ValidationError("s must lie in [-1, 1), got %r" % (s,))
    return _bound_at(spec, s, method, k, tolerances, {})


def _bound_at(spec: MeasureSpec, s: float, method: str, k, tolerances, fields):
    """bound_for_s at a checked float s, with the other fields given."""
    if method == "lev":
        if k is not None:
            raise ValidationError(
                "the Levenshtein construction picks its own degree; drop k"
            )
        k, parity = lev_degree_select(spec, s)
        return _kernel_result(spec, k, s, "lev_" + parity, tolerances, fields)

    if method in ("mrrw", "spectral"):
        k = k if k is not None else _base_window_index(spec, s)
        if k is None:
            raise NotCertifiedError(
                "s=%r is outside every open window of %s" % (s, spec.label())
            )
        return _kernel_result(spec, k, s, method, tolerances, fields)

    raise ValidationError("unknown method %r" % (method,))


def _base_window_index(spec: MeasureSpec, s: float):
    """The unique k with x_k < s < x_{k+1}, or None when s is within
    _WINDOW_TIE_TOL of a window edge (the tie rule of lev_degree_select) or
    past the last window."""
    i, inside = _base_window(spec, s, _window_top(spec, Variant.BASE))
    return i - 1 if inside else None


def _base_window(spec: MeasureSpec, s: float, top: int):
    """(i, inside): i, the first degree up to top with x_i >= s - tol (top + 1
    past them all), and whether x_i > s + tol too, so s is in window i - 1.
    Both counts read J_{top-1}, which M coefficient pairs of a custom space
    determine up to top = M."""
    i = _zeros_below(spec, Variant.BASE, s - _WINDOW_TIE_TOL, top)
    return i, i <= top and _above(spec, Variant.BASE, i, s, top)


def polynomial_from_fourier(spec: MeasureSpec, coeffs, s) -> BoundPolynomial:
    """Wrap explicit base-system coefficients as a BoundPolynomial.

    Used by the verify front end. The coefficients are taken as given, so
    the fhat of an emitted certificate re-audits to the same certificate.
    They must form a nonempty flat list of finite numbers that fits the
    space's max degree, and s must be a number.
    """
    try:
        coeffs = np.asarray(coeffs, dtype=float)
        s = float(s)
    except (TypeError, ValueError) as exc:
        raise ValidationError("coefficients and s must be numbers: %s" % (exc,))
    if coeffs.ndim != 1 or coeffs.size == 0:
        raise ValidationError("coefficients must be a nonempty flat list")
    if not np.all(np.isfinite(coeffs)):
        raise ValidationError("coefficients must be finite")
    degree = coeffs.size - 1
    cap = max_degree(spec, Variant.BASE)
    if cap is not None and degree > cap:
        raise ValidationError(
            "coefficient list of length %d overflows max degree %d" % (coeffs.size, cap)
        )
    return BoundPolynomial(
        method="custom", degree=degree, s=s, c=1.0,
        fhat=tuple(coeffs.tolist()), spec=spec,
    )
