"""Membership tests for the feasible cone of the linear programming bound.

A polynomial f qualifies at parameter s when f <= 0 on [-1, s], its mean
fhat_0 is strictly positive, and every other Fourier coefficient in the
base orthonormal system is nonnegative. Since each condition holds only
up to a tolerance, a bound also needs fhat_0 above the default positivity
floor and above the slack the tolerances leave. cone_certificate audits
all of these and returns an immutable, serializable verdict, the one
rule by which this package reports a bound or refuses it. All of them are
read off the coefficient vector the certificate reports, so a
certificate's own fhat re-audits to the same certificate. The sign
condition is read at the support nodes in [-1, s] on a discrete space,
and on a continuous one at -1, s and the roots of f' between them (the
eigenvalues of its comrade matrix in the base system), which decides it
exactly up to rounding, with no grid.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache

import numpy as np

from .errors import ValidationError
from .orthopoly import (
    JacobiOperator,
    _audit_start,
    _run_depth,
    _system_run,
    basis_at_end,
    discrete_basis_table,
    eval_basis_table,
    gauss_basis_table,
)
from .spaces import MeasureSpec, Variant, max_degree, node_weights, quadrature
from .strictjson import strict_json


class Tolerances(namedtuple("Tolerances", "coeff pos sign")):
    """Acceptance slacks for the three cone conditions: a named tuple,
    validated on every construction.

    coeff: how far below zero a coefficient fhat_i (i >= 1) may dip.
    pos: how much of fhat_0 must be strictly positive.
    sign: how far above zero f may rise on the audit set.
    """

    __slots__ = ()

    def __new__(cls, coeff=1e-9, pos=1e-12, sign=1e-9):
        for name, value in (("coeff", coeff), ("pos", pos), ("sign", sign)):
            # a NaN slack compares false against everything, so every check
            # it guards would pass
            if not (math.isfinite(value) and value >= 0.0):
                raise ValidationError(
                    "tolerance %s must be finite and nonnegative, got %r" % (name, value)
                )
        return super().__new__(cls, coeff, pos, sign)

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _make, which _replace calls, skips __new__
        return cls(*iterable)

    def to_json(self) -> dict:
        return {"coeff": self.coeff, "pos": self.pos, "sign": self.sign}


_DEFAULT_TOLERANCES = Tolerances()


def fourier_expand(spec: MeasureSpec, f, n: int) -> np.ndarray:
    """Coefficients fhat_0..fhat_n of f in the base orthonormal system.

    Discrete measures are summed exactly over their nodes; continuous ones
    use the (n + 1)-point Gauss rule, exact through degree 2n + 1, so the
    expansion of any polynomial of degree <= n is exact up to rounding.
    Either way f is called once, on every node, and the base table there
    is read from a cache: discrete_basis_table, or gauss_basis_table at
    the rule.
    """
    if n < 0:
        raise ValidationError("expansion degree must be nonnegative")
    if spec.discrete:
        cap = max_degree(spec, Variant.BASE)
        if n > cap:
            raise ValidationError(
                "a %d-node measure determines only %d coefficients; degree %d "
                "overflows" % (cap + 1, cap + 1, n)
            )
        x, w = node_weights(spec, Variant.BASE)
        table = discrete_basis_table(spec, Variant.BASE)[: n + 1]
        return table @ (w * np.asarray(f(x), dtype=float))
    x, w = quadrature(spec, Variant.BASE, n + 1)
    table = gauss_basis_table(spec, n, n + 1)
    return table @ (w * np.asarray(f(x), dtype=float))


class ConeCertificate(namedtuple(
        "ConeCertificate",
        "s fhat min_coeff_index min_coeff_value max_on_audit argmax audit_size "
        "tolerances verdict reason", defaults=(None,))):
    """Auditable record of a cone membership decision: a named tuple."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "verdict": self.verdict,
            "reason": self.reason,
            "s": self.s,
            "fhat": list(self.fhat),
            "min_coeff_index": self.min_coeff_index,
            "min_coeff_value": self.min_coeff_value,
            "max_on_audit": self.max_on_audit,
            "argmax": self.argmax,
            "audit_size": self.audit_size,
            "tolerances": self.tolerances.to_json(),
        }

    @property
    def certificate_id(self) -> str:
        """First 12 hex digits of the sha256 of what decides the verdict:
        schema, s, fhat, tolerances and verdict, as strict JSON, so the id
        re-hashes from the certificate as the CLI prints it."""
        # only printed output needs an id, so these load on first use
        import hashlib
        import json

        blob = self.to_json()
        decisive = {key: blob[key] for key in ("schema", "s", "fhat", "tolerances", "verdict")}
        canonical = json.dumps(strict_json(decisive), sort_keys=True, allow_nan=False)
        return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def _evaluate(spec: MeasureSpec, fhat: np.ndarray, x) -> np.ndarray:
    """f = sum_i fhat_i p_i at the points x."""
    return fhat @ eval_basis_table(spec, Variant.BASE, fhat.size - 1, x)


@lru_cache(maxsize=None)
def _derivative_table(spec: MeasureSpec, deg: int):
    """(D, J), read-only: row i of D holds the coefficients of p_i' on
    p_0..p_{deg-1} in the base system, so fhat @ D holds those of f' for
    f = sum_i fhat_i p_i, and J is the Jacobi matrix J_{deg-1}, as which x
    acts on coefficient vectors. Both are the leading blocks of the pair
    _derivative_run builds at the depth orthopoly._run_depth gives index
    deg - 1. Row i reads indices below i alone, so each block equals a
    build to deg bit for bit. D is copied out C-contiguous, as numpy's
    fhat @ D sums a strided block in another order; J is a view, read
    only by entry and by copies."""
    deriv, jac = _derivative_run(spec, _run_depth(spec, Variant.BASE, deg - 1))
    block = np.ascontiguousarray(deriv[: deg + 1, :deg])
    block.flags.writeable = False
    return block, jac[:deg, :deg]


@lru_cache(maxsize=None)
def _derivative_run(spec: MeasureSpec, depth: int):
    """(D, J) of _derivative_table to degree depth, read-only, over the base
    run at that depth. D is the derivative of the recurrence, a_i p_{i+1}'
    = p_i + (x - b_i) p_i' - a_{i-1} p_{i-1}', in Python floats: each row
    is the one before it under the three-term action of x, (x c)_j =
    (a_{j-1} c_{j-1} + a_j c_{j+1}) + b_j c_j, in O(i)."""
    a, b, _ = _system_run(spec, Variant.BASE, depth)
    deriv = np.zeros((depth + 1, depth))
    c, prev = [], []
    for i in range(depth):
        am, bi, ai = a[i - 1] if i else 0.0, b[i], a[i]
        # entries j < i of ((x - b_i) c - a_{i-1} prev) / a_i, with lo and
        # hi the entries c_{j-1} and c_{j+1}; entry i adds p_i's 1
        row = [((al * lo + ar * hi) + bj * cj - bi * cj - am * p) / ai
               for al, lo, ar, hi, bj, cj, p
               in zip((0.0, *a), (0.0, *c), a, (*c[1:], 0.0), b, c, (*prev, 0.0))]
        row.append(((am * c[-1] if i else 0.0) + 1.0) / ai)
        deriv[i + 1, : i + 1] = row
        prev, c = c, row
    jac = JacobiOperator(b[:depth], a[: depth - 1], Variant.BASE).matrix()
    deriv.flags.writeable = jac.flags.writeable = False
    return deriv, jac


def _audit(spec: MeasureSpec, fhat: np.ndarray, s: float):
    """Points of [-1, s] where the sign of f = sum_i fhat_i p_i is checked,
    and f there.

    For a discrete measure the support nodes inside [-1, s] decide the
    question exactly: the bound theorem constrains f only at attainable
    distances, and the cached node table holds every p_i at them, in a
    suffix of its columns. On a continuous measure f peaks on [-1, s] at
    an endpoint or at a root of f', so the endpoints and the roots of f'
    decide it exactly up to rounding. The coefficients g of f' in the base
    system are fhat times the cached _derivative_table D; with g_m the last
    one kept, the roots of f' are the eigenvalues of the comrade matrix
    J_{m-1} - (a_{m-1} / g_m) e_{m-1} g_{0..m-1}^T (Barnett 1975): the
    leading block of the J cached beside D, a_{m-1} = J[m-1, m], with its
    last row corrected. Each root is audited at its real part clipped to
    [-1, s] (a NaN stays NaN): an extra point can only tighten the check.
    -1, s and the roots are kept as a list of Python floats, which the
    recurrence reads with no numpy round trip at up to
    orthopoly._FEW_POINTS points, and f there is read by the recurrence.
    A non-finite coefficient of f' skips the eigensolve, and the endpoint
    values then fail the certificate.
    """
    if spec.discrete:
        x, _ = node_weights(spec, Variant.BASE)
        first = _audit_start(spec.nodes, s)
        if first < x.size:
            return x[first:], fhat @ discrete_basis_table(spec, Variant.BASE)[: fhat.size, first:]
        pts = [-1.0]
    else:
        deriv, jac = _derivative_table(spec, fhat.size - 1)
        g = fhat @ deriv
        s = float(s)
        pts = [-1.0, s]
        coeffs = g.tolist()
        if all(map(math.isfinite, coeffs)):
            # trailing coefficients at or below 1e-300 of the largest only add
            # roots far outside [-1, 1]; dropping them keeps g_j / g_m, and so
            # the comrade matrix, finite
            cut = 1e-300 * max(map(abs, coeffs), default=0.0)
            m = next((j for j in range(len(coeffs) - 1, 0, -1) if abs(coeffs[j]) > cut), 0)
            if m:
                comrade = jac[:m, :m].copy()
                comrade[m - 1] -= jac[m - 1, m] * (g[:m] / g[m])
                pts += [min(max(r, -1.0), s) for r in np.linalg.eigvals(comrade).real.tolist()]
    return np.array(pts), _evaluate(spec, fhat, pts)


def _all_finite(a: np.ndarray) -> bool:
    """Whether every entry of a is finite: a finite a @ a says so at once,
    as an inf or a NaN entry leaves it inf or NaN; an a @ a that is not
    finite is checked entry by entry."""
    return math.isfinite(a @ a) or bool(np.isfinite(a).all())


def cone_certificate(
    spec: MeasureSpec, f, s: float, tolerances: Tolerances | None = None
) -> ConeCertificate:
    """Audit f against the cone conditions at parameter s.

    A passing certificate is one a bound 1/fhat_0 follows from. Besides
    the three conditions within the tolerances, fhat_0 must clear the
    default positivity floor, whatever the tolerances, and the slacks
    must leave the LP inequality a bound: a code C gives
    |C| (fhat_0 - slack) <= f(1), with slack = sum_{i>=1} max(0, -fhat_i)
    p_i(1) + max(0, max_on_audit), so fhat_0 must exceed slack. p_i(1) is
    read from basis_at_end, the table f(1) and the closed forms read too.

    What is audited is the coefficient vector fhat that the certificate
    reports, so the certificate's own fhat re-audits to the same
    certificate. When f carries it as f.fhat, as a BoundPolynomial does,
    it is taken as it is: a tuple f.fhat is kept as the certificate's fhat.
    Otherwise f must be callable on arrays and is expanded: a degree
    attribute on f bounds the expansion; without one, a discrete space
    expands over its full basis (exact for any function on the nodes)
    while a continuous space has no such fallback and refuses. A
    non-finite coefficient or audited value fails the certificate (NaN
    compares false against every tolerance), with no overflow warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return _certificate(spec, f, s, tolerances)


def _certificate(spec: MeasureSpec, f, s: float, tolerances) -> ConeCertificate:
    """cone_certificate, under the caller's np.errstate."""
    if not (-1.0 <= s < 1.0):
        raise ValidationError("cone parameter s must lie in [-1, 1), got %r" % (s,))
    tol = tolerances or _DEFAULT_TOLERANCES
    degree = getattr(f, "degree", None)
    if spec.discrete:
        cap = max_degree(spec, Variant.BASE)
        degree = cap if degree is None else min(int(degree), cap)
    elif degree is None:
        raise ValidationError(
            "certificates on continuous spaces need f to carry a degree"
        )
    else:
        degree = int(degree)
    given = getattr(f, "fhat", None)
    fhat = fourier_expand(spec, f, degree) if given is None else np.asarray(given, dtype=float)

    # argmin and argmax return the first NaN if there is one; every value
    # they locate is read once, as a Python float, and compared as one
    finite = _all_finite(fhat)
    f0 = fhat.item(0)
    if fhat.size > 1:
        min_idx = int(fhat[1:].argmin()) + 1
        min_val = fhat.item(min_idx)
    else:
        min_idx, min_val = 0, f0

    audit, vals = _audit(spec, fhat, s)
    finite_on_audit = _all_finite(vals)
    arg = int(vals.argmax())
    max_val = vals.item(arg)
    argmax = audit.item(arg)

    coeff_tol, pos_tol, sign_tol = tol
    reason = None
    if not finite:
        reason = "fhat has a non-finite entry"
    elif not finite_on_audit:
        reason = "f is not finite on the audit set"
    elif not (f0 > pos_tol):
        reason = "fhat_0 = %.6e is not positive beyond tolerance %g" % (f0, pos_tol)
    elif min_idx and min_val < -coeff_tol:
        reason = "fhat_%d = %.6e is negative beyond tolerance %g" % (
            min_idx,
            min_val,
            coeff_tol,
        )
    elif max_val > sign_tol:
        reason = "f(%.6g) = %.6e exceeds 0 beyond tolerance %g on [-1, s]" % (
            argmax,
            max_val,
            sign_tol,
        )
    else:
        floor = _DEFAULT_TOLERANCES.pos
        at_one = basis_at_end(spec, Variant.BASE, fhat.size - 1, 1.0)
        # item() reads one entry as a Python float, with no copy of the
        # table, so sum() adds floats (compensated on Python 3.12+)
        slack = max(max_val, 0.0) - sum(
            v * at_one.item(i) for i, v in enumerate(fhat.tolist()) if i and v < 0.0)
        if not f0 > floor:
            reason = "fhat_0 = %r is inside the positivity floor %g" % (f0, floor)
        elif slack >= f0:
            reason = ("fhat_0 = %r is not above the slack %r of its negative "
                      "coefficients and audit maximum" % (f0, slack))

    return ConeCertificate(
        s=float(s),
        fhat=given if type(given) is tuple else tuple(fhat.tolist()),
        min_coeff_index=min_idx,
        min_coeff_value=min_val,
        max_on_audit=max_val,
        argmax=argmax,
        audit_size=audit.size,
        tolerances=tol,
        verdict="pass" if reason is None else "fail",
        reason=reason,
    )
