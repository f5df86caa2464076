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

import bisect
import math
from dataclasses import dataclass
from functools import lru_cache
from operator import neg

import numpy as np

from .errors import ValidationError
from .orthopoly import (
    JacobiOperator,
    basis_at_one,
    discrete_basis_table,
    eval_basis_table,
    gauss_basis_table,
    recurrence_coeffs,
)
from .spaces import MeasureSpec, Variant, max_degree, node_weights, quadrature
from .strictjson import strict_json


@dataclass(frozen=True)
class Tolerances:
    """Acceptance slacks for the three cone conditions.

    coeff: how far below zero a coefficient fhat_i (i >= 1) may dip.
    pos: how much of fhat_0 must be strictly positive.
    sign: how far above zero f may rise on the audit set.
    """

    coeff: float = 1e-9
    pos: float = 1e-12
    sign: float = 1e-9

    def __post_init__(self):
        for name in ("coeff", "pos", "sign"):
            value = getattr(self, name)
            # a NaN slack compares false against everything, so every check
            # it guards would pass
            if not (math.isfinite(value) and value >= 0.0):
                raise ValidationError(
                    "tolerance %s must be finite and nonnegative, got %r" % (name, value)
                )

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
    table = gauss_basis_table(spec, Variant.BASE, n, n + 1)
    return table @ (w * np.asarray(f(x), dtype=float))


@dataclass(frozen=True)
class ConeCertificate:
    """Auditable record of a cone membership decision."""

    s: float
    fhat: tuple
    min_coeff_index: int
    min_coeff_value: float
    max_on_audit: float
    argmax: float
    audit_size: int
    tolerances: Tolerances
    verdict: str
    reason: str | None = None

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


def _audit_start(nodes: tuple, s: float) -> int:
    """Index of the first node x_j <= s, by one bisect of spec.nodes. The
    nodes of a discrete space descend, so the nodes in [-1, s] are the
    suffix from there."""
    return bisect.bisect_left(nodes, -s, key=neg)


@lru_cache(maxsize=None)
def _derivative_table(spec: MeasureSpec, deg: int):
    """(D, J), read-only: row i of D holds the coefficients of p_i' on
    p_0..p_{deg-1} in the base system, so fhat @ D holds those of f' for
    f = sum_i fhat_i p_i, and J is the Jacobi matrix J_{deg-1}, as which x
    acts on coefficient vectors. D is the derivative of the recurrence,
    a_i p_{i+1}' = p_i + (x - b_i) p_i' - a_{i-1} p_{i-1}'."""
    rc = recurrence_coeffs(spec, Variant.BASE, max(deg - 1, 0))
    jac = JacobiOperator(rc.b[:deg], rc.a[: deg - 1], Variant.BASE).matrix()
    out = np.zeros((deg + 1, deg))
    for i in range(deg):
        row = jac @ out[i] - rc.b[i] * out[i] - (rc.a[i - 1] * out[i - 1] if i else 0.0)
        row[i] += 1.0
        out[i + 1] = row / rc.a[i]
    out.flags.writeable = jac.flags.writeable = False
    return out, jac


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
    [-1, s]: an extra point can only tighten the check. f itself is read
    at those points by the recurrence. A non-finite coefficient of f'
    skips the eigensolve, and the endpoint values then fail the
    certificate.
    """
    if spec.discrete:
        x, _ = node_weights(spec, Variant.BASE)
        first = _audit_start(spec.nodes, s)
        if first < x.size:
            return x[first:], fhat @ discrete_basis_table(spec, Variant.BASE)[: fhat.size, first:]
        pts = np.array([-1.0])
    else:
        deriv, jac = _derivative_table(spec, fhat.size - 1)
        g = fhat @ deriv
        pts = np.array([-1.0, s])
        if np.isfinite(g).all():
            # trailing coefficients at or below 1e-300 of the largest only add
            # roots far outside [-1, 1]; dropping them keeps g_j / g_m, and so
            # the comrade matrix, finite
            kept = np.flatnonzero(np.abs(g) > 1e-300 * np.max(np.abs(g), initial=0.0))
            m = int(kept[-1]) if kept.size else 0
            if m:
                comrade = jac[:m, :m].copy()
                comrade[m - 1] -= jac[m - 1, m] * (g[:m] / g[m])
                roots = np.clip(np.linalg.eigvals(comrade).real, -1.0, s)
                pts = np.concatenate([pts, roots])
    return pts, _evaluate(spec, fhat, pts)


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
    read from basis_at_one, the table f(1) and the closed forms read too.

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

    tail = fhat[1:]
    if tail.size:
        min_idx = int(tail.argmin()) + 1
        min_val = float(tail[min_idx - 1])
    else:
        min_idx, min_val = 0, float(fhat[0])

    audit, vals = _audit(spec, fhat, s)
    arg = int(vals.argmax())
    max_val = float(vals[arg])
    argmax = float(audit[arg])

    reason = None
    if not np.isfinite(fhat).all():
        reason = "fhat has a non-finite entry"
    elif not np.isfinite(vals).all():
        reason = "f is not finite on the audit set"
    elif not (fhat[0] > tol.pos):
        reason = "fhat_0 = %.6e is not positive beyond tolerance %g" % (fhat[0], tol.pos)
    elif tail.size and min_val < -tol.coeff:
        reason = "fhat_%d = %.6e is negative beyond tolerance %g" % (
            min_idx,
            min_val,
            tol.coeff,
        )
    elif max_val > tol.sign:
        reason = "f(%.6g) = %.6e exceeds 0 beyond tolerance %g on [-1, s]" % (
            argmax,
            max_val,
            tol.sign,
        )
    else:
        floor = _DEFAULT_TOLERANCES.pos
        at_one = basis_at_one(spec, Variant.BASE, fhat.size - 1)
        # item() reads one entry as a Python float, with no copy of the
        # table, so sum() adds floats (compensated on Python 3.12+)
        slack = max(max_val, 0.0) - sum(
            v * at_one.item(i) for i, v in enumerate(fhat.tolist()) if i and v < 0.0)
        if not fhat[0] > floor:
            reason = "fhat_0 = %r is inside the positivity floor %g" % (float(fhat[0]), floor)
        elif slack >= fhat[0]:
            reason = ("fhat_0 = %r is not above the slack %r of its negative "
                      "coefficients and audit maximum" % (float(fhat[0]), slack))

    return ConeCertificate(
        s=float(s),
        fhat=given if type(given) is tuple else tuple(fhat.tolist()),
        min_coeff_index=min_idx,
        min_coeff_value=min_val,
        max_on_audit=max_val,
        argmax=argmax,
        audit_size=int(audit.size),
        tolerances=tol,
        verdict="pass" if reason is None else "fail",
        reason=reason,
    )
