"""Measure spaces on [-1, 1] and their moment functionals.

A space is described by a MeasureSpec: either a discrete measure given by
nodes and weights (binary Hamming space), a continuous measure realized
through Gauss quadrature generated from its own recurrence coefficients
(unit sphere), or a user-supplied recurrence (custom).

Besides the base measure dmu, two modified measures are used throughout:

    minus      (1 - x) dmu
    plusminus  (1 - x^2) dmu

Both are kept unnormalized; the orthonormal systems built on them absorb
the total mass into their constant term.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NumericError, ValidationError


class Variant(enum.Enum):
    """Which measure a computation runs against."""

    BASE = "base"
    MINUS = "minus"
    PLUSMINUS = "plusminus"
    __hash__ = object.__hash__  # members equal only themselves: hash at C level


@dataclass(frozen=True)
class MeasureSpec:
    """Immutable description of a measure on [-1, 1].

    kind is one of "hamming", "sphere", "custom". Discrete measures carry
    explicit nodes and weights; continuous ones are defined entirely by
    recurrence coefficients (closed-form for the sphere, user-supplied for
    custom) and integrated by Gauss rules of exact order.
    """

    kind: str
    params: tuple
    nodes: tuple | None = None
    weights: tuple | None = None
    ab: tuple | None = None

    def __hash__(self) -> int:
        # Every constructor derives nodes and weights from params, so
        # (kind, params, ab) separates unequal specs; hashing the two
        # (n+1)-tuples on every cache lookup would dominate large spaces. The
        # hash is kept per instance but never pickled: it varies by hash seed.
        if "_hash" not in self.__dict__:
            self.__dict__["_hash"] = hash((self.kind, self.params, self.ab))
        return self.__dict__["_hash"]

    def __getstate__(self) -> dict:
        return {key: v for key, v in self.__dict__.items() if key != "_hash"}

    @property
    def discrete(self) -> bool:
        return self.nodes is not None

    def label(self) -> str:
        if self.params:
            return "%s:%s" % (self.kind, ":".join(str(p) for p in self.params))
        return self.kind

    def to_json(self) -> dict:
        out = {"kind": self.kind, "params": list(self.params)}
        if self.discrete:
            out["nodes"] = list(self.nodes)
            out["weights"] = list(self.weights)
        return out


@lru_cache(maxsize=None)
def _binomial_row(n: int) -> tuple:
    """C(n, 0)..C(n, n) as exact integers, by C(n, j + 1) = C(n, j)(n - j)/(j + 1):
    one product and one exact division per entry, not a fresh math.comb."""
    row = [1]
    for j in range(n):
        row.append(row[-1] * (n - j) // (j + 1))
    return tuple(row)


def hamming_space(n: int) -> MeasureSpec:
    """Binary Hamming space of length n, as a measure on [-1, 1].

    Nodes are x_j = 1 - 2j/n for j = 0..n and the weight of x_j is
    C(n, j) 2^-n, the distance distribution of the whole space. From
    n = 1075 on, 2^-n underflows to 0.0 in floating point, which would
    silently drop nodes from the measure, so such n are refused.
    """
    if type(n) is not int or n < 1:
        raise ValidationError("hamming_space requires an integer n >= 1, got %r" % (n,))
    nodes = tuple((n - 2 * j) / n for j in range(n + 1))
    denom = 2 ** n
    weights = tuple(c / denom for c in _binomial_row(n))
    if 0.0 in weights:
        raise ValidationError(
            "hamming_space(%d) has node weights C(n, j) 2^-n that underflow to "
            "0.0; the largest supported n is 1074" % (n,)
        )
    return MeasureSpec(kind="hamming", params=(n,), nodes=nodes, weights=weights)


def sphere_space(d: int) -> MeasureSpec:
    """Unit sphere in R^d, projected to the inner-product variable.

    The induced measure on [-1, 1] has density proportional to
    (1 - x^2)^((d-3)/2). Nothing is stored beyond d; all integration is
    done by Gauss rules built from the recurrence coefficients.
    """
    if not isinstance(d, int) or d < 3:
        raise ValidationError("sphere_space requires an integer d >= 3, got %r" % (d,))
    return MeasureSpec(kind="sphere", params=(d,))


def custom_space(a, b) -> MeasureSpec:
    """Measure defined only through orthonormal recurrence coefficients.

    The caller supplies a_0..a_{M-1} and b_0..b_{M-1}; polynomials up to
    degree M are then available. The measure is treated as continuous and
    integrated by Gauss rules derived from these coefficients.
    """
    a = tuple(float(v) for v in a)
    b = tuple(float(v) for v in b)
    if len(a) != len(b):
        raise ValidationError("custom_space needs equally long a and b sequences")
    if not a:
        raise ValidationError("custom_space needs at least one coefficient pair")
    if not all(math.isfinite(v) for v in a + b) or any(v <= 0 for v in a):
        raise ValidationError("custom_space coefficients must be finite, a_i positive")
    return MeasureSpec(kind="custom", params=(), ab=(a, b))


def variant_multiplier(variant: Variant, x):
    """Pointwise density of the variant measure against the base one."""
    x = np.asarray(x, dtype=float)
    if variant is Variant.BASE:
        return np.ones_like(x)
    if variant is Variant.MINUS:
        return 1.0 - x
    if variant is Variant.PLUSMINUS:
        return (1.0 - x) * (1.0 + x)
    raise ValidationError("unknown variant %r" % (variant,))


@lru_cache(maxsize=None)
def node_weights(spec: MeasureSpec, variant: Variant):
    """Nodes and variant-adjusted weights of a discrete measure.

    Both arrays are built once per (spec, variant) and returned read-only.
    """
    if not spec.discrete:
        raise ValidationError("node_weights is only defined for discrete measures")
    x = np.array(spec.nodes, dtype=float)
    w = np.array(spec.weights, dtype=float) * variant_multiplier(variant, x)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


@lru_cache(maxsize=None)
def max_degree(spec: MeasureSpec, variant: Variant = Variant.BASE):
    """Largest usable polynomial degree for the given system, or None.

    A discrete measure supported on m points determines orthonormal
    polynomials up to degree m - 1 only; the minus and plusminus variants
    kill one and two support points respectively. Continuous measures have
    no cap (None), except custom recurrences which end where the supplied
    coefficients do: M pairs give the base system to degree M, and an
    adjacent one to the last index whose Stieltjes rule (see
    adjacent_rule_points) has at most the M points they determine.
    """
    if spec.discrete:
        _, w = node_weights(spec, variant)
        return int(np.count_nonzero(w > 0.0)) - 1
    if spec.kind == "custom":
        top = len(spec.ab[0])
        return top if variant is Variant.BASE else top - adjacent_rule_points(variant, 0)
    return None


def adjacent_rule_points(variant: Variant, m: int) -> int:
    """Points of the base Gauss rule on which the Stieltjes procedure runs
    an adjacent system to index m. Its last inner product, a_m^2, weighs
    the square of a residual of degree m + 1 by the multiplier 1 - x or
    1 - x^2: degree 2m + 3 or 2m + 4, which m + 2 or m + 3 points, exact
    through degree 2m + 3 or 2m + 5, integrate exactly."""
    return m + (2 if variant is Variant.MINUS else 3)


def variant_mass(spec: MeasureSpec, variant: Variant) -> float:
    """Total mass of the variant measure (1 for any base measure), as the
    variant's recurrence carries it."""
    if variant is Variant.BASE:
        return 1.0
    from .orthopoly import recurrence_coeffs

    return recurrence_coeffs(spec, variant, 0).mass


def moment_functional(spec: MeasureSpec, variant: Variant, f, degree: int) -> float:
    """Evaluate F(f), F^-(f) or F^+-(f) for a polynomial evaluator f.

    The degree bound lets the continuous path pick a Gauss rule that is
    exact for the integrand; discrete measures are summed exactly.
    """
    if spec.discrete:
        x, w = node_weights(spec, variant)
        vals = np.asarray(f(x), dtype=float)
        out = float(np.dot(w, vals))
    else:
        total = degree + (0 if variant is Variant.BASE else 2)
        m = total // 2 + 1
        x, w = quadrature(spec, variant, m)
        vals = np.asarray(f(x), dtype=float)
        out = float(np.dot(w, vals))
    if not math.isfinite(out):
        raise NumericError("moment functional overflowed for %s" % spec.label())
    return out


def quadrature(spec: MeasureSpec, variant: Variant, m: int):
    """m-point Gauss rule for the (possibly unnormalized) variant measure.

    Nodes are the eigenvalues of the order-m truncation of the measure's
    Jacobi matrix; weights are the Christoffel numbers 1 / K_{m-1}(x, x).
    Exact for polynomials of degree <= 2m - 1. The weights sum to the
    variant's total mass, so unnormalized variants integrate as such.
    Both arrays are built once per (spec, variant, m), by _gauss_rule, and
    returned read-only. The rule reads coefficients to index m - 1, so an
    m whose index the system does not reach is refused, naming the m-point
    rule: more points than a discrete support has, or on the base system
    of a custom space more than its M coefficient pairs.
    """
    return _gauss_rule(spec, variant, m)[:2]


@lru_cache(maxsize=None)
def _gauss_rule(spec: MeasureSpec, variant: Variant, m: int):
    """quadrature's nodes and weights, and the table of p_0..p_{m-1} of the
    variant at the nodes that the weights are read from, all read-only."""
    if m < 1:
        raise ValidationError("quadrature needs m >= 1")
    from .orthopoly import (_check_degree, eval_basis_table, recurrence_coeffs,
                            tridiagonal_eigenvalues)

    _check_degree(spec, variant, m - 1, "the %d-point quadrature rule" % m)
    rc = recurrence_coeffs(spec, variant, m - 1)
    nodes = tridiagonal_eigenvalues(rc.b[:m], rc.a[: m - 1])
    table = eval_basis_table(spec, variant, m - 1, nodes)
    weights = 1.0 / np.sum(table * table, axis=0)
    for out in (nodes, weights, table):
        out.flags.writeable = False
    return nodes, weights, table
