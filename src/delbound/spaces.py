"""Measure spaces on [-1, 1] and their moment functionals.

A space is described by a MeasureSpec, its parameters alone: a discrete
measure whose nodes and weights are built from n (binary Hamming space), a
continuous measure realized through Gauss quadrature generated from its
own recurrence coefficients (unit sphere), or a user-supplied one (custom).

Besides the base measure dmu, two modified measures are used throughout:

    minus      (1 - x) dmu
    plusminus  (1 - x^2) dmu

Both are kept unnormalized; the orthonormal systems built on them absorb
the total mass into their constant term.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple
from functools import cached_property, lru_cache

import numpy as np

from .errors import NumericError, ValidationError


class Variant(enum.Enum):
    """Which measure a computation runs against."""

    BASE = "base"
    MINUS = "minus"
    PLUSMINUS = "plusminus"
    __hash__ = object.__hash__  # members equal only themselves: hash at C level


class MeasureSpec(namedtuple("MeasureSpec", "kind params ab", defaults=(None,))):
    """Immutable description of a measure on [-1, 1]: a named tuple of the
    fields that identify it, and nothing derived.

    kind is one of "hamming", "sphere", "custom"; params holds n or d, and
    ab a custom space's recurrence coefficients. node_weights builds a
    Hamming space's nodes and weights; continuous spaces are integrated by
    Gauss rules of exact order from their recurrence coefficients."""

    # no __slots__ = (): the per-instance __dict__ holds the cached hash and nodes

    def __new__(cls, kind, params, ab=None):
        # hamming_space's refusals, here so that a spec built by hand meets them
        if kind == "hamming":
            n = params[0]
            if type(n) is not int or n < 1:
                raise ValidationError("hamming_space requires an integer n >= 1, got %r" % (n,))
            if n > 1074:
                raise ValidationError(
                    "hamming_space(%d) has node weights C(n, j) 2^-n that underflow to "
                    "0.0; the largest supported n is 1074" % (n,)
                )
        return super().__new__(cls, kind, params, ab)

    def __hash__(self) -> int:
        # hashing a custom space's ab on every cache lookup would dominate
        # it, so the hash is kept per instance, but never pickled: it varies
        # by hash seed
        held = self.__dict__
        if "_hash" not in held:
            held["_hash"] = hash((self.kind, self.params, self.ab))
        return held["_hash"]

    def __getstate__(self) -> dict:
        return {key: v for key, v in self.__dict__.items() if key not in ("_hash", "nodes")}

    @property
    def discrete(self) -> bool:
        return self.kind == "hamming"

    @cached_property
    def nodes(self):
        """x_j = (n - 2j)/n, j = 0..n, on hamming:n, held as bisects read it per op."""
        if self.kind != "hamming":
            return None
        n = self.params[0]
        return tuple((n - 2 * j) / n for j in range(n + 1))

    def label(self) -> str:
        if self.params:
            return "%s:%s" % (self.kind, ":".join(str(p) for p in self.params))
        return self.kind

    def to_json(self) -> dict:
        out = {"kind": self.kind, "params": list(self.params)}
        if self.discrete:
            out["nodes"] = list(self.nodes)
            out["weights"] = node_weights(self, Variant.BASE)[1].tolist()
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
    return MeasureSpec(kind="hamming", params=(n,))


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
    integrated by Gauss rules derived from these coefficients. Both
    adjacent systems are derived here, by a Christoffel step each, and
    coefficients whose (1 - x) dmu or (1 - x^2) dmu is not positive, so
    not a measure on [-1, 1], are refused, naming the system and the
    pivot of the step that loses its sign.
    """
    a = tuple(float(v) for v in a)
    b = tuple(float(v) for v in b)
    if len(a) != len(b):
        raise ValidationError("custom_space needs equally long a and b sequences")
    if not a:
        raise ValidationError("custom_space needs at least one coefficient pair")
    if not all(math.isfinite(v) for v in a + b) or any(v <= 0 for v in a):
        raise ValidationError("custom_space coefficients must be finite, a_i positive")
    spec = MeasureSpec(kind="custom", params=(), ab=(a, b))
    from .orthopoly import _coeffs_cached

    _coeffs_cached(spec, Variant.PLUSMINUS, 0)  # runs both steps, minus first
    return spec


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
    """Nodes and variant-adjusted weights C(n, j) 2^-n of a discrete measure.

    Both arrays are built once per (spec, variant) and returned read-only.
    """
    if not spec.discrete:
        raise ValidationError("node_weights is only defined for discrete measures")
    n = spec.params[0]
    x = np.array(spec.nodes)
    denom = 2 ** n
    w = np.array([c / denom for c in _binomial_row(n)]) * variant_multiplier(variant, x)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


_KILLED = {Variant.BASE: 0, Variant.MINUS: 1, Variant.PLUSMINUS: 2}


def max_degree(spec: MeasureSpec, variant: Variant = Variant.BASE):
    """Largest usable polynomial degree for the given system, or None.

    A Hamming space supported on m points determines orthonormal
    polynomials up to degree m - 1 only; the minus and plusminus variants
    kill one and two support points: n, n - 1 and n - 2 on hamming:n. A
    sphere has no cap (None). M coefficient pairs of a custom space fix
    the moments mu_0..mu_2M, which give the base system to degree M and
    both adjacent systems to degree M - 1. Any other kind is refused.
    """
    if spec.kind == "hamming":
        if variant not in _KILLED:
            raise ValidationError("unknown variant %r" % (variant,))
        return spec.params[0] - _KILLED[variant]
    if spec.kind == "custom":
        return len(spec.ab[0]) - (variant is not Variant.BASE)
    if spec.kind == "sphere":
        return None
    raise ValidationError("measure kind %r is not hamming, sphere or custom" % (spec.kind,))


def variant_mass(spec: MeasureSpec, variant: Variant) -> float:
    """Total mass of the variant measure (1 for any base measure), as its
    run carries it: read with no coefficient, which one custom pair lacks."""
    if variant is Variant.BASE:
        return 1.0
    from .orthopoly import _coeffs_cached

    return _coeffs_cached(spec, variant, 0).mass


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
    rule: more points than a discrete support has, or on a custom space
    more than max_degree.
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
