"""Ordered Hamming space combinatorics.

Vectors live in n blocks of length r over the alphabet Z_q. The shape of
a vector counts blocks by the position of their rightmost nonzero entry;
shapes index the distance classes of the space the way plain Hamming
weight classes do for r = 1, and the metric is the shape-weighted sum
sum_i i e_i. Weights w(e) are exact rationals so counting identities can
be asserted with equality. `ShapeVector` is a named tuple, as every
record of the package is, validated on every construction, so the module
loads no numpy, `dataclasses` or `inspect`.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .errors import ValidationError

_ENUM_BUDGET = 10 ** 6


class ShapeVector(namedtuple("ShapeVector", "e r n")):
    """Counts e = (e_1, ..., e_r) of n blocks of length r by
    rightmost-nonzero position: an immutable named tuple."""

    __slots__ = ()

    def __new__(cls, e, r, n):
        for name, v in (("r", r), ("n", n)):
            if type(v) is not int or v < 1:
                raise ValidationError("shape %s must be an integer >= 1, got %r" % (name, v))
        if type(e) is not tuple:
            raise ValidationError("shape e must be a tuple, got %s" % type(e).__name__)
        if len(e) != r:
            raise ValidationError("shape e needs exactly r = %d entries, got %d" % (r, len(e)))
        if any(type(v) is not int or v < 0 for v in e):
            raise ValidationError("shape e entries must be nonnegative integers, got %r" % (e,))
        if sum(e) > n:
            raise ValidationError("shape e entries sum past the number of blocks n = %d" % n)
        return super().__new__(cls, e, r, n)

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _make, which _replace calls, skips __new__
        return cls(*iterable)

    @property
    def e0(self) -> int:
        return self.n - sum(self.e)


def _check_alphabet(q):
    if type(q) is not int or q < 2:
        raise ValidationError("alphabet size must be at least 2")


def _compositions(r: int, limit: int):
    if r == 0:
        yield ()
        return
    for first in range(limit + 1):
        for rest in _compositions(r - 1, limit - first):
            yield (first,) + rest


def enumerate_shapes(r: int, n: int):
    """All shapes for n blocks of length r, lexicographic, C(n+r, r) many."""
    if not (type(r) is type(n) is int and r >= 1 and n >= 1):
        raise ValidationError(
            "enumerate_shapes needs integers r >= 1 and n >= 1, got r=%r n=%r" % (r, n)
        )
    total = math.comb(n + r, r)
    if total > _ENUM_BUDGET:
        raise ValidationError(
            "shape enumeration budget exceeded: C(%d, %d) = %d" % (n + r, r, total)
        )
    out = [ShapeVector(e=e, r=r, n=n) for e in _compositions(r, n)]
    assert len(out) == total
    return out


def shape_of(x, r: int) -> ShapeVector:
    """Shape of a vector given as a flat sequence of n blocks of length r."""
    x = tuple(x)
    if type(r) is not int or r < 1:
        raise ValidationError("shape r must be an integer >= 1, got %r" % (r,))
    if len(x) % r != 0:
        raise ValidationError("vector length must be a positive multiple of r")
    n = len(x) // r
    counts = [0] * r
    for block_start in range(0, len(x), r):
        block = x[block_start : block_start + r]
        rightmost = 0
        for pos in range(r, 0, -1):
            if block[pos - 1] != 0:
                rightmost = pos
                break
        if rightmost > 0:
            counts[rightmost - 1] += 1
    return ShapeVector(e=tuple(counts), r=r, n=n)


def shape_weight(e: ShapeVector, q: int) -> Fraction:
    """Probability w(e) of the shape under the uniform measure, exact.

    Block probabilities are p_i = (q-1) q^(i-r-1) for i >= 1 and
    p_0 = q^-r; w(e) is the multinomial n! prod p_i^{e_i} / e_i!.
    """
    _check_alphabet(q)
    r, n = e.r, e.n
    w = Fraction(math.factorial(n))
    w *= Fraction(1, q ** r) ** e.e0 / math.factorial(e.e0)
    for i in range(1, r + 1):
        ei = e.e[i - 1]
        w *= Fraction(q - 1, q ** (r + 1 - i)) ** ei / math.factorial(ei)
    return w


def nrt_weight(x, r: int) -> int:
    """sum_i i e_i of the vector's shape."""
    shape = shape_of(x, r)
    return sum(i * shape.e[i - 1] for i in range(1, r + 1))


def nrt_distance(x, y, q: int, r: int) -> int:
    """Shape-weighted distance between two vectors over Z_q."""
    x, y = tuple(x), tuple(y)
    if len(x) != len(y):
        raise ValidationError("dimension mismatch: %d vs %d" % (len(x), len(y)))
    _check_alphabet(q)
    diff = tuple((a - b) % q for a, b in zip(x, y))
    return nrt_weight(diff, r)
