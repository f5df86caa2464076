"""Small exact Delsarte linear program on binary Hamming spaces.

Ground truth for everything else: each certified polynomial bound must
sit at or above the LP optimum, and the LP optimum at or above the size
of any explicit code. The primal solved here is

    maximize 1 + sum_{j=d}^{n} B_j
    subject to B_j >= 0 and sum_j B_j K_i(j) >= -C(n, i) for i = 1..n,

with integer Krawtchouk coefficients from one table per n, the columns
-K_i(j), built by the three-term recurrence in O(n^2) integer steps (the
public `krawtchouk` is the explicit alternating sum); an instance selects
its columns from it, and b_i = C(n, i) is column 0 negated. There is one
simplex, and it is exact: it pivots on a condensed integer tableau, the
nonbasic columns only, each labelled by its variable, with one common
denominator (see `_simplex_max`), so no step rounds. Bland's rule takes
the columns in distance order, and two classical reductions
(Delsarte 1973; MacWilliams-Sloane 1977, ch. 17) cut each instance to
about a quarter of its tableau, with the same optimum:

- Even d is solved on the even distances d, d + 2, ..., n and rows
  i = 1..n//2, with B_j = 0 at odd j. On even j, K_{n-i}(j) = K_i(j) and
  C(n, n-i) = C(n, i), so rows i and n - i are one row, and row n reads
  sum_j B_j >= -1. The even distances lose nothing: LP(n, d) <=
  LP(n-1, d-1) <= LP on even distances (n, d) <= LP(n, d). The first
  step punctures B to ((n-j) B_j + (j+1) B_{j+1})/n, feasible since
  (n-j) K_i^{n-1}(j) + j K_i^{n-1}(j-1) = (n-i) K_i^n(j); the second
  adds a parity bit, B_{2t} <- B_{2t} + B_{2t-1}, whose row i is the sum
  of rows i and n - i of n - 1: the column of distance j there is
  K_i^{n-1}(j) + (-1)^j K_{i-1}^{n-1}(j) = K_i^{n-1}(j) + K_{n-i}^{n-1}(j),
  and C(n-1, i) + C(n-1, n-i) = C(n, i).
- Odd d reads the solution of (n + 1, d + 1), one simplex for both
  instances, and returns it punctured:
  B_j = ((n+1-j) B'_j + (j+1) B'_{j+1})/(n+1), with the same optimum.

Each (n, d) is solved once and shared by both modes; exact mode returns
the optimum and B as Fractions, float mode returns float() of each, the
correctly rounded exact optimum. Sizes are capped at n <= MAX_N.

The module loads no numpy, and its result record `LPSolution` is a
named tuple, as every record of the package is, so importing it loads no
`dataclasses` or `inspect` either.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple
from fractions import Fraction

from .errors import NumericError, ValidationError

MAX_N = 64


def krawtchouk(n: int, i: int, j: int) -> int:
    """Integer Krawtchouk value K_i(j) = sum_l (-1)^l C(j,l) C(n-j, i-l)."""
    if not (type(n) is type(i) is type(j) is int and i >= 0 and 0 <= j <= n):
        raise ValidationError(
            "krawtchouk needs integers n >= 0, i >= 0 and 0 <= j <= n, "
            "got n=%r i=%r j=%r" % (n, i, j)
        )
    return sum(
        (-1) ** l * math.comb(j, l) * math.comb(n - j, i - l)
        for l in range(max(0, i - (n - j)), min(i, j) + 1)
    )


class LPSolution(namedtuple("LPSolution", "n d value B status mode")):
    """Optimum of one Delsarte LP instance: an immutable named tuple of
    n, d, the optimum `value`, B as ((j, B_j), ...) pairs, `status` and
    `mode`."""

    __slots__ = ()

    @property
    def value_float(self) -> float:
        return float(self.value)

    def to_json(self) -> dict:
        out = {
            "schema": 1,
            "n": self.n,
            "d": self.d,
            "value": float(self.value),
            "status": self.status,
            "mode": self.mode,
            "B": {str(j): float(v) for j, v in self.B},
        }
        if self.mode == "exact":
            out["value_exact"] = str(self.value)
            out["B_exact"] = {str(j): str(v) for j, v in self.B}
        return out


def _krawtchouk_rows(n: int) -> tuple:
    """K_i(j) for i = 0..n (one row each) and j = 0..n, read from the
    cached column table: row 0 is all ones, row i >= 1 negates entry i - 1
    of each column."""
    return ((1,) * (n + 1),) + tuple(tuple(-v for v in row) for row in zip(*_columns(n)))


@functools.lru_cache(maxsize=None)
def _columns(n: int) -> tuple:
    """The one Krawtchouk table per n: column j = (-K_1(j), ..., -K_n(j))
    for j = 0..n, the LP's constraint column of B_j, so column 0 is
    -b = (-C(n, 1), ..., -C(n, n)). Rows come from the three-term
    recurrence (i + 1) K_{i+1}(j) = (n - 2j) K_i(j) - (n - i + 1) K_{i-1}(j)
    from K_0 = 1 and K_1(j) = n - 2j: O(n^2) integer steps, each division
    exact, since K_{i+1}(j) is an integer."""
    t = [n - 2 * j for j in range(n + 1)]
    rows = [[1] * (n + 1), t][: n + 1]
    for i in range(1, n):
        prev, cur, w = rows[i - 1], rows[i], n - i + 1
        rows.append([(a * x - w * y) // (i + 1) for a, x, y in zip(t, cur, prev)])
    return tuple(zip(*([-v for v in row] for row in rows[1:])))


def _simplex_max(A, b, c):
    """Condensed tableau simplex for max c.x s.t. A.x <= b, x >= 0, b >= 0,
    with integer A, b and c. Returns (status, optimum, x), the optimum and
    x as Fractions.

    The tableau keeps only the nonbasic columns: m rows, one per basic
    variable, and the objective row last, each holding the nonbasic
    columns and then the right-hand side. Every column and every row carries its
    variable's label (0..nv-1 for x, nv..nv+m-1 for the slacks), and
    Bland's smallest-label rule picks both the entering column and, among
    ratio ties, the leaving row, which cannot cycle. The tableau holds
    integers T and one common denominator D > 0, and its true entries are
    T/D (integer-preserving pivoting: Edmonds 1967, Bareiss 1968). A pivot
    on row r, column c with p = T[r][c] > 0 maps every other row, the
    objective row included, to

        T[i][j] <- (T[i][j] * p - T[i][c] * T[r][j]) // D   for j != c,
        T[i][c] <- -T[i][c],

    leaves row r as it is except T[r][c] <- D, swaps the labels of row r
    and column c, and sets D <- p; column c then holds the leaving
    variable, whose full-tableau column was D times a unit vector. Every
    division is exact: by Cramer's rule D is the determinant of the
    current basis matrix, and each T entry is a minor of the starting
    integer tableau bordered by the objective row. The pivots are those of
    a rational tableau: D > 0, so signs are read off T, and the ratio test
    compares T[i][-1] / T[i][c] across rows by cross-multiplication. No
    step rounds.
    """
    m, nv = len(A), len(c)
    tab = [list(A[i]) + [b[i]] for i in range(m)]
    tab.append([-v for v in c] + [0])
    cols = list(range(nv))
    basis = list(range(nv, nv + m))
    den = 1

    for _ in range(50000):
        obj = tab[m]
        col = min((j for j in range(nv) if obj[j] < 0), key=cols.__getitem__, default=None)
        if col is None:
            x = [Fraction(0)] * nv
            for i, label in enumerate(basis):
                if label < nv:
                    x[label] = Fraction(tab[i][-1], den)
            return "optimal", Fraction(obj[-1], den), x
        pivot_row = None
        for i in range(m):
            a = tab[i][col]
            if a > 0:
                if pivot_row is None:
                    pivot_row = i
                    continue
                lhs = tab[i][-1] * tab[pivot_row][col]
                rhs = tab[pivot_row][-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[pivot_row]):
                    pivot_row = i
        if pivot_row is None:
            return "unbounded", None, None
        den = _pivot(tab, cols, basis, pivot_row, col, den)
    raise NumericError("simplex iteration cap exceeded")


def _pivot(tab, cols, basis, r, c, den):
    """One integer pivot of the condensed tableau at row r, column c, in
    place (see `_simplex_max`); returns the new denominator."""
    prow = tab[r]
    piv = prow[c]
    for i, row in enumerate(tab):
        if i == r:
            continue
        factor = row[c]
        if factor == 0:
            if piv != den:
                tab[i] = [v * piv // den for v in row]
            continue
        new = [(v * piv - factor * p) // den for v, p in zip(row, prow)]
        new[c] = -factor
        tab[i] = new
    prow[c] = den
    cols[c], basis[r] = basis[r], cols[c]
    return piv


@functools.lru_cache(maxsize=None)
def _solve(n: int, d: int) -> tuple:
    """(status, optimum 1 + sum_j B_j, (B_d, ..., B_n)) of the instance
    (n, d) in Fractions, solved once for both modes: for even d on rows
    1..n//2 and the even distances, for odd d as (n + 1, d + 1) punctured
    (see the module docstring)."""
    if d % 2:
        status, opt, x = _solve(n + 1, d + 1)
        return status, opt, tuple(((n + 1 - j) * a + (j + 1) * b) / (n + 1)
                                  for j, a, b in zip(range(d, n + 1), (0, *x), x))
    cols, h = _columns(n), n // 2
    A = [list(row) for row in zip(*(cols[j][:h] for j in range(d, n + 1, 2)))]
    status, opt, x = _simplex_max(A, [-v for v in cols[0][:h]], [1] * len(A[0]))
    if status != "optimal":
        return status, math.inf, ()
    return status, 1 + opt, tuple(Fraction(0) if t % 2 else x[t // 2] for t in range(n - d + 1))


def delsarte_lp(n: int, d: int, mode: str = "float") -> LPSolution:
    """LP optimum for binary codes of length n, minimum distance d; float
    mode gives the exact optimum, each value correctly rounded."""
    if not (type(n) is type(d) is int and 1 <= d <= n <= MAX_N):
        raise ValidationError(
            "delsarte_lp needs integers 1 <= d <= n <= %d, got n=%r d=%r" % (MAX_N, n, d)
        )
    if mode not in ("float", "exact"):
        raise ValidationError("mode must be 'float' or 'exact'")
    status, value, x = _solve(n, d)
    if mode == "float":
        value, x = float(value), [float(v) for v in x]
    B = tuple(zip(range(d, n + 1), x))
    return LPSolution(n=n, d=d, value=value, B=B, status=status, mode=mode)


def hamming_distance(u, v) -> int:
    if len(u) != len(v):
        raise ValidationError("length mismatch in hamming_distance")
    return sum(1 for a, b in zip(u, v) if a != b)


def min_distance(code) -> int:
    """Smallest pairwise Hamming distance, by exhaustive comparison."""
    words = list(code)
    if len(words) < 2:
        raise ValidationError("min_distance needs at least two words, got %d" % len(words))
    return min(hamming_distance(u, v) for u, v in itertools.combinations(words, 2))


def repetition_code(n: int):
    return [(0,) * n, (1,) * n]


def even_weight_code(n: int):
    """All length-n words of even weight: 2^(n-1) words at distance 2."""
    return [w for w in itertools.product((0, 1), repeat=n) if sum(w) % 2 == 0]


def hamming_code_7_4():
    """The 16-word length-7 code of minimum distance 3."""
    gen = (
        (1, 0, 0, 0, 1, 1, 0),
        (0, 1, 0, 0, 1, 0, 1),
        (0, 0, 1, 0, 0, 1, 1),
        (0, 0, 0, 1, 1, 1, 1),
    )
    words = []
    for bits in itertools.product((0, 1), repeat=4):
        word = tuple(
            sum(bit * row[t] for bit, row in zip(bits, gen)) % 2 for t in range(7)
        )
        words.append(word)
    return words
