"""Small exact Delsarte linear program on binary Hamming spaces.

Ground truth for everything else: each certified polynomial bound must
sit at or above the LP optimum, and the LP optimum at or above the size
of any explicit code. The primal solved here is

    maximize 1 + sum_{j=d}^{n} B_j
    subject to B_j >= 0 and sum_j B_j K_i(j) >= -C(n, i) for i = 1..n,

with integer Krawtchouk coefficients from the explicit alternating sum,
tabled once per n. There is one simplex, and it is exact: it pivots on
an integer tableau with one common denominator (see `_simplex_max`), so
no step rounds. Each (n, d) is solved once and shared by both modes;
exact mode returns the optimum and B as Fractions, float mode returns
float() of each, the correctly rounded exact optimum. Sizes are capped
at n <= MAX_N.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import NumericError, ValidationError

MAX_N = 14


def krawtchouk(n: int, i: int, j: int) -> int:
    """Integer Krawtchouk value K_i(j) = sum_l (-1)^l C(j,l) C(n-j, i-l)."""
    return sum(
        (-1) ** l * math.comb(j, l) * math.comb(n - j, i - l)
        for l in range(max(0, i - (n - j)), min(i, j) + 1)
    )


@dataclass(frozen=True)
class LPSolution:
    """Optimum of one Delsarte LP instance."""

    n: int
    d: int
    value: object
    B: tuple
    status: str
    mode: str

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


@functools.lru_cache(maxsize=None)
def _krawtchouk_rows(n: int) -> tuple:
    """K_i(j) for i = 1..n (one row each) and j = 0..n, so that the
    constraint rows of distance d are the slices row[d:]."""
    return tuple(
        tuple(krawtchouk(n, i, j) for j in range(n + 1)) for i in range(1, n + 1)
    )


def _simplex_max(A, b, c):
    """Dense tableau simplex for max c.x s.t. A.x <= b, x >= 0, b >= 0,
    with integer A, b and c. Returns (status, optimum, x), the optimum and
    x as Fractions.

    Bland's smallest-index rule throughout, which cannot cycle. The
    tableau holds integers T and one common denominator D > 0, and
    its true entries are T/D (integer-preserving pivoting: Edmonds 1967,
    Bareiss 1968). A pivot on row r, column c with p = T[r][c] > 0 maps
    every other row, the objective row included, to

        T[i][j] <- (T[i][j] * p - T[i][c] * T[r][j]) // D,

    leaves row r as it is and sets D <- p. Rows with T[i][c] = 0 are
    rescaled by p/D too. Every division is exact: by Cramer's rule D is
    the determinant of the current basis matrix, and each T entry is a
    minor of the starting integer tableau bordered by the objective row.
    The pivots are those of a rational tableau: D > 0, so signs are read
    off T, and the ratio test compares T[i][-1] / T[i][c] across rows by
    cross-multiplication, ties going to the smaller basis index. No step
    rounds.
    """
    m, nv = len(A), len(c)
    ncols = nv + m + 1
    tab = []
    for i in range(m):
        row = list(A[i]) + [0] * m + [b[i]]
        row[nv + i] = 1
        tab.append(row)
    obj = [-v for v in c] + [0] * (m + 1)
    basis = list(range(nv, nv + m))
    den = 1

    for _ in range(50000):
        col = next((j for j in range(ncols - 1) if obj[j] < 0), None)
        if col is None:
            x = [Fraction(0)] * (nv + m)
            for i, bv in enumerate(basis):
                x[bv] = Fraction(tab[i][-1], den)
            return "optimal", Fraction(obj[-1], den), x[:nv]
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
        prow = tab[pivot_row]
        piv = prow[col]
        for i in range(m):
            if i != pivot_row:
                tab[i] = _integer_eliminate(tab[i], prow, col, piv, den)
        obj = _integer_eliminate(obj, prow, col, piv, den)
        den = piv
        basis[pivot_row] = col
    raise NumericError("simplex iteration cap exceeded")


def _integer_eliminate(row, prow, col, piv, den):
    """One row of an integer pivot: (row * piv - row[col] * prow) // den."""
    factor = row[col]
    if factor == 0:
        return row if piv == den else [v * piv // den for v in row]
    return [(v * piv - factor * p) // den for v, p in zip(row, prow)]


@functools.lru_cache(maxsize=None)
def _solve(n: int, d: int) -> tuple:
    """(status, optimum 1 + sum_j B_j, (B_d, ..., B_n)) of the instance
    (n, d) in Fractions, solved once for both modes."""
    A = [[-v for v in row[d:]] for row in _krawtchouk_rows(n)]
    b = [math.comb(n, i) for i in range(1, n + 1)]
    status, opt, x = _simplex_max(A, b, [1] * (n - d + 1))
    if status != "optimal":
        return status, math.inf, ()
    return status, 1 + opt, tuple(x)


def delsarte_lp(n: int, d: int, mode: str = "float") -> LPSolution:
    """LP optimum for binary codes of length n, minimum distance d; float
    mode gives the exact optimum, each value correctly rounded."""
    if not (isinstance(n, int) and isinstance(d, int) and 1 <= d <= n <= MAX_N):
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
    return min(hamming_distance(u, v) for u, v in itertools.combinations(code, 2))


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
