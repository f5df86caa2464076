import itertools
import math
import random
from fractions import Fraction

import pytest

from delbound import (
    DegreeBudgetError,
    NotCertifiedError,
    SingularOperatorError,
    ValidationError,
    bound_for_distance,
    delsarte_lp,
    hamming_space,
    krawtchouk,
    min_distance,
)
from delbound import lp_oracle
from delbound.lp_oracle import (
    _simplex_max,
    even_weight_code,
    hamming_code_7_4,
    hamming_distance,
    repetition_code,
)


def test_krawtchouk_base_cases():
    assert krawtchouk(5, 0, 3) == 1
    assert krawtchouk(4, 1, 1) == 2  # n - 2j
    assert krawtchouk(6, 6, 0) == 1
    assert krawtchouk(6, 6, 1) == -1


def test_krawtchouk_orthogonality_exact():
    """sum_j C(n,j) K_i(j) K_l(j) = 2^n C(n,i) delta_il, in integers."""
    for n in (3, 7, 12, 18):
        for i in range(n + 1):
            for l in range(i, n + 1):
                acc = sum(math.comb(n, j) * krawtchouk(n, i, j) * krawtchouk(n, l, j)
                          for j in range(n + 1))
                expect = (1 << n) * math.comb(n, i) if i == l else 0
                assert acc == expect, (n, i, l)


def test_krawtchouk_reciprocity_exact():
    # C(n,j) K_i(j) = C(n,i) K_j(i)
    for n in (5, 9, 14):
        for i in range(n + 1):
            for j in range(n + 1):
                assert math.comb(n, j) * krawtchouk(n, i, j) == \
                    math.comb(n, i) * krawtchouk(n, j, i)


def test_krawtchouk_refuses_arguments_off_its_domain():
    for args in ((4, 1, 5), (4, 1, -1), (-1, 0, 0), (4, -1, 1), (4, 2.0, 1),
                 (4.0, 2, 1), (4, 2, 1.0), (True, 0, 0), (4, True, 1), (4, 1, False)):
        with pytest.raises(ValidationError):
            krawtchouk(*args)
    assert krawtchouk(0, 0, 0) == 1
    assert krawtchouk(4, 5, 1) == 0


def test_krawtchouk_table_is_the_explicit_sum():
    """Rows 0..n of the recurrence table equal the alternating sum, entry
    for entry, for every n <= 40."""
    for n in range(41):
        want = tuple(tuple(krawtchouk(n, i, j) for j in range(n + 1)) for i in range(n + 1))
        assert lp_oracle._krawtchouk_rows(n) == want, n


def test_krawtchouk_table_at_n256():
    """200 sampled entries equal the alternating sum, and sampled rows are
    orthogonal in integers: sum_j C(n,j) K_i(j) K_l(j) = 2^n C(n,i) delta_il."""
    n = 256
    rows = lp_oracle._krawtchouk_rows(n)
    assert len(rows) == n + 1 and {len(row) for row in rows} == {n + 1}
    rng = random.Random(256)
    for _ in range(200):
        i, j = rng.randint(0, n), rng.randint(0, n)
        assert rows[i][j] == krawtchouk(n, i, j), (i, j)
    weights = [math.comb(n, j) for j in range(n + 1)]
    picked = (0, 1, 2, 77, 128, 255, 256)
    for i in picked:
        for l in picked:
            acc = sum(w * a * b for w, a, b in zip(weights, rows[i], rows[l]))
            assert acc == ((1 << n) * math.comb(n, i) if i == l else 0), (i, l)


def test_krawtchouk_table_at_n1024_in_a_fresh_interpreter(fresh_python):
    """In a fresh interpreter that ends within 30 s, the three-term
    recurrence builds the n = 1024 table without numpy, and its row 1000,
    the end of a 1000-step recurrence chain, equals the alternating sum
    entry for entry."""
    code = """
import sys
from delbound.lp_oracle import _krawtchouk_rows, krawtchouk
rows = _krawtchouk_rows(1024)
assert len(rows) == 1025 and rows[1000] == tuple(krawtchouk(1024, 1000, j) for j in range(1025))
assert "numpy" not in sys.modules, "numpy loaded"
"""
    proc = fresh_python(code=code, timeout=30)
    assert proc.returncode == 0, proc.stderr


def test_lp_frozen_values():
    cases = {
        (3, 2): 4.0,
        (3, 3): 2.0,
        (5, 3): 4.0,
        (6, 3): 8.0,
        (7, 3): 16.0,
        (8, 3): 25.6,
        (8, 4): 16.0,
        (10, 4): 128 / 3,
        (12, 6): 24.0,
        (14, 7): 16.0,
    }
    for (n, d), expect in cases.items():
        sol = delsarte_lp(n, d)
        assert sol.status == "optimal"
        assert sol.value_float == pytest.approx(expect, rel=1e-9), (n, d)


def test_lp_full_distance_is_two():
    for n in (2, 5, 9, 13):
        assert delsarte_lp(n, n).value_float == pytest.approx(2.0, rel=1e-12)


def test_lp_distance_one_is_whole_space():
    for n in (2, 4, 7, 10):
        assert delsarte_lp(n, 1).value_float == pytest.approx(2.0 ** n, rel=1e-12)


def test_float_and_exact_modes_agree():
    for n in range(2, 13):
        for d in range(1, n + 1):
            f = delsarte_lp(n, d, mode="float")
            e = delsarte_lp(n, d, mode="exact")
            assert e.status == "optimal"
            assert f.value_float == pytest.approx(e.value_float, rel=1e-9), (n, d)


def test_exact_mode_returns_rationals():
    sol = delsarte_lp(8, 3, mode="exact")
    assert sol.value == Fraction(128, 5)
    blob = sol.to_json()
    assert blob["value_exact"] == "128/5"
    assert blob["schema"] == 1


def test_optimum_satisfies_constraints():
    for n, d in ((7, 3), (9, 4), (12, 5)):
        sol = delsarte_lp(n, d)
        B = dict(sol.B)
        assert all(v >= -1e-9 for v in B.values())
        assert 1 + sum(B.values()) == pytest.approx(sol.value_float, rel=1e-12)
        for i in range(1, n + 1):
            acc = sum(v * krawtchouk(n, i, j) for j, v in B.items())
            assert acc >= -math.comb(n, i) - 1e-6, (n, d, i)


def test_lp_validation():
    with pytest.raises(ValidationError):
        delsarte_lp(3, 4)
    with pytest.raises(ValidationError):
        delsarte_lp(0, 1)
    with pytest.raises(ValidationError):
        delsarte_lp(15, 3)
    with pytest.raises(ValidationError):
        delsarte_lp(6, 2.5)
    with pytest.raises(ValidationError):
        delsarte_lp(6, 3, mode="quantum")
    for n, d in ((True, True), (True, 1), (2, True)):
        with pytest.raises(ValidationError):
            delsarte_lp(n, d)


def test_code_zoo_distances():
    rep = repetition_code(6)
    assert len(rep) == 2 and min_distance(rep) == 6
    ew = even_weight_code(5)
    assert len(ew) == 16 and min_distance(ew) == 2
    ham = hamming_code_7_4()
    assert len(ham) == 16 and min_distance(ham) == 3
    assert hamming_distance((0, 1, 1), (1, 1, 0)) == 2
    assert min_distance(iter(repetition_code(3))) == 3
    for code in ([], [(0, 1, 1)]):
        with pytest.raises(ValidationError):
            min_distance(code)


def test_lp_dominates_code_zoo():
    """The LP value can never undercut an explicit code of that distance."""
    assert delsarte_lp(7, 3).value_float >= 16 - 1e-9
    assert delsarte_lp(6, 6).value_float >= 2 - 1e-9
    for n in (4, 6, 8):
        assert delsarte_lp(n, 2).value_float >= 2 ** (n - 1) - 1e-9


def test_even_weight_code_is_lp_tight_at_n3():
    """Hamming(3), d=2: the LP optimum, the lev bound elsewhere, and the
    code {000,011,101,110} all meet at 4."""
    code = even_weight_code(3)
    assert len(code) == 4
    assert min_distance(code) == 2
    assert delsarte_lp(3, 2).value_float == pytest.approx(float(len(code)))


def test_exhaustive_small_n_against_brute_force():
    """For n <= 4 the best code of distance d is findable by brute force
    over all subsets ordered greedily; LP must upper bound it."""
    for n in (3, 4):
        words = list(itertools.product((0, 1), repeat=n))
        for d in range(1, n + 1):
            best = 0
            # greedy lexicographic packing gives a valid (not optimal) code
            chosen = []
            for w in words:
                if all(hamming_distance(w, c) >= d for c in chosen):
                    chosen.append(w)
            best = len(chosen)
            assert delsarte_lp(n, d).value_float >= best - 1e-9


def _fraction_simplex_reference(A, b, c, pivots):
    """The exact simplex as a tableau of Fractions, with the pivot rule of
    `_simplex_max`: Bland's entering column, the minimum ratio, ties to
    the smaller basis index. Appends (column, pivot row) to pivots."""
    m, nv = len(A), len(c)
    ncols = nv + m + 1
    tab = []
    for i in range(m):
        row = [Fraction(v) for v in A[i]] + [Fraction(0)] * m + [Fraction(b[i])]
        row[nv + i] = Fraction(1)
        tab.append(row)
    obj = [-Fraction(v) for v in c] + [Fraction(0)] * (m + 1)
    basis = list(range(nv, nv + m))
    while True:
        col = next((j for j in range(ncols - 1) if obj[j] < 0), None)
        if col is None:
            x = [Fraction(0)] * (nv + m)
            for i, bv in enumerate(basis):
                x[bv] = tab[i][-1]
            return "optimal", obj[-1], x[:nv]
        pivot_row, best = None, None
        for i in range(m):
            if tab[i][col] > 0:
                ratio = tab[i][-1] / tab[i][col]
                if (best is None or ratio < best
                        or (ratio == best and basis[i] < basis[pivot_row])):
                    pivot_row, best = i, ratio
        if pivot_row is None:
            return "unbounded", None, None
        pivots.append((col, tuple(tab[pivot_row])))
        piv = tab[pivot_row][col]
        tab[pivot_row] = [v / piv for v in tab[pivot_row]]
        for i in range(m):
            if i != pivot_row and tab[i][col] != 0:
                factor = tab[i][col]
                tab[i] = [v - factor * p for v, p in zip(tab[i], tab[pivot_row])]
        if obj[col] != 0:
            factor = obj[col]
            obj = [v - factor * p for v, p in zip(obj, tab[pivot_row])]
        basis[pivot_row] = col


# The spy wraps the real pivot, never an earlier spy: each program patches anew.
_PIVOT = lp_oracle._pivot


def _integer_pivots(monkeypatch):
    """Record (entering label, pivot row as Fractions) of each integer pivot,
    before it runs. The condensed pivot row is expanded to the columns of
    the full tableau by variable label: the nonbasic entries where their
    labels say, D at the row's own basic variable, 0 at the other basic
    variables, and the right-hand side last."""
    calls = []

    def spy(tab, cols, basis, r, c, den):
        full = [0] * (len(cols) + len(basis)) + [tab[r][-1]]
        for label, v in zip(cols, tab[r]):
            full[label] = v
        full[basis[r]] = den
        calls.append((cols[c], tuple(Fraction(v, den) for v in full)))
        return _PIVOT(tab, cols, basis, r, c, den)

    monkeypatch.setattr(lp_oracle, "_pivot", spy)
    return calls


def _assert_same_exact_run(monkeypatch, A, b, c, label):
    """Same pivot sequence, status, optimum and x as the Fraction tableau."""
    pivots = _integer_pivots(monkeypatch)
    got = _simplex_max(A, b, c)
    want_pivots = []
    want = _fraction_simplex_reference(A, b, c, want_pivots)
    assert pivots == want_pivots, label
    assert got[0] == want[0], label
    if want[0] != "optimal":
        assert got[1:] == (None, None), label
        return want[0]
    assert type(got[1]) is Fraction and got[1] == want[1], label
    assert all(type(v) is Fraction for v in got[2]), label
    assert got[2] == want[2], label
    return want[0]


def test_integer_simplex_matches_fraction_reference(monkeypatch):
    for n in range(1, 15):
        for d in range(1, n + 1):
            A = [[-krawtchouk(n, i, j) for j in range(d, n + 1)]
                 for i in range(1, n + 1)]
            b = [math.comb(n, i) for i in range(1, n + 1)]
            c = [1] * (n - d + 1)
            _assert_same_exact_run(monkeypatch, A, b, c, (n, d))


def test_integer_simplex_matches_reference_on_random_programs(monkeypatch):
    """Small integer programs with zeros in b (degenerate pivots and ratio
    ties) and columns that may leave the program unbounded."""
    rng = random.Random(20260)
    statuses = set()
    for trial in range(300):
        m, nv = rng.randint(1, 6), rng.randint(1, 6)
        A = [[rng.randint(-4, 4) for _ in range(nv)] for _ in range(m)]
        b = [rng.choice((0, 0, 1, 2, 5)) for _ in range(m)]
        c = [rng.randint(-2, 3) for _ in range(nv)]
        statuses.add(_assert_same_exact_run(monkeypatch, A, b, c, trial))
    assert statuses == {"optimal", "unbounded"}


def test_solve_matches_fraction_reference_past_the_cap():
    """Every d at n = 16 and n = 20, above delsarte_lp's MAX_N: `_solve`
    on the recurrence table gives the status, optimum and B of the Fraction
    tableau on the explicit sums."""
    for n in (16, 20):
        for d in range(1, n + 1):
            A = [[-krawtchouk(n, i, j) for j in range(d, n + 1)]
                 for i in range(1, n + 1)]
            b = [math.comb(n, i) for i in range(1, n + 1)]
            status, opt, x = _fraction_simplex_reference(A, b, [1] * (n - d + 1), [])
            assert status == "optimal", (n, d)
            assert lp_oracle._solve(n, d) == (status, 1 + opt, tuple(x)), (n, d)


def test_exact_json_gives_the_optimum_in_rationals():
    """B_exact is a feasible point whose objective is value_exact, checked
    in Fractions with no tolerance."""
    for n in range(1, 15):
        for d in range(1, n + 1):
            blob = delsarte_lp(n, d, mode="exact").to_json()
            B = {int(j): Fraction(v) for j, v in blob["B_exact"].items()}
            assert sorted(B) == list(range(d, n + 1)), (n, d)
            assert all(v >= 0 for v in B.values()), (n, d)
            for i in range(1, n + 1):
                acc = sum(v * krawtchouk(n, i, j) for j, v in B.items())
                assert acc >= -math.comb(n, i), (n, d, i)
            assert 1 + sum(B.values()) == Fraction(blob["value_exact"]), (n, d)
    assert "B_exact" not in delsarte_lp(8, 3).to_json()


def test_exact_lp_below_every_certified_bound():
    """The exact LP optimum never exceeds a certified bound, on every
    hamming:n with n <= 14, every d and every method."""
    checks = 0
    for n in range(1, 15):
        spec = hamming_space(n)
        for d in range(1, n + 1):
            lp = delsarte_lp(n, d, mode="exact").value
            for method in ("mrrw", "lev", "spectral"):
                try:
                    res = bound_for_distance(spec, d, method=method)
                except (NotCertifiedError, DegreeBudgetError, SingularOperatorError):
                    continue
                checks += 1
                assert lp <= Fraction(res.bound) * Fraction(1 + 1e-9), (n, d, method)
    assert checks >= 250


def test_float_mode_is_the_rounded_exact_optimum():
    """Float mode reads the exact optimum: its value and every B_j are
    float() of the exact ones, under ==."""
    for n in range(1, 15):
        for d in range(1, n + 1):
            f = delsarte_lp(n, d, mode="float")
            e = delsarte_lp(n, d, mode="exact")
            assert (f.status, e.status) == ("optimal", "optimal"), (n, d)
            assert type(f.value) is float and f.value == float(e.value), (n, d)
            assert f.B == tuple((j, float(v)) for j, v in e.B), (n, d)


def test_each_instance_is_solved_once_across_modes(monkeypatch):
    calls = []
    simplex = lp_oracle._simplex_max

    def spy(A, b, c):
        calls.append(len(c))
        return simplex(A, b, c)

    monkeypatch.setattr(lp_oracle, "_simplex_max", spy)
    lp_oracle._solve.cache_clear()
    try:
        for mode in ("float", "exact", "float"):
            for n in range(1, 15):
                for d in range(1, n + 1):
                    delsarte_lp(n, d, mode=mode)
    finally:
        lp_oracle._solve.cache_clear()
    assert len(calls) == 105


def test_lp_solution_is_an_immutable_named_tuple():
    import pickle

    from delbound import LPSolution

    sol = delsarte_lp(3, 3, "exact")
    fields = (3, 3, Fraction(2), ((3, Fraction(1)),), "optimal", "exact")
    positional = LPSolution(*fields)
    assert sol == positional == fields
    assert LPSolution(n=3, d=3, value=Fraction(2), B=((3, Fraction(1)),),
                      status="optimal", mode="exact") == positional
    assert hash(sol) == hash(positional) == hash(fields)
    assert repr(sol) == ("LPSolution(n=3, d=3, value=Fraction(2, 1), "
                         "B=((3, Fraction(1, 1)),), status='optimal', mode='exact')")
    assert LPSolution._fields == ("n", "d", "value", "B", "status", "mode")
    with pytest.raises(AttributeError):
        sol.value = Fraction(3)
    with pytest.raises(AttributeError):
        sol.extra = 1
    back = pickle.loads(pickle.dumps(sol))
    assert back == sol and type(back) is LPSolution
    assert sol.value_float == 2.0 and type(sol.value_float) is float
    assert delsarte_lp(3, 3).value == 2.0
