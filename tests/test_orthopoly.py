import json
import math
from fractions import Fraction

import numpy as np
import pytest

from delbound import (
    ValidationError,
    Variant,
    eval_basis,
    hamming_space,
    jacobi_matrix,
    largest_zero,
    node_weights,
    recurrence_coeffs,
    sphere_space,
    tridiagonal_eigenvalues,
    zeros,
)
from delbound.lp_oracle import krawtchouk
from delbound.orthopoly import discrete_basis_table, eval_basis_table
from delbound.spaces import max_degree


def test_recurrence_lengths_and_mass():
    rc = recurrence_coeffs(hamming_space(4), Variant.BASE, 3)
    assert len(rc.a) == 4 and len(rc.b) == 4
    assert rc.mass == 1.0


def test_hamming_base_closed_form():
    for n in (3, 8, 17):
        rc = recurrence_coeffs(hamming_space(n), Variant.BASE, n - 1)
        for i in range(n):
            assert rc.a[i] == pytest.approx(math.sqrt((n - i) * (i + 1)) / n, rel=1e-15)
            assert rc.b[i] == 0.0


def test_hamming_adjacent_closed_forms():
    """Frozen closed forms for the adjacent systems, validated against the
    Stieltjes construction during bring-up (agreement ~1e-16)."""
    for n in (5, 8, 13):
        spec = hamming_space(n)
        rcm = recurrence_coeffs(spec, Variant.MINUS, n - 2)
        rcp = recurrence_coeffs(spec, Variant.PLUSMINUS, n - 3)
        for i in range(n - 2):
            assert rcm.a[i] == pytest.approx(math.sqrt((n - 1 - i) * (i + 1)) / n, abs=1e-13)
            assert rcm.b[i] == pytest.approx(-1 / n, abs=1e-13)
        for i in range(n - 3):
            assert rcp.a[i] == pytest.approx(math.sqrt((n - 2 - i) * (i + 1)) / n, abs=1e-13)
            assert rcp.b[i] == pytest.approx(0.0, abs=1e-13)
        assert rcm.mass == pytest.approx(1.0, rel=1e-14)
        assert rcp.mass == pytest.approx((n - 1) / n, rel=1e-14)


def test_sphere_recurrence_known_families():
    # d=4 is Chebyshev-U: all a_i = 1/2; d=3 is Legendre
    rc4 = recurrence_coeffs(sphere_space(4), Variant.BASE, 9)
    assert all(a == pytest.approx(0.5, rel=1e-15) for a in rc4.a)
    assert all(b == 0.0 for b in rc4.b)
    rc3 = recurrence_coeffs(sphere_space(3), Variant.BASE, 9)
    for i in range(10):
        assert rc3.a[i] == pytest.approx((i + 1) / math.sqrt((2 * i + 1) * (2 * i + 3)), rel=1e-14)
    # the first coefficient always satisfies a_0^2 = F(x^2) = 1/d
    for d in (3, 4, 5, 9):
        rc = recurrence_coeffs(sphere_space(d), Variant.BASE, 1)
        assert rc.a[0] ** 2 == pytest.approx(1 / d, rel=1e-14)


def test_sphere_basis_matches_legendre():
    """Orthonormal system for sphere:3 is sqrt(2i+1) P_i (Legendre)."""
    xs = np.linspace(-1, 1, 41)
    spec = sphere_space(3)
    for i in range(8):
        coeffs = np.zeros(i + 1)
        coeffs[i] = 1.0
        ref = math.sqrt(2 * i + 1) * np.polynomial.legendre.legval(xs, coeffs)
        got = eval_basis(spec, Variant.BASE, i, xs)
        assert np.max(np.abs(got - ref)) < 1e-12


def test_sphere_plusminus_is_shifted_dimension():
    """(1-x^2) dmu_d is proportional to dmu_{d+2}, so the plusminus system
    is the base system of sphere:(d+2) scaled by sqrt(d/(d-1))."""
    xs = np.linspace(-0.95, 0.95, 17)
    for d in (3, 4, 6):
        lo = sphere_space(d)
        hi = sphere_space(d + 2)
        scale = math.sqrt(d / (d - 1))
        for i in range(6):
            got = eval_basis(lo, Variant.PLUSMINUS, i, xs)
            ref = scale * eval_basis(hi, Variant.BASE, i, xs)
            assert np.max(np.abs(got - ref)) < 1e-10


def test_basis_values_against_integer_krawtchouk():
    """p_i(x_j) = K_i(j) / sqrt(C(n,i)): forward recurrence vs the exact
    combinatorial sum, for every node of every n up to 24."""
    for n in (4, 9, 16, 24):
        spec = hamming_space(n)
        table = discrete_basis_table(spec, Variant.BASE)
        for i in range(n + 1):
            norm = math.sqrt(math.comb(n, i))
            for j in range(n + 1):
                ref = krawtchouk(n, i, j) / norm
                # forward recurrence loses ~n ulps relative by degree n
                assert table[i, j] == pytest.approx(ref, rel=2e-9, abs=2e-9), (n, i, j)


def test_value_at_one_is_sqrt_binomial():
    spec = hamming_space(12)
    for i in range(13):
        assert eval_basis(spec, Variant.BASE, i, 1.0) == pytest.approx(
            math.sqrt(math.comb(12, i)), rel=1e-12
        )


def test_orthonormality_gram_all_variants():
    for n in (6, 14):
        spec = hamming_space(n)
        for variant in Variant:
            x, w = node_weights(spec, variant)
            cap = {Variant.BASE: n, Variant.MINUS: n - 1, Variant.PLUSMINUS: n - 2}[variant]
            table = eval_basis_table(spec, variant, cap, np.array(x))
            gram = (table * w) @ table.T
            assert np.max(np.abs(gram - np.eye(cap + 1))) < 1e-11


def test_recurrence_residual_on_nodes():
    """x p_i(x) - a_i p_{i+1}(x) - b_i p_i(x) - a_{i-1} p_{i-1}(x) = 0."""
    spec = hamming_space(10)
    for variant in Variant:
        cap = {Variant.BASE: 10, Variant.MINUS: 9, Variant.PLUSMINUS: 8}[variant]
        x, _ = node_weights(spec, variant)
        x = np.array(x)
        table = eval_basis_table(spec, variant, cap, x)
        rc = recurrence_coeffs(spec, variant, cap)
        for i in range(cap):
            lhs = x * table[i]
            rhs = rc.a[i] * table[i + 1] + rc.b[i] * table[i]
            if i > 0:
                rhs = rhs + rc.a[i - 1] * table[i - 1]
            assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_eval_extrapolation_warns():
    spec = hamming_space(5)
    with pytest.warns(RuntimeWarning):
        eval_basis(spec, Variant.BASE, 2, 1.5)


def test_eval_refuses_a_degree_past_max_degree_without_warning():
    """On hamming:6 every system evaluates through its max_degree with
    finite values; one degree more would divide by the trailing a = 0, so
    it is refused before any step runs, at a node and between nodes."""
    import warnings

    spec = hamming_space(6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for basis in Variant:
            cap = max_degree(spec, basis)
            assert np.all(np.isfinite(eval_basis_table(spec, basis, cap, [0.1, 1.0 / 3.0])))
            for x in (0.1, 1.0 / 3.0):
                with pytest.raises(ValidationError, match="max degree %d" % cap):
                    eval_basis_table(spec, basis, cap + 1, x)


def _numpy_rows(spec, basis, deg, x):
    """The numpy row loop of eval_basis_table, kept as the reference for
    its Python-float paths."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    rc = recurrence_coeffs(spec, basis, max(deg - 1, 0))
    a, b = rc.a, rc.b
    out = np.empty((deg + 1, x.size))
    out[0] = 1.0 / math.sqrt(rc.mass)
    if deg >= 1:
        out[1] = (x - b[0]) * out[0] / a[0]
    for i in range(1, deg):
        out[i + 1] = ((x - b[i]) * out[i] - a[i - 1] * out[i - 1]) / a[i]
    return out


def _evaluation_space(label):
    """hamming:n, sphere:d, or for "custom" a custom space with b_i != 0:
    the first 61 coefficient pairs of sphere:7's minus system."""
    from delbound import custom_space

    kind, _, size = label.partition(":")
    if kind == "hamming":
        return hamming_space(int(size))
    if kind == "sphere":
        return sphere_space(int(size))
    minus = recurrence_coeffs(sphere_space(7), Variant.MINUS, 60)
    return custom_space(minus.a, minus.b)


def _point_sets(spec):
    """Point sets of 1, 2, _FEW_POINTS and _FEW_POINTS + 1 points, with
    x = 1, x = -1 and nodes (of the space, or of a Gauss rule) among them;
    single points are passed as Python floats and point sets as lists of
    them, which eval_basis_table reads as they are, and one point and two
    are passed once more as a numpy scalar and array, which it converts."""
    from delbound.orthopoly import _FEW_POINTS
    from delbound.spaces import quadrature

    nodes = list(spec.nodes[1:-1]) if spec.discrete else quadrature(spec, Variant.BASE, 9)[0].tolist()
    rng = np.random.default_rng(25)
    pool = [1.0, -1.0] + nodes[:10]
    pool += rng.uniform(-1.0, 1.0, _FEW_POINTS + 1 - len(pool)).tolist()
    return [pool[0], pool[1], pool[2], pool[-1], pool[:2], pool[:_FEW_POINTS],
            pool[: _FEW_POINTS + 1], np.float64(pool[2]), np.array(pool[:2])]


@pytest.mark.parametrize("label", ["hamming:16", "hamming:64", "sphere:3", "sphere:24",
                                   "sphere:200", "custom"])
def test_few_point_paths_match_the_numpy_rows(label):
    """On both sides of _FEW_POINTS (1, 2, _FEW_POINTS and _FEW_POINTS + 1
    points) eval_basis_table equals the numpy row loop bit for bit, as a
    C-contiguous (deg + 1, len(x)) array, for every system at degrees 0..60
    (or its max_degree)."""
    spec = _evaluation_space(label)
    sets = _point_sets(spec)
    for basis in Variant:
        cap = max_degree(spec, basis)
        for deg in range(min(60, 60 if cap is None else cap) + 1):
            for x in sets:
                got = eval_basis_table(spec, basis, deg, x)
                ref = _numpy_rows(spec, basis, deg, x)
                assert got.shape == ref.shape and got.flags.c_contiguous
                assert np.array_equal(got, ref), (basis, deg, np.size(x))


@pytest.mark.parametrize("count", ["one", "two", "few", "few + 1"])
def test_each_evaluation_path_warns_once_and_refuses_past_max_degree(count):
    """Every path warns once when a point lies outside [-1, 1], and refuses
    deg = max_degree + 1 before any step runs, with no warning."""
    import warnings

    from delbound.orthopoly import _FEW_POINTS

    size = {"one": 1, "two": 2, "few": _FEW_POINTS, "few + 1": _FEW_POINTS + 1}[count]
    spec = hamming_space(6)
    outside = [0.5] * (size - 1) + [1.5]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        eval_basis_table(spec, Variant.BASE, 4, outside)
    assert [str(w.message) for w in caught] == [
        "evaluating orthonormal system outside [-1, 1] (extrapolation)"]
    assert caught[0].category is RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for basis in Variant:
            cap = max_degree(spec, basis)
            with pytest.raises(ValidationError, match="max degree %d" % cap):
                eval_basis_table(spec, basis, cap + 1, [0.1] * size)


def test_tridiagonal_eigenvalues_against_dense():
    rng = np.random.default_rng(2024)
    for _ in range(40):
        n = int(rng.integers(1, 50))
        d = rng.normal(size=n)
        e = rng.normal(size=n - 1)
        got = tridiagonal_eigenvalues(d, e)
        ref = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
        assert np.all(np.diff(got) >= -1e-12)
        assert np.max(np.abs(got - ref)) < 5e-13


def test_tridiagonal_degenerate_and_validation():
    assert tridiagonal_eigenvalues(np.array([3.0]), np.array([])) == pytest.approx([3.0])
    assert tridiagonal_eigenvalues(np.array([]), np.array([])).size == 0
    with pytest.raises(ValidationError):
        tridiagonal_eigenvalues(np.array([1.0, 2.0]), np.array([]))
    # repeated eigenvalues: block diag of two identical 2x2s
    vals = tridiagonal_eigenvalues(np.array([0.0, 0.0, 0.0, 0.0]),
                                   np.array([1.0, 0.0, 1.0]))
    assert vals == pytest.approx([-1.0, -1.0, 1.0, 1.0], abs=1e-12)


def test_exact_dyadic_eigenvalues():
    # U_8's Jacobi matrix has eigenvalues cos(j pi / 9); three of them
    # (0.5, -0.5 and the pair around them) stress midpoint collisions
    vals = tridiagonal_eigenvalues(np.zeros(8), np.full(7, 0.5))
    ref = np.cos(np.arange(8, 0, -1) * np.pi / 9)
    assert np.max(np.abs(vals - ref)) < 1e-12


def test_zeros_interlace():
    for spec, variant in [(hamming_space(12), Variant.BASE),
                          (hamming_space(12), Variant.MINUS),
                          (sphere_space(5), Variant.BASE)]:
        for k in range(1, 8):
            zk = zeros(spec, variant, k)
            zk1 = zeros(spec, variant, k + 1)
            assert len(zk) == k
            assert np.all(zk > -1.0) and np.all(zk < 1.0)
            for i in range(k):
                assert zk1[i] < zk[i] < zk1[i + 1], (variant, k, i)


def test_zeros_conventions():
    spec = hamming_space(6)
    assert zeros(spec, Variant.BASE, 0).size == 0
    assert largest_zero(spec, Variant.BASE, 0) == -1.0
    # p_1 has b_0 = 0 so its zero is exactly 0
    assert largest_zero(spec, Variant.BASE, 1) == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(ValidationError):
        zeros(spec, Variant.BASE, 7)


def test_recurrence_coeffs_are_python_floats():
    """Every system hands out Python floats, not numpy scalars, which the
    pure-Python pivot loops would run on several times slower."""
    for spec in (hamming_space(16), sphere_space(24)):
        for basis in Variant:
            rc = recurrence_coeffs(spec, basis, 10)
            assert {type(v) for v in rc.a + rc.b} == {float}, (spec.label(), basis)


def _exact_pivots_positive(diag, off, t) -> bool:
    """Whether every LDL^T pivot of t - J is positive, in Fractions."""
    t = Fraction(t)
    r = t - Fraction(diag[0])
    for d, e in zip(diag[1:], off):
        if r <= 0:
            return False
        r = t - Fraction(d) - Fraction(e) ** 2 / r
    return r > 0


@pytest.mark.parametrize("spec", [hamming_space(64), hamming_space(256), sphere_space(24)],
                         ids=lambda spec: spec.label())
def test_largest_zero_against_exact_pivots(spec):
    """In exact arithmetic, independent of LAPACK: two ulps above x_k every
    pivot of t - J_{k-1} is positive and two ulps below one is not, at
    sampled degrees of every basis; the top of zeros() agrees to 1e-13."""
    for basis in Variant:
        cap = max_degree(spec, basis) or 130
        for k in sorted(set(range(1, cap + 1, max(1, cap // 10))) | {cap}):
            x = largest_zero(spec, basis, k)
            rc = recurrence_coeffs(spec, basis, k - 1)
            above, below = x, x
            for _ in range(2):
                above, below = math.nextafter(above, 2.0), math.nextafter(below, -2.0)
            assert _exact_pivots_positive(rc.b[:k], rc.a[: k - 1], above), (basis, k)
            assert not _exact_pivots_positive(rc.b[:k], rc.a[: k - 1], below), (basis, k)
            assert abs(zeros(spec, basis, k)[-1] - x) < 1e-13, (basis, k)


def test_jacobi_matrix_spectrum_is_zero_set():
    spec = hamming_space(9)
    J = jacobi_matrix(spec, Variant.BASE, 3)
    assert J.matrix().shape == (4, 4)
    vals = np.linalg.eigvalsh(J.matrix())
    assert vals == pytest.approx(zeros(spec, Variant.BASE, 4), abs=1e-12)
    with pytest.raises(ValidationError):
        jacobi_matrix(spec, Variant.BASE, 9)


def test_discrete_table_cached_and_frozen():
    spec = hamming_space(7)
    t1 = discrete_basis_table(spec, Variant.BASE)
    t2 = discrete_basis_table(spec, Variant.BASE)
    assert t1 is t2
    assert not t1.flags.writeable


@pytest.mark.parametrize("spec", [hamming_space(5), hamming_space(16), hamming_space(64),
                                  sphere_space(3), sphere_space(24)],
                         ids=lambda spec: spec.label())
def test_recurrence_is_a_prefix_of_the_top_tuple(spec):
    """The coefficients to index m are the first m + 1 of those to the top
    index, bit for bit, on every system and whatever order the indices are
    asked for in."""
    from delbound.orthopoly import _coeffs_cached

    _coeffs_cached.cache_clear()
    order = np.random.default_rng(0).permutation
    for basis in Variant:
        top = max_degree(spec, basis) or 120
        for m in order(top + 1):
            rc = recurrence_coeffs(spec, basis, int(m))
            full = recurrence_coeffs(spec, basis, top)
            assert np.array(rc.a).tobytes() == np.array(full.a[: m + 1]).tobytes(), (basis, m)
            assert np.array(rc.b).tobytes() == np.array(full.b[: m + 1]).tobytes(), (basis, m)
            assert rc.mass == full.mass


def test_sphere_recurrence_does_not_depend_on_the_request_order(fresh_python):
    """In a fresh interpreter, every s-independent table of sphere:3,
    sphere:24 and sphere:400 read at each degree m of 0..300: the
    coefficients to index m, the window count at the double above the
    largest zero x_m, p_0..p_m at 1 and -1 on every system, and the
    derivative block and Jacobi matrix of the audit to degree m. Read at
    descending m, then from cleared caches at ascending m, and then each
    from cleared caches alone, they agree bit for bit: each is a leading
    slice of a run whose entries depend on their own index alone, at
    whatever depth it was read."""
    code = """
import math
from array import array
from delbound import Variant, orthopoly, recurrence_coeffs, sphere_space
from delbound import feasibility
from delbound.orthopoly import _zeros_below, basis_at_end

CACHES = (orthopoly._system_run, orthopoly._coeffs_cached, orthopoly._end_run,
          orthopoly.basis_at_end, feasibility._derivative_run, feasibility._derivative_table)

def clear():
    for cache in CACHES:
        cache.cache_clear()

def read(spec, basis, m, t):
    rc = recurrence_coeffs(spec, basis, m)
    out = [array("d", rc.a).tobytes(), array("d", rc.b).tobytes(), rc.mass.hex(),
           _zeros_below(spec, basis, t, 301),
           *(basis_at_end(spec, basis, m, end).tobytes() for end in (1.0, -1.0))]
    if basis is Variant.BASE:
        out += [x.tobytes() + repr(x.shape).encode()
                for x in feasibility._derivative_table(spec, m)]
    return out

for d in (3, 24, 400):
    spec = sphere_space(d)
    for basis in Variant:
        ts = [math.nextafter(orthopoly.largest_zero(spec, basis, m), 2.0) for m in range(301)]
        clear()
        down = [read(spec, basis, m, ts[m]) for m in range(300, -1, -1)][::-1]
        clear()
        up = [read(spec, basis, m, ts[m]) for m in range(301)]
        fresh = []
        for m in range(301):
            clear()
            fresh.append(read(spec, basis, m, ts[m]))
        assert down == up == fresh, (d, basis)
        assert [row[3] for row in up] == list(range(1, 302)), (d, basis)
print("ok")
"""
    proc = fresh_python(code=code, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ok"]


def test_sphere_sweeps_do_not_depend_on_their_direction(fresh_python):
    """An s-grid on sphere:24 and sphere:100, swept ascending in one fresh
    interpreter and descending in another, extends the per-space runs
    (recurrence coefficients and derivative rows) in opposite orders, and
    gives every op the same bound, degree, certificate id,
    audit maximum, argmax and audit size, or the same refusal."""
    code = """
import json, sys
from delbound import NotCertifiedError, bound_for_s, sphere_space

grid = [(i - 10) / 20 for i in range(21)]
out = {}
for s in grid if sys.argv[1] == "up" else grid[::-1]:
    for d in (24, 100):
        for method in ("mrrw", "lev", "spectral"):
            try:
                r = bound_for_s(sphere_space(d), s, method)
            except NotCertifiedError as exc:
                out["%d/%r/%s" % (d, s, method)] = [type(exc).__name__, str(exc)]
                continue
            c = r.certificate
            out["%d/%r/%s" % (d, s, method)] = [
                r.bound.hex(), r.degree, c.certificate_id, c.max_on_audit.hex(),
                c.argmax.hex(), c.audit_size]
print(json.dumps(out, sort_keys=True))
"""
    runs = [fresh_python(way, code=code, timeout=120) for way in ("up", "down")]
    assert [proc.returncode for proc in runs] == [0, 0], [proc.stderr for proc in runs]
    up, down = (json.loads(proc.stdout) for proc in runs)
    assert len(up) == 126 and up == down
    assert sum(len(v) == 6 for v in up.values()) > 100


def test_a_cold_sphere_bound_reads_its_runs_only_as_deep_as_its_window(fresh_python):
    """In a fresh interpreter, one cold mrrw, lev and spectral bound each on
    sphere:24 at s = 0.3, whose windows lie below kernel degree 6, read
    every coefficient, window-step, p(+-1) and derivative run of the three
    systems at depth 32 at most, so no run past index 32 (the window
    passes once read all three to 128), and build p(1), p(-1) and the
    derivative block once each for the space, though the three bounds
    read them at several degrees: each end one run of eval_basis_table
    there, and the block one JacobiOperator.matrix of the base system."""
    code = """
import sys
from delbound import JacobiOperator, Variant, bound_for_s, orthopoly, sphere_space

original, matrix, depth = orthopoly.eval_basis_table, JacobiOperator.matrix, orthopoly._run_depth
ends, blocks, depths = [], [], []

def counted(spec, basis, deg, x):
    if type(x) is float and abs(x) == 1.0:
        ends.append((basis.value, x))
    return original(spec, basis, deg, x)

def counted_matrix(self):
    blocks.append(self.basis)
    return matrix(self)

def counted_depth(spec, basis, need):
    depths.append(depth(spec, basis, need))
    return depths[-1]

for name, module in list(sys.modules.items()):
    if name.startswith("delbound"):
        for fn, wrapper in ((original, counted), (depth, counted_depth)):
            if getattr(module, fn.__name__, None) is fn:
                setattr(module, fn.__name__, wrapper)
JacobiOperator.matrix = counted_matrix
spec = sphere_space(24)
degrees = {bound_for_s(spec, 0.3, method).degree for method in ("mrrw", "lev", "spectral")}
assert depths and max(depths) <= 32, sorted(set(depths))
assert ends.count(("base", 1.0)) == 1 and len(ends) == len(set(ends)), ends
assert blocks.count(Variant.BASE) == 1, blocks
print(len(degrees))
"""
    proc = fresh_python(code=code, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) >= 2


def test_a_measure_of_another_kind_is_refused_by_name():
    """Only Hamming, sphere and custom specs have recurrences. A MeasureSpec
    of kind "points" built by hand, with or without coefficients, is
    refused by its kind on every system, by max_degree and by every
    request that reads a coefficient, and has no nodes."""
    from delbound import MeasureSpec

    for ab in (((0.5, 0.4), (0.0, 0.1)), None):
        spec = MeasureSpec(kind="points", params=(), ab=ab)
        assert spec.nodes is None and not spec.discrete
        for basis in Variant:
            for request in (lambda: max_degree(spec, basis),
                            lambda: recurrence_coeffs(spec, basis, 0),
                            lambda: eval_basis_table(spec, basis, 1, 0.5),
                            lambda: largest_zero(spec, basis, 1)):
                with pytest.raises(ValidationError,
                                   match="kind 'points' is not hamming, sphere or custom"):
                    request()


def test_custom_adjacent_measures_are_refused_where_they_lose_positivity():
    """custom_space runs both Christoffel steps, and refuses coefficients
    where a pivot of t - J is zero or not of t's sign, as the adjacent
    measure is then not positive, naming the system and the pivot. With
    every b_i = 2, r_0 = 1 - b_0 < 0 at once on the minus step. With every
    a_i = 0.9, J reaches 1.62 > 1 and r_2 < 0 at t = 1. With every b_i =
    -0.9 and a_i = 0.3, J lies below 1 but reaches -1.5: the minus step
    passes, and the plusminus step, at t = -1 on its run, fails at r_1.
    Built from sphere:24's first 40 base pairs, the space is accepted, and
    its adjacent systems are served to their top index."""
    from delbound import custom_space

    for a, b, lost in (([0.5] * 6, [2.0] * 6, "minus measure lost positivity at pivot 0 of 1"),
                       ([0.9] * 6, [0.0] * 6, "minus measure lost positivity at pivot 2 of 1"),
                       ([0.3] * 6, [-0.9] * 6,
                        "plusminus measure lost positivity at pivot 1 of -1")):
        with pytest.raises(ValidationError, match="^custom/%s - J$" % lost):
            custom_space(a, b)
    base = recurrence_coeffs(sphere_space(24), Variant.BASE, 39)
    spec = custom_space(base.a, base.b)
    for basis in (Variant.MINUS, Variant.PLUSMINUS):
        assert len(recurrence_coeffs(spec, basis, 38).a) == 39


def _exact_monic_stieltjes(nodes, weights):
    """b_i and beta_i = <pi_i, pi_i> / <pi_{i-1}, pi_{i-1}> of the monic
    orthogonal polynomials of sum w_j delta(x_j), in Fractions, through
    the index where pi_i vanishes on every node."""
    prev = [Fraction(0)] * len(nodes)
    cur = [Fraction(1)] * len(nodes)
    norm_prev, beta = None, Fraction(0)
    bs, betas = [], []
    while True:
        norm = sum(w * p * p for w, p in zip(weights, cur))
        if norm == 0:
            return bs, betas
        if norm_prev is not None:
            beta = norm / norm_prev
            betas.append(beta)
        b = sum(w * x * p * p for w, x, p in zip(weights, nodes, cur)) / norm
        bs.append(b)
        prev, cur = cur, [(x - b) * p - beta * q for x, p, q in zip(nodes, cur, prev)]
        norm_prev = norm


@pytest.mark.parametrize("n", [64, 128])
def test_hamming_adjacent_against_exact_stieltjes(n):
    """The minus and plusminus systems of hamming:n against an exact
    Stieltjes run on their integer weights C(n-1, j-1) and C(n-2, j-1), up
    to the top index N. The run takes the integer nodes n x_j = n - 2j, so
    its beta_i and b_i are n^2 a_{i-1}^2 and n b_i; they agree to 1e-14,
    and the top a_N = 0 and the mass exactly."""
    spec = hamming_space(n)
    for basis, shift in ((Variant.MINUS, 1), (Variant.PLUSMINUS, 2)):
        top = n - shift
        nodes = [n - 2 * j for j in range(1, top + 2)]
        weights = [math.comb(top, j - 1) for j in range(1, top + 2)]
        bs, betas = _exact_monic_stieltjes(nodes, weights)
        assert len(bs) == top + 1 and len(betas) == top
        rc = recurrence_coeffs(spec, basis, top)
        for i in range(top):
            beta = float(betas[i] / n ** 2)
            assert abs(rc.a[i] ** 2 - beta) <= 1e-14 * beta, (basis, i)
        for i in range(top + 1):
            assert abs(rc.b[i] - float(bs[i] / n)) <= 1e-14, (basis, i)
        assert rc.a[top] == 0.0
        mass = sum(Fraction(math.comb(n, j), 2 ** n) * (1 - x) * (1 + x if shift == 2 else 1)
                   for j, x in enumerate(Fraction(n - 2 * j, n) for j in range(n + 1)))
        assert rc.mass == float(mass)


def _gauss_stieltjes(x, w, m):
    """Orthonormal a_0..a_m, b_0..b_m and the mass of sum w_j delta(x_j)."""
    mass = float(np.sum(w))
    prev, cur = np.zeros_like(x), np.full_like(x, 1.0 / math.sqrt(mass))
    a, b = [], []
    for _ in range(m + 1):
        b.append(float(np.dot(w, x * cur * cur)))
        resid = (x - b[-1]) * cur - (a[-1] if a else 0.0) * prev
        a.append(math.sqrt(float(np.dot(w, resid * resid))))
        prev, cur = cur, resid / a[-1]
    return np.array(a), np.array(b), mass


@pytest.mark.parametrize("d", [3, 4, 24, 200])
def test_sphere_adjacent_against_gauss_stieltjes(d):
    """The Jacobi closed forms of the minus and plusminus systems of
    sphere:d against a Stieltjes run on a 200-point Gauss rule of the base
    measure, which integrates every inner product through index 120
    exactly: a_i, b_i and the mass to 1e-13."""
    from delbound.spaces import quadrature, variant_multiplier

    spec = sphere_space(d)
    x, w = quadrature(spec, Variant.BASE, 200)
    for basis in (Variant.MINUS, Variant.PLUSMINUS):
        a, b, mass = _gauss_stieltjes(x, w * variant_multiplier(basis, x), 120)
        rc = recurrence_coeffs(spec, basis, 120)
        assert np.max(np.abs(np.array(rc.a) - a) / a) < 1e-13, basis
        assert np.max(np.abs(np.array(rc.b) - b)) < 1e-13, basis
        assert abs(rc.mass - mass) < 1e-13, basis


@pytest.mark.parametrize("d", [3, 8, 24, 200])
def test_custom_adjacent_systems_match_the_sphere(d):
    """A custom space given sphere:d's first 60 base pairs derives its minus
    and plusminus systems by one Christoffel step each; to their top index
    58 they agree with sphere:d's closed forms to 2e-15 (measured: 3.2e-16
    on a, 2e-16 on b, 1.1e-16 on the mass)."""
    from delbound import custom_space

    sphere = sphere_space(d)
    base = recurrence_coeffs(sphere, Variant.BASE, 59)
    spec = custom_space(base.a, base.b)
    for basis in (Variant.MINUS, Variant.PLUSMINUS):
        got = recurrence_coeffs(spec, basis, 58)
        ref = recurrence_coeffs(sphere, basis, 58)
        assert np.max(np.abs(np.array(got.a) - ref.a) / ref.a) < 2e-15, basis
        assert np.max(np.abs(np.array(got.b) - ref.b)) < 2e-15, basis
        assert abs(got.mass - ref.mass) < 2e-15, basis


def test_custom_adjacent_systems_match_hamming():
    """A custom space given hamming:1024's first 64 base pairs: the
    Christoffel steps give its minus and plusminus systems to index 62
    within 2e-15 of the Krawtchouk closed forms (measured: 2.4e-16). Far
    from the top index n, x = 1 is far from every zero the pairs fix, and
    the pivots at t = 1 stay large."""
    from delbound import custom_space

    hamming = hamming_space(1024)
    base = recurrence_coeffs(hamming, Variant.BASE, 63)
    spec = custom_space(base.a, base.b)
    for basis in (Variant.MINUS, Variant.PLUSMINUS):
        got = recurrence_coeffs(spec, basis, 62)
        ref = recurrence_coeffs(hamming, basis, 62)
        assert np.max(np.abs(np.array(got.a) - ref.a) / ref.a) < 2e-15, basis
        assert np.max(np.abs(np.array(got.b) - ref.b)) < 2e-15, basis
        assert abs(got.mass - ref.mass) < 2e-15, basis


@pytest.mark.parametrize("seed", [0, 15])
def test_custom_adjacent_systems_match_a_stieltjes_run(seed):
    """A random custom space of 60 pairs (a_i in [0.3, 0.5], b_i in
    [-0.05, 0.05]): its minus and plusminus systems to index 20 agree to
    1e-13 with a Stieltjes run on its 60-point base Gauss rule, which
    integrates every inner product through index 56 exactly. The rule is
    the test's own, by Golub-Welsch (nodes and squared first entries of
    the eigenvectors of J_59): the float Stieltjes run, not the step, is
    the limit here, and on rougher spaces its error at index 20 reaches
    1e-10 (measured over 20 seeds, a_i in [0.1, 0.4]), where a 60-digit
    reference puts the step within 3e-16."""
    from delbound import custom_space
    from delbound.spaces import variant_multiplier

    rng = np.random.default_rng(seed)
    spec = custom_space(rng.uniform(0.3, 0.5, 60).tolist(), rng.uniform(-0.05, 0.05, 60).tolist())
    x, vectors = np.linalg.eigh(jacobi_matrix(spec, Variant.BASE, 59).matrix())
    w = vectors[0] ** 2
    for basis in (Variant.MINUS, Variant.PLUSMINUS):
        a, b, mass = _gauss_stieltjes(x, w * variant_multiplier(basis, x), 20)
        rc = recurrence_coeffs(spec, basis, 20)
        assert np.max(np.abs(np.array(rc.a) - a) / a) < 1e-13, basis
        assert np.max(np.abs(np.array(rc.b) - b)) < 1e-13, basis
        assert abs(rc.mass - mass) < 1e-13, basis


@pytest.mark.parametrize("d", [3, 8, 200])
def test_custom_adjacent_systems_reach_their_max_degree(d):
    """M pairs fix the moments mu_0..mu_2M, which fix a custom space's minus
    and plusminus systems to degree M - 1: max_degree of both is M - 1,
    and their top coefficient index M - 2, as on the base system, whose
    top index is M - 1. With M = 12 every index from 0 to there is served
    and agrees with sphere:d's closed forms to 1e-15, the top one included
    (measured: 2.3e-16); one index more is refused as that index."""
    from delbound import custom_space

    sphere = sphere_space(d)
    base = recurrence_coeffs(sphere, Variant.BASE, 11)
    spec = custom_space(base.a, base.b)
    for basis in (Variant.MINUS, Variant.PLUSMINUS):
        assert max_degree(spec, basis) == 11
        for m in range(11):
            got = recurrence_coeffs(spec, basis, m)
            ref = recurrence_coeffs(sphere, basis, m)
            assert np.max(np.abs(np.array(got.a) - ref.a) / ref.a) < 1e-15, (basis, m)
            assert np.max(np.abs(np.array(got.b) - ref.b)) < 1e-15, (basis, m)
            assert abs(got.mass - ref.mass) < 1e-15, (basis, m)
        with pytest.raises(ValidationError, match="index 11 but custom/%s supports at most 10"
                           % basis.value):
            recurrence_coeffs(spec, basis, 11)
    with pytest.raises(ValidationError, match="index 12 but custom/base supports at most 11"):
        recurrence_coeffs(spec, Variant.BASE, 12)
    flat = custom_space([0.5] * 10, [0.0] * 10)
    for basis in (Variant.MINUS, Variant.PLUSMINUS):
        for m in range(max_degree(flat, basis)):
            assert len(recurrence_coeffs(flat, basis, m).a) == m + 1


def test_no_hamming_or_sphere_coefficient_comes_from_the_christoffel_step(monkeypatch):
    """With the Christoffel step disabled and the coefficient cache cold,
    every system of hamming:256, sphere:24 and sphere:100 is served to a
    high index, and mrrw, lev and spectral bounds on them still run: every
    coefficient they read is a closed form. A custom space's adjacent
    systems, which only the step builds, are then refused."""
    from delbound import NotCertifiedError, bound_for_distance, bound_for_s, custom_space
    from delbound import orthopoly

    def refuse(*args):
        raise AssertionError("Christoffel step called")

    monkeypatch.setattr(orthopoly, "_christoffel_step", refuse)
    orthopoly._system_run.cache_clear()
    orthopoly._coeffs_cached.cache_clear()
    for spec in (hamming_space(256), sphere_space(24), sphere_space(100)):
        for basis in Variant:
            recurrence_coeffs(spec, basis, max_degree(spec, basis) or 200)
    for method in ("mrrw", "lev", "spectral"):
        for bound in (lambda: bound_for_distance(hamming_space(256), 77, method),
                      lambda: bound_for_s(sphere_space(24), 0.3, method),
                      lambda: bound_for_s(sphere_space(100), 0.2, method)):
            try:
                bound()
            except NotCertifiedError:
                pass
    with pytest.raises(AssertionError, match="Christoffel step called"):
        recurrence_coeffs(custom_space([0.5] * 4, [0.0] * 4), Variant.MINUS, 0)


def test_base_gauss_table_is_a_slice_of_the_rule():
    """gauss_basis_table is a read-only slice of the table the m-point
    rule's weights were read from, on sphere:4..200 through m = 61, and
    equals a fresh recurrence run at the rule's nodes bit for bit."""
    from delbound.orthopoly import gauss_basis_table
    from delbound.spaces import _gauss_rule, quadrature

    for dim in range(4, 201):
        spec = sphere_space(dim)
        for m in (1, 2, 8, 61):
            nodes, weights, rule = _gauss_rule(spec, Variant.BASE, m)
            x, w = quadrature(spec, Variant.BASE, m)
            assert x is nodes and w is weights
            assert not rule.flags.writeable
            for deg in {0, m // 2, m - 1}:
                table = gauss_basis_table(spec, deg, m)
                assert np.shares_memory(table, rule) and not table.flags.writeable
                fresh = eval_basis_table(spec, Variant.BASE, deg, nodes)
                assert np.array_equal(table, fresh), (dim, m, deg)


def test_basis_at_one_is_the_node_column_or_the_recurrence_at_one():
    """The one table of p_0(x)..p_deg(x) at each end x = 1 and x = -1: on a
    Hamming space the first or last column of the node table, on a sphere
    the recurrence run at x, bit for bit either way."""
    from delbound.orthopoly import basis_at_end

    for n in (16, 64, 384):
        spec = hamming_space(n)
        table = discrete_basis_table(spec, Variant.BASE)
        for end, column in ((1.0, table[:, 0]), (-1.0, table[:, -1])):
            for deg in range(n + 1):
                got = basis_at_end(spec, Variant.BASE, deg, end)
                assert got.tolist() == column[: deg + 1].tolist()
    for d in (3, 24, 200):
        spec = sphere_space(d)
        for end in (1.0, -1.0):
            for deg in range(61):
                ref = eval_basis_table(spec, Variant.BASE, deg, end)[:, 0]
                got = basis_at_end(spec, Variant.BASE, deg, end)
                assert got.tolist() == ref.tolist(), (d, end, deg)
                assert not got.flags.writeable


def test_largest_zero_search_ends_where_a_square_underflows():
    """a_0^2 underflows to 0 in the pivots of this operator as it stands,
    which would decouple it: the last pivot's root would be b_0, 6.6e-255,
    not the top zero 6.7e-208. Scaled by a power of two first, the search
    ends within a few eps of the top of zeros(), on the double its
    docstring names: the greatest at which some pivot of the operator,
    scaled exactly (here by 2^700), is not positive. top_eigenpair runs
    its passes on a scaled operator too and finds the same eigenvalue."""
    from delbound import custom_space, top_eigenpair
    from delbound.orthopoly import _pivots

    b = (6.555363132914593e-255, -9.752365110266667e-255)
    spec = custom_space([6.704116390239309e-208, 1e-300], b)
    top = zeros(spec, Variant.BASE, 2)[-1]
    x = largest_zero(spec, Variant.BASE, 2)
    assert abs(x - top) <= 4 * np.finfo(float).eps * top
    diag = [math.ldexp(v, 700) for v in b]
    off = [math.ldexp(6.704116390239309e-208, 700)]
    t = math.ldexp(x, 700)
    assert min(_pivots(diag, off, t)[0]) <= 0.0
    r, _ = _pivots(diag, off, math.nextafter(t, math.inf))
    assert len(r) == 2 and min(r) > 0.0
    pair = top_eigenpair(jacobi_matrix(spec, Variant.BASE, 1))
    assert abs(pair.eigenvalue - top) <= 4 * np.finfo(float).eps * top
    assert pair.residual <= 1e-12 * top and np.all(pair.vector > 0.0)


def test_the_sturm_count_runs_on_the_scaled_operator():
    """_zeros_below counts on the operator scaled by the power of two of
    _scale_exponent, as the pivot search does. Where a_0^2 underflows,
    1e-210 lies above x_0 = -1 and x_1 = b_0 but below x_2 = 6.7e-208, so
    the count is 2, not 3. On random coefficients scaled by 2^700, whose
    squares overflow (the Sturm steps and pivot search on the lists, as
    custom_space refuses them), and on a custom space scaled by 2^-700,
    whose squares underflow, the count at every largest zero and at the
    doubles either side of it is the number of largest zeros below. mrrw
    and spectral still refuse s = 1e-230 on
    the first space as outside every window: its whole spectrum lies
    within the window tie tolerance of 0. On a random custom space of 34
    pairs, every index m of both adjacent systems is a slice of the
    system's one run, bit for bit, so J_{m-1} is a leading block of the
    operator the count reads, and the count agrees with largest_zero at
    every zero of both systems and one ulp either side."""
    from delbound import NotCertifiedError, bound_for_s, custom_space
    from delbound.orthopoly import RecurrenceCoeffs, _positive_pivots, _top_zero, _zeros_below

    spec = custom_space([6.704116390239309e-208, 1e-300],
                        [6.555363132914593e-255, -9.752365110266667e-255])
    assert largest_zero(spec, Variant.BASE, 2) > 1e-210
    assert _zeros_below(spec, Variant.BASE, 1e-210, 2) == 2
    for method in ("mrrw", "spectral"):
        with pytest.raises(NotCertifiedError, match="outside every open window"):
            bound_for_s(spec, 1e-230, method)
    rng = np.random.default_rng(32)
    a, b = rng.uniform(0.1, 0.5, 12).tolist(), rng.uniform(0.0, 0.4, 12).tolist()
    # scaled by 2^700 the coefficients are no measure on [-1, 1], which
    # custom_space refuses: the count runs on the scaled lists themselves
    big_a, big_b = [math.ldexp(v, 700) for v in a], [math.ldexp(v, 700) for v in b]
    e, d0, steps = RecurrenceCoeffs(tuple(big_a), tuple(big_b), 1.0)._sturm
    xs = [-1.0] + [_top_zero(big_b[:m], big_a[: m - 1]) for m in range(1, 13)]
    edges = [math.nextafter(x, d) for x in xs for d in (-math.inf, math.inf)]
    for t in xs + edges:
        count = 1 + min(_positive_pivots(d0, steps, math.ldexp(t, -e)), 12) if t > -1.0 else 0
        assert count == sum(x < t for x in xs), t
    with pytest.raises(ValidationError, match="lost positivity"):
        custom_space(big_a, big_b)
    spec = custom_space([math.ldexp(v, -700) for v in a], [math.ldexp(v, -700) for v in b])
    xs = [largest_zero(spec, Variant.BASE, m) for m in range(13)]
    edges = [math.nextafter(x, d) for x in xs for d in (-math.inf, math.inf)]
    for t in xs + edges:
        assert _zeros_below(spec, Variant.BASE, t, 12) == sum(x < t for x in xs), t
    spec = custom_space(rng.uniform(0.1, 0.4, 34).tolist(), rng.uniform(-0.2, 0.2, 34).tolist())
    for basis in (Variant.MINUS, Variant.PLUSMINUS):
        top = max_degree(spec, basis)
        run = recurrence_coeffs(spec, basis, top - 1)
        for m in range(top):
            assert recurrence_coeffs(spec, basis, m) == (run.a[: m + 1], run.b[: m + 1], run.mass)
        xs = [largest_zero(spec, basis, m) for m in range(top + 1)]
        edges = [math.nextafter(x, d) for x in xs for d in (-math.inf, math.inf)]
        for t in xs + edges:
            assert _zeros_below(spec, basis, t, top) == sum(x < t for x in xs), (basis, t)


def test_the_sturm_count_and_the_pivot_pass_agree():
    """_positive_pivots and _pivots, the pass that _top_zero's Newton steps
    and top_eigenpair's eigenvector read, run the same arithmetic. On random
    operators, with off-diagonals down to 1e-200 whose squares underflow,
    at the top zero, one ulp either side of it and at points around it,
    the count is the number of leading positive pivots of the pass; and
    _top_zero sits on the count's boundary, the count short of the order
    at its double and full one ulp above."""
    from delbound.orthopoly import _pivots, _positive_pivots, _top_zero

    rng = np.random.default_rng(30)
    for _ in range(400):
        n = int(rng.integers(1, 40))
        scale = 10.0 ** rng.uniform(-250, 2)
        diag = tuple((scale * rng.uniform(-1.0, 1.0, n)).tolist())
        off = tuple((10.0 ** rng.uniform(-200.0, 0.0, n - 1)).tolist())
        steps = tuple(zip(diag[1:], [e * e for e in off]))
        x = _top_zero(diag, off)
        up, down = math.nextafter(x, math.inf), math.nextafter(x, -math.inf)
        spread = scale + (max(off) if off else 0.0)
        for t in (x, up, down, *(x + spread * rng.uniform(-2.0, 0.5, 4)).tolist()):
            r, _ = _pivots(diag, off, t)
            lead = next((i for i, ri in enumerate(r) if not ri > 0.0), len(r))
            assert _positive_pivots(diag[0], steps, t) == lead, (diag, off, t)
        assert _positive_pivots(diag[0], steps, x) < n, (diag, off)
        assert _positive_pivots(diag[0], steps, up) == n, (diag, off)


def test_jacobi_matrix_refuses_an_off_diagonal_of_the_wrong_length():
    """JacobiOperator.matrix, the one dense Jacobi matrix, refuses an
    off-diagonal whose length is not order - 1, a single entry included,
    rather than repeating it along the diagonal."""
    from delbound.orthopoly import JacobiOperator

    for diag, off in (((1.0, 2.0, 3.0), (1.0,)), ((1.0, 2.0), (1.0, 2.0)), ((), (1.0,))):
        with pytest.raises(ValidationError, match="order - 1"):
            JacobiOperator(diag, off, Variant.BASE).matrix()
        with pytest.raises(ValidationError, match="order - 1"):
            tridiagonal_eigenvalues(diag, off)
    m = JacobiOperator((1.0, 2.0, 3.0), (4.0, 5.0), Variant.BASE, rho=0.5).matrix()
    assert m.tolist() == [[1.0, 4.0, 0.0], [4.0, 2.0, 5.0], [0.0, 5.0, 3.5]]
