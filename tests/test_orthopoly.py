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


@pytest.mark.parametrize("n", [5, 16, 64])
def test_sliced_recurrence_matches_per_degree_stieltjes(n):
    """One Stieltjes run to the maximal degree, sliced, equals a run to each
    index m bit for bit, and so does the shared run that serves the
    adjacent systems, whatever order the indices are asked for in."""
    from delbound.orthopoly import _coeffs_cached, _discrete_stieltjes, _stieltjes

    spec = hamming_space(n)
    _coeffs_cached.cache_clear()
    _discrete_stieltjes.cache_clear()
    order = np.random.default_rng(n).permutation
    for basis in Variant:
        x, w = node_weights(spec, basis)
        cap = max_degree(spec, basis)
        full_a, full_b, full_mass = _stieltjes(x, w, cap)
        for m in order(cap + 1):
            a, b, mass = _stieltjes(x, w, m)
            assert a.tobytes() == full_a[: m + 1].tobytes(), (n, basis, m)
            assert b.tobytes() == full_b[: m + 1].tobytes(), (n, basis, m)
            assert mass == full_mass
            if basis is not Variant.BASE:
                rc = recurrence_coeffs(spec, basis, int(m))
                assert np.array(rc.a).tobytes() == a.tobytes(), (n, basis, m)
                assert np.array(rc.b).tobytes() == b.tobytes(), (n, basis, m)
                assert rc.mass == mass


def test_stieltjes_stops_where_positivity_is_lost():
    """A repeated node gives four weights but three points: the residual
    vanishes at index 2, so indices up to 2 are served and 3 is refused."""
    from delbound import MeasureSpec
    from delbound.orthopoly import _stieltjes

    spec = MeasureSpec(kind="points", params=(), nodes=(1.0, 0.5, 0.5, -1.0),
                       weights=(0.25, 0.25, 0.25, 0.25))
    x, w = node_weights(spec, Variant.BASE)
    a, b, _ = _stieltjes(x, w, 3)
    assert a.size == b.size == 3 and a[-1] < 1e-13
    for m in range(3):
        assert recurrence_coeffs(spec, Variant.BASE, m).a == tuple(_stieltjes(x, w, m)[0])
    with pytest.raises(ValidationError, match="lost positivity at index 2"):
        recurrence_coeffs(spec, Variant.BASE, 3)


def test_shared_stieltjes_run_under_concurrent_requests():
    """Threads asking one shared run for different indices get the same
    coefficients as a single-threaded run."""
    import sys
    from concurrent.futures import ThreadPoolExecutor

    from delbound.orthopoly import _StieltjesRun, _stieltjes

    x, w = node_weights(hamming_space(200), Variant.MINUS)
    full_a, full_b, _ = _stieltjes(x, w, 199)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for trial in range(5):
            run = _StieltjesRun(x, w)
            wanted = [int(m) for m in np.random.default_rng(trial).integers(0, 200, 64)]
            with ThreadPoolExecutor(max_workers=8) as pool:
                got = list(pool.map(run.through, wanted, timeout=60))
            for m, (a, b, _) in zip(wanted, got):
                assert a.tobytes() == full_a[: m + 1].tobytes()
                assert b.tobytes() == full_b[: m + 1].tobytes()
    finally:
        sys.setswitchinterval(interval)


def test_chebyshev_table_reproduces_the_basis():
    """Row i of the connection matrix, summed as a Chebyshev series, is
    p_i: within 1e-13 of the recurrence's values, relative to the row's
    largest value, on every sphere:4..200 through degree 60."""
    from numpy.polynomial.chebyshev import chebval

    from delbound.orthopoly import chebyshev_table

    x = np.linspace(-1.0, 1.0, 257)
    worst = 0.0
    for dim in range(4, 201):
        spec = sphere_space(dim)
        table = chebyshev_table(spec, Variant.BASE, 60)
        assert not table.flags.writeable
        values = eval_basis_table(spec, Variant.BASE, 60, x)
        err = np.max(np.abs(chebval(x, table.T) - values), axis=1)
        worst = max(worst, float(np.max(err / np.max(np.abs(values), axis=1))))
        # a lower degree is the leading block, bit for bit
        assert np.array_equal(chebyshev_table(spec, Variant.BASE, 7), table[:8, :8])
    assert worst < 1e-13, worst


def test_basis_at_one_is_the_node_column_or_the_recurrence_at_one():
    """The one table of p_0(1)..p_deg(1): on a Hamming space the node-0
    column of the node table, on a sphere the recurrence run at x = 1,
    bit for bit either way."""
    from delbound.orthopoly import basis_at_one

    for n in (16, 64, 384):
        spec = hamming_space(n)
        column = discrete_basis_table(spec, Variant.BASE)[:, 0]
        for deg in range(n + 1):
            assert basis_at_one(spec, Variant.BASE, deg).tolist() == column[: deg + 1].tolist()
    for d in (3, 24, 200):
        spec = sphere_space(d)
        for deg in range(61):
            ref = eval_basis_table(spec, Variant.BASE, deg, 1.0)[:, 0]
            got = basis_at_one(spec, Variant.BASE, deg)
            assert got.tolist() == ref.tolist(), (d, deg)
            assert not got.flags.writeable
