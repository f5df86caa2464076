import warnings

import numpy as np
import pytest

from delbound import (
    NotCertifiedError,
    SingularOperatorError,
    ValidationError,
    Variant,
    build_Tk,
    hamming_space,
    largest_zero,
    mrrw_bound_closed,
    sphere_space,
    spectral_bound_fixed,
    spectral_recover_bound,
    top_eigenpair,
    verify_kernel_eigen,
)
from delbound.orthopoly import eval_basis_table


def test_operator_fixed_point_exact():
    """Hamming(4), k=1, s=0.25. a_0 = 1/2, a_1 = sqrt(6)/4, and
    p_2(0.25) / p_1(0.25) works out so that rho = -3/4 exactly; every
    entry of T is a dyadic rational and IEEE arithmetic is exact."""
    spec = hamming_space(4)
    T = build_Tk(spec, Variant.BASE, 1, 0.25)
    M = T.matrix()
    assert M.tolist() == [[0.0, 0.5], [0.5, -0.75]]
    assert T.rho == -0.75

    pair = top_eigenpair(M)
    assert abs(pair.eigenvalue - 0.25) <= 1e-12
    v = pair.vector / pair.vector[0]
    assert v[0] == pytest.approx(1.0, abs=1e-12)
    assert v[1] == pytest.approx(0.5, abs=1e-12)
    assert pair.residual <= 1e-12


def test_kernel_vector_is_eigenvector():
    rng = np.random.default_rng(17)
    for spec in (hamming_space(8), hamming_space(13), sphere_space(3), sphere_space(6)):
        for k in (1, 2, 4):
            lo = largest_zero(spec, Variant.BASE, k)
            hi = largest_zero(spec, Variant.BASE, k + 1)
            for _ in range(4):
                s = float(rng.uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo)))
                report = verify_kernel_eigen(spec, Variant.BASE, k, s)
                assert report.residual <= 1e-9
                assert abs(report.eigenvalue - s) <= 1e-10
                assert np.all(report.vector > 0)


def test_adjacent_bases_supported():
    spec = hamming_space(10)
    for variant in (Variant.MINUS, Variant.PLUSMINUS):
        lo = largest_zero(spec, variant, 2)
        hi = largest_zero(spec, variant, 3)
        s = 0.5 * (lo + hi)
        report = verify_kernel_eigen(spec, variant, 2, s)
        assert report.residual <= 1e-9


def test_singular_at_kernel_polynomial_zero():
    spec = hamming_space(8)
    s = float(largest_zero(spec, Variant.BASE, 2))
    with pytest.raises(SingularOperatorError):
        build_Tk(spec, Variant.BASE, 2, s)


def test_top_eigenpair_residual_contract():
    rng = np.random.default_rng(23)
    for _ in range(25):
        n = int(rng.integers(2, 12))
        A = rng.normal(size=(n, n))
        A = 0.5 * (A + A.T)
        pair = top_eigenpair(A)
        assert pair.residual <= 1e-9
        assert pair.vector.shape == (n,)
        ref = np.linalg.eigvalsh(A)[-1]
        assert pair.eigenvalue == pytest.approx(ref, rel=1e-12, abs=1e-12)


def test_spectral_route_equals_closed_form():
    rng = np.random.default_rng(41)
    for spec in (hamming_space(9), hamming_space(14), sphere_space(4)):
        for k in (1, 2, 3):
            lo = largest_zero(spec, Variant.BASE, k)
            hi = largest_zero(spec, Variant.BASE, k + 1)
            for _ in range(4):
                s = float(rng.uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo)))
                res = spectral_recover_bound(spec, Variant.BASE, k, s)
                closed = mrrw_bound_closed(spec, k, s)
                assert res.bound == pytest.approx(closed, rel=1e-7)
                assert res.certificate.passed


def test_spectral_fixed_point_bound():
    spec = hamming_space(4)
    res = spectral_bound_fixed(spec, 1)
    assert res.bound == pytest.approx(16.0, abs=1e-6)
    assert res.method == "spectral_fixed"
    assert res.s == pytest.approx(0.25, abs=1e-12)
    assert res.certificate.passed


def test_spectral_fixed_additive_is_degenerate():
    """The additive corner sign pins an exact eigenpair at lambda = 1 and
    the bound formula degenerates; the call must refuse, not emit."""
    spec = hamming_space(6)
    with pytest.raises((SingularOperatorError, NotCertifiedError)):
        spectral_bound_fixed(spec, 2, sign_variant="additive")


def test_spectral_fixed_validation():
    spec = hamming_space(8)
    with pytest.raises(ValidationError):
        spectral_bound_fixed(spec, 0)
    with pytest.raises(ValidationError):
        spectral_bound_fixed(spec, 2, sign_variant="sideways")


def test_spectral_fixed_tracks_closed_form():
    for n in (6, 10, 14):
        spec = hamming_space(n)
        for k in (1, 2):
            res = spectral_bound_fixed(spec, k)
            assert res.closed_form is not None
            assert res.bound <= res.closed_form * (1 + 1e-12)
            assert res.bound == pytest.approx(res.closed_form, rel=1e-7)


def test_eigenvector_matches_kernel_values():
    """The unit top eigenvector of T_k(s) is proportional to
    (p_0(s), ..., p_k(s))."""
    spec = hamming_space(11)
    k = 3
    lo = largest_zero(spec, Variant.BASE, k)
    hi = largest_zero(spec, Variant.BASE, k + 1)
    s = 0.5 * (lo + hi)
    T = build_Tk(spec, Variant.BASE, k, s)
    pair = top_eigenpair(T.matrix())
    expected = eval_basis_table(spec, Variant.BASE, k, np.array([s]))[:, 0]
    expected = expected / np.linalg.norm(expected)
    assert np.max(np.abs(pair.vector - expected)) < 1e-10


@pytest.mark.parametrize("n", [6, 10, 14, 16])
def test_spectral_fixed_reports_the_certified_value(n):
    """The reported bound is 1/fhat_0 of the certificate, bit for bit; the
    closed form rides along without lowering it."""
    spec = hamming_space(n)
    for k in range(1, 5):
        res = spectral_bound_fixed(spec, k)
        assert res.bound == 1.0 / res.certificate.fhat[0], (n, k)
        assert res.closed_form is not None


def _window_operators():
    """build_Tk at the midpoint of every window of the three systems on
    hamming:33 and sphere:8 (k up to 12 there), and the operators of
    spectral_bound_fixed, subtractive, for k = 1..6 on both."""
    from delbound import JacobiOperator
    from delbound.constructions import _basis_at
    from delbound.orthopoly import jacobi_matrix, recurrence_coeffs
    from delbound.spaces import max_degree

    ops = []
    for spec in (hamming_space(33), sphere_space(8)):
        for basis in Variant:
            cap = max_degree(spec, basis)
            for k in range(1, (cap - 1) if cap is not None else 13):
                lo = largest_zero(spec, basis, k)
                hi = largest_zero(spec, basis, k + 1)
                ops.append(build_Tk(spec, basis, k, 0.5 * (lo + hi)))
        for k in range(1, 7):
            p = _basis_at(spec, Variant.BASE, k + 1, 1.0)
            rho = recurrence_coeffs(spec, Variant.BASE, k).a[k] * p[k + 1] / p[k]
            plain = jacobi_matrix(spec, Variant.BASE, k)
            ops.append(JacobiOperator(diag=plain.diag, off=plain.off,
                                      basis=Variant.BASE, rho=-rho))
    return ops


def test_recurrence_eigenpair_matches_a_dense_eigensolve():
    """The eigenvector read off the recurrence at the top eigenvalue is the
    one a dense eigh gives, and positive entry by entry."""
    ops = _window_operators()
    assert len(ops) > 100
    for T in ops:
        pair = top_eigenpair(T)
        w, vecs = np.linalg.eigh(T.matrix())
        ref = vecs[:, -1] * np.sign(vecs[:, -1] @ pair.vector)
        assert abs(pair.eigenvalue - w[-1]) <= 1e-14, (T.order, T.basis)
        assert np.max(np.abs(pair.vector - ref)) <= 1e-10, (T.order, T.basis)
        assert np.all(pair.vector > 0.0), (T.order, T.basis)


def test_kernel_eigenfunction_holds_at_every_window_node():
    """At every node of hamming:256 inside a base window, the kernel vector
    is the positive top eigenvector of T_k(s). Near s = 1 the leading
    entries of that vector are as small as 1e-35 of its norm, which a
    dense eigh gives only to rounding, and with either sign."""
    from delbound.constructions import _base_window_index

    spec = hamming_space(256)
    checked = 0
    for s in spec.nodes:
        k = _base_window_index(spec, s)
        if k is None:
            continue
        pair = verify_kernel_eigen(spec, Variant.BASE, k, s)
        assert pair.residual <= 1e-9 and np.all(pair.vector > 0.0), s
        checked += 1
    assert checked > 200


def test_reducible_jacobi_operator_takes_the_dense_eigensolve():
    """A zero off-diagonal entry leaves no recurrence to read the
    eigenvector from; the operator then goes through eigh like a matrix."""
    from delbound import JacobiOperator

    T = JacobiOperator(diag=(0.0, 1.0, 0.5), off=(0.0, 0.25), basis=Variant.BASE,
                       rho=0.5)
    pair = top_eigenpair(T)
    w, vecs = np.linalg.eigh(T.matrix())
    assert pair.eigenvalue == pytest.approx(w[-1], abs=1e-14)
    assert np.max(np.abs(pair.vector - vecs[:, -1] * np.sign(vecs[1, -1]))) <= 1e-14


def test_operator_at_the_max_degree_refuses_without_warning():
    """k = n has no a_k on hamming:n: the operator is refused before any
    recurrence divides by the trailing a_n = 0."""
    spec = hamming_space(4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError):
            build_Tk(spec, Variant.BASE, 4, 0.5)
        with pytest.raises(ValidationError):
            spectral_bound_fixed(spec, 4)
