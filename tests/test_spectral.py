import math
import warnings

import numpy as np
import pytest

from delbound import (
    NotCertifiedError,
    SingularOperatorError,
    ValidationError,
    Variant,
    bound_for_s,
    build_Tk,
    hamming_space,
    largest_zero,
    mrrw_bound_closed,
    sphere_space,
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

    pair = top_eigenpair(T)
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


def test_adjacent_spectral_route_equals_levenshtein():
    """The Levenshtein polynomials are the top eigenfunctions of T_k(s)
    over the adjacent systems: spectral_recover_bound over the minus
    system (odd window) or the plusminus one (even window), at the degree
    lev_degree_select picks, gives the lev bound to 1e-12 relative, and
    refuses where lev refuses."""
    from delbound import DegreeBudgetError, bound_for_s
    from delbound.constructions import lev_degree_select

    agreed = 0
    specs = [hamming_space(n) for n in (12, 33, 64, 100)]
    specs += [sphere_space(d) for d in (3, 4, 8, 24, 100)]
    for spec in specs:
        for s in np.linspace(-0.9, 0.9, 37):
            s = float(s)
            try:
                k, parity = lev_degree_select(spec, s)
            except DegreeBudgetError:
                with pytest.raises(DegreeBudgetError):
                    bound_for_s(spec, s, "lev")
                continue
            basis = Variant.MINUS if parity == "odd" else Variant.PLUSMINUS
            try:
                lev = bound_for_s(spec, s, "lev")
            except NotCertifiedError:
                with pytest.raises(NotCertifiedError):
                    spectral_recover_bound(spec, basis, k, s)
                continue
            res = spectral_recover_bound(spec, basis, k, s)
            assert res.bound == pytest.approx(lev.bound, rel=1e-12), (spec.label(), s)
            assert res.degree == lev.degree
            agreed += 1
    assert agreed >= 300


def test_singular_at_kernel_polynomial_zero():
    spec = hamming_space(8)
    s = float(largest_zero(spec, Variant.BASE, 2))
    with pytest.raises(SingularOperatorError):
        build_Tk(spec, Variant.BASE, 2, s)


def test_top_eigenpair_refuses_a_plain_matrix():
    """Only a Jacobi operator has a recurrence to read the eigenvector
    from; a matrix, even the operator's own, is refused."""
    T = build_Tk(hamming_space(4), Variant.BASE, 1, 0.25)
    with pytest.raises(ValidationError):
        top_eigenpair(T.matrix())
    with pytest.raises(ValidationError):
        top_eigenpair(np.eye(3))


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
                # one route: the bound method builds the same result
                same = bound_for_s(spec, s, "spectral", k=k)
                assert ((same.bound, same.degree, same.closed_form,
                         same.certificate.certificate_id)
                        == (res.bound, res.degree, res.closed_form,
                            res.certificate.certificate_id))


def test_eigenvector_matches_kernel_values():
    """The unit top eigenvector of T_k(s), from a dense eigh of its matrix,
    is proportional to (p_0(s), ..., p_k(s))."""
    spec = hamming_space(11)
    k = 3
    lo = largest_zero(spec, Variant.BASE, k)
    hi = largest_zero(spec, Variant.BASE, k + 1)
    s = 0.5 * (lo + hi)
    T = build_Tk(spec, Variant.BASE, k, s)
    _, vecs = np.linalg.eigh(T.matrix())
    top = vecs[:, -1] * np.sign(vecs[0, -1])
    expected = eval_basis_table(spec, Variant.BASE, k, np.array([s]))[:, 0]
    expected = expected / np.linalg.norm(expected)
    assert np.max(np.abs(top - expected)) < 1e-10


def _window_operators():
    """(operator, window midpoint) pairs: build_Tk at the midpoint of every
    window of the three systems on hamming:33 and sphere:8 (k up to 12
    there), the subtractive operators J_k - rho_k(1) e_k e_k^T, with
    rho_k(1) = a_k p_{k+1}(1)/p_k(1), for k = 1..6 on both, with the
    midpoint of the base window holding their top eigenvalue, and an
    operator of order 1."""
    from delbound import JacobiOperator
    from delbound.constructions import _basis_at
    from delbound.orthopoly import jacobi_matrix, recurrence_coeffs
    from delbound.spaces import max_degree

    ops = []
    for spec in (hamming_space(33), sphere_space(8)):
        for basis in Variant:
            cap = max_degree(spec, basis)
            for k in range(1, (cap - 1) if cap is not None else 13):
                mid = 0.5 * (largest_zero(spec, basis, k) + largest_zero(spec, basis, k + 1))
                ops.append((build_Tk(spec, basis, k, mid), mid))
        for k in range(1, 7):
            p = _basis_at(spec, Variant.BASE, k + 1, 1.0)
            rho = recurrence_coeffs(spec, Variant.BASE, k).a[k] * p[k + 1] / p[k]
            plain = jacobi_matrix(spec, Variant.BASE, k)
            mid = 0.5 * (largest_zero(spec, Variant.BASE, k)
                         + largest_zero(spec, Variant.BASE, k + 1))
            ops.append((JacobiOperator(diag=plain.diag, off=plain.off,
                                       basis=Variant.BASE, rho=-rho), mid))
    ops.append((JacobiOperator(diag=(0.25,), off=(), basis=Variant.BASE, rho=0.5), 0.75))
    return ops


def test_recurrence_eigenpair_matches_a_dense_eigensolve():
    """The eigenpair read off the pivots is the one a dense eigh gives,
    its vector positive entry by entry, with no start, from the window
    midpoint, a start below the leading block's spectrum, one above the
    Gershgorin bound, and NaN and the infinities, whose one pass settles
    nothing."""
    ops = _window_operators()
    assert len(ops) > 100
    for T, mid in ops:
        w, vecs = np.linalg.eigh(T.matrix())
        for start in (None, mid, -2.0, 3.0, float("nan"), float("inf"), float("-inf")):
            pair = top_eigenpair(T, start=start)
            ref = vecs[:, -1] * np.sign(vecs[:, -1] @ pair.vector)
            assert abs(pair.eigenvalue - w[-1]) <= 1e-14, (T.order, T.basis, start)
            assert np.max(np.abs(pair.vector - ref)) <= 1e-10, (T.order, T.basis, start)
            assert np.all(pair.vector > 0.0), (T.order, T.basis, start)


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


def test_reducible_jacobi_operator_is_refused():
    """A zero off-diagonal entry leaves no recurrence to read the
    eigenvector from, so the operator is refused."""
    from delbound import JacobiOperator

    T = JacobiOperator(diag=(0.0, 1.0, 0.5), off=(0.0, 0.25), basis=Variant.BASE,
                       rho=0.5)
    with pytest.raises(ValidationError):
        top_eigenpair(T)


def test_operator_at_the_max_degree_refuses_without_warning():
    """k = n has no a_k on hamming:n: the operator is refused before any
    recurrence divides by the trailing a_n = 0."""
    spec = hamming_space(4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError):
            build_Tk(spec, Variant.BASE, 4, 0.5)


def test_spectral_route_runs_no_dense_eigensolve(monkeypatch):
    """The spectral bounds, the kernel check and the mrrw and lev bounds
    on a Hamming space return what they returned before once
    every dense eigensolve (np.linalg.eigvalsh, tridiagonal_eigenvalues in
    every namespace of the package) and every dense matrix
    (JacobiOperator.matrix) raises, run twice after the tables of largest
    zeros are cleared, and once more with orthopoly._top_zero raising as
    well: no spectral op and no kernel check computes a largest zero or
    runs a pivot search. A start at the s of T_k(s) takes one pass over
    the pivots."""
    import sys

    from delbound import JacobiOperator, bound_for_distance, bound_for_s, orthopoly
    from delbound.constructions import _base_window_index
    from delbound.orthopoly import largest_zero, tridiagonal_eigenvalues

    h384 = hamming_space(384)
    s24 = sphere_space(24)
    # refused for their fhat_0 after the eigensolve, but for d = 180
    cases = [lambda d=d: bound_for_distance(h384, d, "spectral") for d in (40, 60, 100, 180)]
    cases += [lambda d=d, m=m: bound_for_distance(h384, d, m)
              for d in (60, 180) for m in ("mrrw", "lev")]
    cases.append(lambda: bound_for_s(s24, 0.3, "spectral"))
    for spec, s in ((h384, h384.nodes[60]), (s24, 0.3)):
        k = _base_window_index(spec, s)
        cases.append(lambda spec=spec, k=k, s=s: verify_kernel_eigen(spec, Variant.BASE, k, s))

    def outcome(case):
        try:
            out = case()
        except NotCertifiedError as exc:
            return ("refused", str(exc))
        if hasattr(out, "certificate"):
            return (out.bound, out.closed_form, out.certificate.certificate_id)
        return (out.eigenvalue, out.vector.tolist(), out.residual)

    largest_zero.cache_clear()
    before = [outcome(case) for case in cases]
    assert sum(b[0] == "refused" for b in before) == 5

    def dense(*args, **kwargs):
        raise AssertionError("dense eigensolve on a bound path")

    monkeypatch.setattr(np.linalg, "eigvalsh", dense)
    monkeypatch.setattr(JacobiOperator, "matrix", dense)
    for name, module in list(sys.modules.items()):
        if (name.startswith("delbound")
                and getattr(module, "tridiagonal_eigenvalues", None) is tridiagonal_eigenvalues):
            monkeypatch.setattr(module, "tridiagonal_eigenvalues", dense)
    passes = []
    original = orthopoly._pivots

    def counted(*args):
        passes.append(args[2])
        return original(*args)

    monkeypatch.setattr(orthopoly, "_pivots", counted)
    largest_zero.cache_clear()
    assert [outcome(case) for case in cases] == before
    assert [outcome(case) for case in cases] == before

    def search(*args, **kwargs):
        raise AssertionError("a pivot search ran on a bound path")

    monkeypatch.setattr(orthopoly, "_top_zero", search)
    largest_zero.cache_clear()
    assert [outcome(case) for case in cases] == before
    for spec, s in ((h384, h384.nodes[40]), (h384, h384.nodes[100]), (s24, 0.3)):
        k = _base_window_index(spec, s)
        passes.clear()
        top_eigenpair(build_Tk(spec, Variant.BASE, k, s), start=s)
        assert passes == [s], (spec.label(), s)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_eigenvector_is_refused_without_a_warning():
    """s = 0.9375 is an exact zero of p_36 on hamming:64, and the computed
    p_36(s) is rounding noise, within 37 eps of the largest |p_i(s)|: the
    operator is refused before its corner weight rho_36 ~ 1e15 makes the
    pivots huge. An operator whose eigenvector product does overflow
    is refused for its NaN residual with no RuntimeWarning, under the
    np.errstate the spectral op holds."""
    from delbound import JacobiOperator, NumericError, bound_for_s

    with pytest.raises(SingularOperatorError, match="p_36.* vanishes"):
        bound_for_s(hamming_space(64), 0.9375, "spectral", k=36)
    T = JacobiOperator(diag=(0.0,) * 40, off=(1e-3,) * 39, basis=Variant.BASE, rho=1e300)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match="eigenpair residual nan breaks"):
            top_eigenpair(T)


def test_explicit_degree_off_its_window_certifies_without_a_closed_form():
    """An explicit k whose window does not hold s has no closed form. A
    spectral polynomial there that passes its certificate is reported as
    mrrw's is, with closed_form None and the bound 1/fhat_0: 448 such
    (d, k) on hamming:64 (d < 64, k < 40) and 266 such (s, k) on sphere:24
    (s = -0.9..0.9 by 0.1, k < 20). Wherever mrrw at the same (s, k)
    certifies, the spectral result has a closed form exactly when mrrw's
    has, and the same one to 1e-7."""
    from delbound import DelboundError, bound_for_s

    res = bound_for_s(hamming_space(64), 0.5, "spectral", k=10)
    assert res.closed_form is None and res.bound == 1.0 / res.certificate.fhat[0]

    def outcome(spec, s, method, k):
        try:
            return bound_for_s(spec, s, method, k=k)
        except DelboundError:
            return None

    grids = ((hamming_space(64), [1 - d / 32 for d in range(1, 64)], 40),
             (sphere_space(24), [i / 10 for i in range(-9, 10)], 20))
    off_window = []
    for spec, points, degrees in grids:
        count = 0
        for s in points:
            for k in range(degrees):
                res = outcome(spec, s, "spectral", k)
                if res is None:
                    continue
                assert res.certificate.passed
                mrrw = outcome(spec, s, "mrrw", k)
                if res.closed_form is None:
                    count += 1
                    assert res.bound == 1.0 / res.certificate.fhat[0], (spec.label(), s, k)
                    assert mrrw is None or mrrw.closed_form is None, (spec.label(), s, k)
                else:
                    assert res.closed_form == pytest.approx(mrrw.closed_form, rel=1e-7)
        off_window.append(count)
    assert off_window == [448, 266]


@pytest.mark.filterwarnings("error")
def test_operator_refuses_a_threshold_out_of_range():
    """T_k(s) is refused for an s outside [-1, 1], NaN and the infinities
    included, before p(s) is evaluated: build_Tk, verify_kernel_eigen and
    spectral_recover_bound over every system raise ValidationError, with
    no extrapolation warning and no singular-operator report first. s = 1
    stays valid for the operator."""
    spec = hamming_space(8)
    for s in (math.nan, math.inf, -math.inf, -2.0, math.nextafter(1.0, 2.0)):
        for basis in Variant:
            for op in (build_Tk, verify_kernel_eigen, spectral_recover_bound):
                with pytest.raises(ValidationError, match=r"s in \[-1, 1\]"):
                    op(spec, basis, 1, s)
    assert build_Tk(spec, Variant.BASE, 1, 1.0).order == 2
