import math

import numpy as np
import pytest

from delbound import (
    DegreeBudgetError,
    NotCertifiedError,
    ValidationError,
    Variant,
    bound_for_distance,
    bound_for_s,
    bound_value,
    classical_baselines,
    cone_certificate,
    hamming_space,
    largest_zero,
    lev_degree_select,
    lev_even_poly,
    lev_odd_poly,
    mrrw_bound_closed,
    mrrw_poly,
    polynomial_from_fourier,
    recurrence_coeffs,
    sphere_space,
    zeros,
)
from delbound.constructions import BoundResult
from delbound.errors import DelboundError


def test_quadratic_kernel_bound_fixed_point():
    """Hamming(4), k=1, s=0.25: both the moment route and the closed form
    land on 16.0 (exactly, in IEEE)."""
    spec = hamming_space(4)
    poly = mrrw_poly(spec, 1, 0.25)
    assert poly.degree == 3
    assert bound_value(spec, poly) == pytest.approx(16.0, abs=1e-9)
    assert mrrw_bound_closed(spec, 1, 0.25) == pytest.approx(16.0, abs=1e-9)
    cert = cone_certificate(spec, poly, 0.25)
    assert cert.passed


def test_normalization_at_one():
    spec = hamming_space(8)
    for k, s in ((1, 0.3), (2, 0.45)):
        poly = mrrw_poly(spec, k, s)
        assert poly(1.0) == pytest.approx(1.0, rel=1e-12)
        lev = lev_odd_poly(spec, k, s)
        assert lev(1.0) == pytest.approx(1.0, rel=1e-12)
        lev2 = lev_even_poly(spec, k, s)
        assert lev2(1.0) == pytest.approx(1.0, rel=1e-12)
        assert lev2.degree == 2 * k + 2


def test_closed_form_window_validation():
    spec = hamming_space(8)
    lo = largest_zero(spec, Variant.BASE, 2)
    hi = largest_zero(spec, Variant.BASE, 3)
    mrrw_bound_closed(spec, 2, 0.5 * (lo + hi))  # inside is fine
    with pytest.raises(ValidationError):
        mrrw_bound_closed(spec, 2, hi + 0.05)
    with pytest.raises(ValidationError):
        mrrw_bound_closed(spec, 2, lo - 0.05)


def test_closed_matches_moment_route_inside_windows():
    rng = np.random.default_rng(3)
    for spec in (hamming_space(10), hamming_space(15), sphere_space(4)):
        for k in (1, 2, 3):
            lo = largest_zero(spec, Variant.BASE, k)
            hi = largest_zero(spec, Variant.BASE, k + 1)
            for _ in range(5):
                s = float(rng.uniform(lo + 0.02 * (hi - lo), hi - 0.02 * (hi - lo)))
                closed = mrrw_bound_closed(spec, k, s)
                direct = bound_value(spec, mrrw_poly(spec, k, s))
                assert direct == pytest.approx(closed, rel=1e-9), (spec.label(), k, s)


def test_plotkin_fixed_point():
    spec = hamming_space(3)
    res = bound_for_distance(spec, 2, method="lev")
    assert res.bound == pytest.approx(4.0, abs=1e-9)
    assert res.method == "lev_odd"
    assert res.degree == 1
    # Plotkin gives 2d/(2d-n) = 4 here as well
    names = dict(res.baselines)
    assert names["plotkin"] == pytest.approx(4.0)


def test_lev_beats_or_ties_quadratic_at_equal_degree():
    spec = hamming_space(10)
    for d in (3, 4, 5):
        s = spec.nodes[d]
        k, parity = lev_degree_select(spec, s)
        if parity != "odd":
            continue
        lev = lev_odd_poly(spec, k, s)
        if not cone_certificate(spec, lev, s).passed:
            continue
        try:
            quad = mrrw_poly(spec, k, s)
        except DelboundError:
            continue
        if not cone_certificate(spec, quad, s).passed:
            continue
        assert bound_value(spec, lev) <= bound_value(spec, quad) * (1 + 1e-9)


def test_degree_budget_rejection():
    # d=1 sits beyond the last Levenshtein window on every n
    for n in (4, 6, 9):
        spec = hamming_space(n)
        with pytest.raises((DegreeBudgetError, NotCertifiedError)):
            bound_for_distance(spec, 1, method="lev")


def test_bound_for_distance_validation():
    spec = hamming_space(6)
    with pytest.raises(ValidationError):
        bound_for_distance(spec, 0)
    with pytest.raises(ValidationError):
        bound_for_distance(spec, 7)
    with pytest.raises(ValidationError):
        bound_for_distance(sphere_space(4), 2)
    with pytest.raises(ValidationError):
        bound_for_distance(spec, 3, method="nope")


def test_bound_for_s_validation_and_boundary():
    spec = hamming_space(6)
    with pytest.raises(ValidationError):
        bound_for_s(spec, 1.0)
    with pytest.raises(ValidationError):
        bound_for_s(spec, 0.2, method="lev", k=2)
    # s exactly on a window edge: the largest zero of p_1 is 0
    with pytest.raises(NotCertifiedError):
        bound_for_s(spec, 0.0, method="mrrw")


def test_sphere_kissing_bounds_frozen():
    """Levenshtein values at s = 1/2; the d=8 value 240 is attained by a
    known configuration, so equality there is a sharp check."""
    for d, expect in ((3, 93 / 7), (4, 26.0), (8, 240.0)):
        res = bound_for_s(sphere_space(d), 0.5, method="lev")
        assert res.bound == pytest.approx(expect, rel=1e-8), d


def test_sphere_orthoplex_point():
    # s = 0: bound 8 in dimension 4, attained by the cross-polytope
    res = bound_for_s(sphere_space(4), 0.0, method="lev")
    assert res.bound == pytest.approx(8.0, rel=1e-9)


def test_classical_baselines_values():
    vals = dict(classical_baselines(8, 4))
    assert vals["singleton"] == 32.0
    assert vals["sphere_packing"] == pytest.approx(256 / 9)
    assert "plotkin" not in vals
    vals2 = dict(classical_baselines(6, 4))
    assert vals2["plotkin"] == pytest.approx(4.0)


def test_classical_baselines_match_the_binomial_sums():
    """Each ball size read from the cumulative list equals its fresh sum of
    binomials, on every d of hamming:1-130, 256 and 384; on hamming:1024
    the bounds past the float range at d = 1 and 2 read inf."""
    for n in list(range(1, 131)) + [256, 384]:
        for d in range(1, n + 1):
            ball = sum(math.comb(n, j) for j in range(((d - 1) // 2) + 1))
            expect = [("singleton", float(2 ** (n - d + 1))), ("sphere_packing", 2 ** n / ball)]
            if 2 * d > n:
                expect.append(("plotkin", 2 * d / (2 * d - n)))
            assert classical_baselines(n, d) == tuple(expect), (n, d)
    assert classical_baselines(1024, 1) == (("singleton", math.inf), ("sphere_packing", math.inf))
    assert classical_baselines(1024, 2) == (("singleton", 2.0 ** 1023),
                                            ("sphere_packing", math.inf))


def test_lev_bound_monotone_in_distance():
    """Certified bounds shrink as the distance requirement grows."""
    for n in (6, 9, 12, 16):
        spec = hamming_space(n)
        prev = None
        for d in range(1, n + 1):
            try:
                b = bound_for_distance(spec, d, method="lev").bound
            except DelboundError:
                continue
            if prev is not None:
                assert b <= prev * (1 + 1e-9), (n, d)
            prev = b


def test_scan_minimizes_over_degrees():
    spec = hamming_space(9)
    res = bound_for_distance(spec, 3, method="mrrw")
    # any explicitly certified k must not beat the scan result
    for k in range(1, 5):
        try:
            poly = mrrw_poly(spec, k, res.s)
        except DelboundError:
            continue
        if not cone_certificate(spec, poly, res.s).passed:
            continue
        assert res.bound <= bound_value(spec, poly) * (1 + 1e-9)


def test_result_to_json_and_certificate_gate():
    spec = hamming_space(5)
    res = bound_for_distance(spec, 3, method="lev")
    blob = res.to_json()
    assert blob["schema"] == 1
    assert blob["space"] == "hamming:5"
    assert blob["bound"] == res.bound
    assert "certificate_id" in blob

    # a failed certificate can never ride inside a BoundResult
    bad_poly = polynomial_from_fourier(spec, [0.5, -0.3], -0.5)
    bad_cert = cone_certificate(spec, bad_poly, -0.5)
    assert not bad_cert.passed
    with pytest.raises(NotCertifiedError):
        BoundResult(method="custom", space=spec, s=-0.5, degree=1,
                    bound=2.0, certificate=bad_cert)


def test_bound_result_validates_on_replace_and_make_and_pickles():
    """_replace and _make cannot put a failed certificate into a
    BoundResult, and a pickled result round-trips equal."""
    import pickle

    spec = hamming_space(5)
    res = bound_for_distance(spec, 3, method="lev")
    bad_cert = cone_certificate(spec, polynomial_from_fourier(spec, [0.5, -0.3], -0.5), -0.5)
    with pytest.raises(NotCertifiedError):
        res._replace(certificate=bad_cert)
    with pytest.raises(NotCertifiedError):
        BoundResult._make(res[:5] + (bad_cert,) + res[6:])
    back = pickle.loads(pickle.dumps(res))
    assert type(back) is BoundResult and back == res and back.to_json() == res.to_json()


def test_bounds_load_no_dataclasses(fresh_python):
    """In a fresh interpreter, the hamming:64 table (the mrrw, lev and
    spectral sweeps) and a sphere:24 bound, run through cli.main, load no
    dataclasses: every record of the package is a named tuple."""
    code = """
import contextlib, io, sys
from delbound import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["table", "--space", "hamming:64"]) == 0
    assert cli.main(["bound", "--space", "sphere:24", "--method", "lev", "--s", "0.5"]) == 0
assert "dataclasses" not in sys.modules, "dataclasses loaded"
"""
    proc = fresh_python(code=code)
    assert proc.returncode == 0, proc.stderr


def test_bound_value_rejects_nonpositive_mean():
    spec = hamming_space(5)
    poly = polynomial_from_fourier(spec, [0.0, 1.0], -0.5)
    with pytest.raises(NotCertifiedError) as info:
        bound_value(spec, poly)
    assert info.value.certificate is not None


def test_polynomial_from_fourier_roundtrip():
    spec = hamming_space(7)
    poly = polynomial_from_fourier(spec, [0.25, 0.5, 0.125], 0.0)
    assert poly.degree == 2
    assert poly.fhat == (0.25, 0.5, 0.125)
    with pytest.raises(ValidationError):
        polynomial_from_fourier(spec, list(range(9)), 0.0)
    with pytest.raises(ValidationError):
        polynomial_from_fourier(spec, [], 0.0)


def test_window_edge_spectral_refuses():
    # s = 1 - 2/64 is an exact zero of p_32, so it lies on the edge between
    # the windows of k = 31 and k = 32
    with pytest.raises(NotCertifiedError):
        bound_for_distance(hamming_space(64), 1, "spectral")


def _reference_mrrw_scan(spec, s):
    """Build and fully certify every degree k < n whose unnormalized mean
    is positive: the search over all degrees."""
    from delbound.errors import NumericError, SingularOperatorError
    from delbound.orthopoly import discrete_basis_table, eval_basis_table
    from delbound.spaces import node_weights

    n = spec.params[0]
    table = discrete_basis_table(spec, Variant.BASE)
    ps = eval_basis_table(spec, Variant.BASE, n, s)[:, 0]
    x, w = node_weights(spec, Variant.BASE)
    kinc = np.cumsum(ps[:, None] * table, axis=0)
    raw_means = (kinc * kinc) @ (w * (x - s))
    results = []
    for k in range(n):
        if raw_means[k] <= 0.0:
            continue
        try:
            poly = mrrw_poly(spec, k, s)
        except (SingularOperatorError, NumericError):
            continue
        cert = cone_certificate(spec, poly, s)
        if not cert.passed:
            continue
        try:
            closed = mrrw_bound_closed(spec, k, s)
        except (ValidationError, SingularOperatorError):
            closed = None
        results.append((bound_value(spec, poly), k, poly, cert, closed))
    return results


# sampled distances of the larger spaces, with every d whose s is a
# largest zero x_e (hamming:100 d=45, hamming:128 d=64, ...)
_REFERENCE_DISTANCES = {100: (1, 2, 10, 25, 33, 45, 50, 67, 100),
                        128: (1, 16, 32, 50, 64, 96, 128)}


@pytest.mark.parametrize("n", [5, 8, 16, 33, 64, 100, 128])
def test_mrrw_scan_matches_per_degree_reference(n):
    spec = hamming_space(n)
    for d in _REFERENCE_DISTANCES.get(n, range(1, n + 1)):
        s = spec.nodes[d]
        ref = _reference_mrrw_scan(spec, s)
        if not ref:
            with pytest.raises(NotCertifiedError):
                bound_for_distance(spec, d, "mrrw")
            continue
        best = min(r[0] for r in ref)
        value, k, poly, cert, closed = min(
            (r for r in ref if r[0] <= best * (1.0 + 1e-9)), key=lambda r: r[1])
        res = bound_for_distance(spec, d, "mrrw")
        assert (res.bound, res.degree, res.certificate.certificate_id, res.closed_form) \
            == (value, poly.degree, cert.certificate_id, closed), (n, d)



def _direct_zero(spec, basis, k):
    """x_k from the pivot search of largest_zero run fresh, bypassing the
    table of largest zeros."""
    from delbound.orthopoly import _top_zero, recurrence_coeffs

    if k == 0:
        return -1.0
    rc = recurrence_coeffs(spec, basis, k - 1)
    return _top_zero(rc.b[:k], rc.a[: k - 1])


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DelboundError as exc:
        return type(exc).__name__, str(exc)


def _probe_points(spec):
    """Every node (or a 0.05 grid on a sphere), and every window edge of the
    three systems shifted by half and by all of the tie tolerance either
    way (the latter land exactly on the tie bounds)."""
    from delbound.constructions import _WINDOW_TIE_TOL as tol
    from delbound.spaces import max_degree

    if spec.discrete:
        points = list(spec.nodes)
    else:
        points = [i / 20 for i in range(-20, 20)]
    for basis in Variant:
        cap = max_degree(spec, basis)
        for k in range(1, min(cap if cap is not None else 12, 130) + 1):
            x = _direct_zero(spec, basis, k)
            points += [x - tol, x - 0.5 * tol, x + 0.5 * tol, x + tol]
    return [s for s in points if -1.0 <= s < 1.0]


_WINDOW_SPACES = ["hamming:16", "hamming:33", "hamming:64", "hamming:100",
                  "hamming:256", "sphere:4", "sphere:8", "sphere:24"]


def _space(label):
    kind, size = label.split(":")
    return (hamming_space if kind == "hamming" else sphere_space)(int(size))


@pytest.mark.parametrize("label", _WINDOW_SPACES)
def test_lev_window_parity_selection(label):
    """The selected window actually contains s, with the odd/even bracket
    conventions (odd closed, even open)."""
    spec = _space(label)
    from delbound.orthopoly import largest_zero as lz

    for s in _probe_points(spec):
        try:
            k, parity = lev_degree_select(spec, s)
        except DegreeBudgetError:
            continue
        if parity == "odd":
            lo = lz(spec, Variant.PLUSMINUS, k) if k > 0 else -1.0
            hi = lz(spec, Variant.MINUS, k + 1)
            assert lo - 1e-9 <= s <= hi + 1e-9
        else:
            lo = lz(spec, Variant.MINUS, k + 1)
            hi = lz(spec, Variant.PLUSMINUS, k + 1)
            assert lo - 1e-9 < s < hi + 1e-9


@pytest.mark.parametrize("label", _WINDOW_SPACES)
def test_window_lookups_match_direct_zeros(label):
    """The window searches give the same degree, or the same refusal, as a
    scan from degree 0 over the largest zeros, at every node or grid point
    and every window edge shifted by the tie tolerance."""
    from delbound.constructions import _base_window_index

    spec = _space(label)
    points = _probe_points(spec)

    def lookups(base, lev):
        return [(_outcome(base, spec, s), _outcome(lev, spec, s)) for s in points]

    assert lookups(_base_window_index, lev_degree_select) \
        == lookups(_reference_base_window, _reference_lev_window)


@pytest.mark.parametrize("label", _WINDOW_SPACES)
def test_largest_zero_table_strictly_increasing(label):
    """As filled by largest_zero degree by degree, as far as the window
    searches reach for every node but x = 1 (or every grid point): to the
    first zero at or above the last of them less the tie tolerance. The
    cache holds one entry per degree read, the zeros strictly increase by
    degree, and each is bit for bit what a fresh search gives."""
    from delbound.constructions import _WINDOW_TIE_TOL as tol
    from delbound.spaces import max_degree

    spec = _space(label)
    points = spec.nodes if spec.discrete else [i / 20 for i in range(-20, 20)]
    largest_zero.cache_clear()
    for basis in Variant:
        held = largest_zero.cache_info().currsize
        cap = max_degree(spec, basis)
        k = 1
        while largest_zero(spec, basis, k) < max(points[1:]) - tol and k != cap:
            k += 1
        assert largest_zero.cache_info().currsize == held + k
        x = np.array([largest_zero(spec, basis, j) for j in range(k + 1)])
        assert np.all(np.diff(x) > 0.0), (label, basis)
        assert all(x[j] == _direct_zero(spec, basis, j) for j in range(k + 1))
    largest_zero.cache_clear()


def test_cold_largest_zero_computes_one_degree():
    """A cold lookup computes its one degree; and at hamming:1024, for every
    basis, a sequential fill to degree 512 and cold single-degree lookups
    give the same values bit for bit: no search reads the degrees filled
    before it."""
    spec = hamming_space(300)
    largest_zero.cache_clear()
    assert largest_zero(spec, Variant.BASE, 250) == _direct_zero(spec, Variant.BASE, 250)
    info = largest_zero.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    spec = hamming_space(1024)
    sampled = list(range(1, 513, 27)) + [512]
    for basis in Variant:
        largest_zero.cache_clear()
        filled = [largest_zero(spec, basis, k) for k in range(513)]
        assert np.all(np.diff(filled) > 0.0), basis
        for k in sampled:
            largest_zero.cache_clear()
            assert largest_zero(spec, basis, k) == filled[k], (basis, k)
            info = largest_zero.cache_info()
            assert (info.misses, info.currsize) == (1, 1), (basis, k)
    largest_zero.cache_clear()


@pytest.mark.parametrize("method", ["mrrw", "spectral"])
def test_explicit_degree_past_search_cap_on_sphere(method):
    """An explicit k above the window search's cap still gets its bound and
    closed form when s lies in the window of k."""
    from delbound.constructions import _LEV_DEGREE_CAP

    spec = sphere_space(3)
    k = _LEV_DEGREE_CAP + 12
    s = 0.5 * (largest_zero(spec, Variant.BASE, k) + largest_zero(spec, Variant.BASE, k + 1))
    res = bound_for_s(spec, s, method, k=k)
    assert res.certificate.passed and res.degree == 2 * k + 1
    assert res.closed_form == pytest.approx(mrrw_bound_closed(spec, k, s), rel=0)
    assert res.bound == pytest.approx(res.closed_form, rel=1e-6)


def test_custom_space_refuses_past_its_coefficients():
    """On a custom space given sphere:8's first 12 coefficient pairs, s up to
    0.7 still certifies, matching sphere:8 to 1e-9, while at 0.8 and 0.9 each
    method refuses on its degree budget: no Levenshtein window, or a
    polynomial that needs a Gauss rule of more than 12 points."""
    from delbound import custom_space

    sphere = sphere_space(8)
    base = recurrence_coeffs(sphere, Variant.BASE, 11)
    spec = custom_space(base.a, base.b)
    for method in ("lev", "mrrw", "spectral"):
        got = bound_for_s(spec, 0.7, method)
        assert got.bound == pytest.approx(bound_for_s(sphere, 0.7, method).bound, rel=1e-9)
        for s in (0.8, 0.9):
            with pytest.raises(DegreeBudgetError, match="degree budget exceeded"):
                bound_for_s(spec, s, method)


def test_custom_space_given_sphere_pairs_gives_the_sphere_bounds_bit_for_bit(clear_caches):
    """From cleared caches, a custom space given sphere:24's first 40 base
    pairs, whose adjacent systems only the Christoffel step builds, gives
    sphere:24's mrrw, lev and spectral bounds, degrees and fhat at s =
    0.1, 0.3, 0.5 and 0.7 bit for bit, with no RuntimeWarning."""
    from delbound import custom_space

    sphere = sphere_space(24)
    base = recurrence_coeffs(sphere, Variant.BASE, 39)
    spec = custom_space(base.a, base.b)
    clear_caches()
    for method in ("mrrw", "lev", "spectral"):
        for s in (0.1, 0.3, 0.5, 0.7):
            got, ref = bound_for_s(spec, s, method), bound_for_s(sphere, s, method)
            assert (got.bound, got.degree, got.certificate.fhat) == (
                ref.bound, ref.degree, ref.certificate.fhat), (method, s)


def test_custom_space_refuses_on_its_last_zero():
    """On a custom space given sphere:8's first 3 coefficient pairs, s on
    or just under its last available zero x_2 lies on a window edge, and
    mrrw and spectral refuse it as outside every window: telling whether
    x_2 > s + tol needs no zero past x_2. The closed form of k = 2 refuses
    those s as outside its window: J_2, which the 3 pairs determine, gives
    x_3. Inside that window, at s = 0.36, it is sphere:8's closed form."""
    from delbound import custom_space
    from delbound.constructions import _WINDOW_TIE_TOL as tol

    sphere = sphere_space(8)
    base = recurrence_coeffs(sphere, Variant.BASE, 2)
    spec = custom_space(base.a, base.b)
    x = largest_zero(spec, Variant.BASE, 2)
    for s in (x, math.nextafter(x, -1.0), x - tol / 2, x - tol):
        for method in ("mrrw", "spectral"):
            with pytest.raises(NotCertifiedError, match="outside every open window"):
                bound_for_s(spec, s, method)
        with pytest.raises(ValidationError, match="closed-form bound needs"):
            mrrw_bound_closed(spec, 2, s)
    assert largest_zero(spec, Variant.BASE, 3) == largest_zero(sphere, Variant.BASE, 3)
    assert zeros(spec, Variant.BASE, 3).tolist() == zeros(sphere, Variant.BASE, 3).tolist()
    closed = mrrw_bound_closed(spec, 2, 0.36)
    assert closed == pytest.approx(mrrw_bound_closed(sphere, 2, 0.36), rel=1e-14)


def test_custom_space_refuses_past_its_last_zero_on_the_degree_budget():
    """On a custom space given sphere:8's first 3 coefficient pairs, s =
    0.36 lies in the window x_2 < s < x_3, which the 3 pairs determine
    (J_2 reads a_0, a_1 and b_0..b_2). Its degree-5 mrrw and spectral
    polynomials need a 6-point Gauss rule, so every method refuses on the
    degree budget, as lev does."""
    from delbound import custom_space

    base = recurrence_coeffs(sphere_space(8), Variant.BASE, 2)
    spec = custom_space(base.a, base.b)
    assert largest_zero(spec, Variant.BASE, 2) < 0.36 < zeros(sphere_space(8), Variant.BASE, 3)[-1]
    for method in ("lev", "mrrw", "spectral"):
        with pytest.raises(DegreeBudgetError, match="degree budget exceeded"):
            bound_for_s(spec, 0.36, method)


def test_bound_polynomial_is_its_coefficient_vector():
    """Past max_degree on a discrete space fhat still gives the kernel
    square exactly at every node."""
    from delbound import BoundPolynomial
    from delbound.orthopoly import eval_basis_table

    spec = hamming_space(8)
    s, k = spec.nodes[3], 5
    poly = mrrw_poly(spec, k, s)
    assert not hasattr(poly, "eval_fn")
    assert poly.degree == 11 and len(poly.fhat) == 9
    x = np.array(spec.nodes)
    kern = eval_basis_table(spec, Variant.BASE, k, s)[:, 0] @ eval_basis_table(
        spec, Variant.BASE, k, x)
    product = poly.c * (x - s) * kern * kern
    assert np.max(np.abs(poly(x) - product)) < 1e-12 * np.max(np.abs(product))
    # a plain named tuple: equal on equal spaces, unequal on others
    again = BoundPolynomial(method=poly.method, degree=poly.degree, s=poly.s, c=poly.c,
                            fhat=poly.fhat, spec=hamming_space(8), k=poly.k)
    assert again == poly and hash(again) == hash(poly)
    assert again._replace(spec=hamming_space(9)) != poly


@pytest.mark.parametrize("coeffs, s", [
    (5, 0.0), (["x"], 0.0), ([[1, 2]], 0.0),
    ([1.0, float("nan")], 0.0), ([0.5, float("inf")], 0.0),
    ([1.0, 0.5], "abc"), ([1.0, 0.5], None),
])
def test_polynomial_from_fourier_rejects_malformed(coeffs, s):
    for spec in (hamming_space(6), sphere_space(4)):
        with pytest.raises(ValidationError):
            polynomial_from_fourier(spec, coeffs, s)


def _certified_ops():
    for n in (16, 33, 64):
        spec = hamming_space(n)
        for d in range(1, n + 1):
            for method in ("mrrw", "lev", "spectral"):
                yield spec, bound_for_distance, d, method
    for dim in (4, 8):
        spec = sphere_space(dim)
        for s in np.linspace(-0.5, 0.5, 11):
            for method in ("mrrw", "lev", "spectral"):
                yield spec, bound_for_s, float(s), method


def test_emitted_certificates_reaudit_to_the_same_id():
    """A certificate's own fhat, wrapped back into a polynomial, gives the
    certificate it came from."""
    certified = 0
    for spec, entry, arg, method in _certified_ops():
        try:
            res = entry(spec, arg, method)
        except DelboundError:
            continue
        cert = res.certificate
        poly = polynomial_from_fourier(spec, cert.fhat, res.s)
        assert cone_certificate(spec, poly, res.s).certificate_id == cert.certificate_id, \
            (spec.label(), arg, method)
        certified += 1
    assert certified > 300


def test_certificate_audits_the_carried_coefficients(monkeypatch):
    """A built polynomial is expanded once, by its constructor."""
    from delbound import feasibility

    spec = hamming_space(8)
    poly = mrrw_poly(spec, 2, 0.4)

    def refuse(*args):
        raise AssertionError("expanded twice")

    monkeypatch.setattr(feasibility, "fourier_expand", refuse)
    cert = cone_certificate(spec, poly, poly.s)
    assert cert.fhat == poly.fhat and cert.passed


def test_certified_result_keeps_the_default_positivity_floor():
    """Looser tolerances cannot pass a certificate whose mean is noise, so
    no bound is read off it."""
    from delbound.constructions import _certified_result
    from delbound.feasibility import Tolerances

    spec = hamming_space(6)
    poly = polynomial_from_fourier(spec, [1e-14, 1.0], -1.0)
    loose = Tolerances(pos=0.0)
    cert = cone_certificate(spec, poly, -1.0, loose)
    assert not cert.passed and "positivity floor" in cert.reason
    with pytest.raises(NotCertifiedError, match="positivity floor") as info:
        _certified_result(spec, poly, -1.0, loose)
    assert info.value.certificate == cert
    res = _certified_result(spec, polynomial_from_fourier(spec, [0.5, 1.0], -1.0),
                            -1.0)
    assert res.bound == 2.0 and res.method == "custom"


def test_all_k_mrrw_pass_does_not_warn_on_overflow():
    """MRRW refusals let no RuntimeWarning escape: at hamming:1024 d=150
    the window kernel square overflows at the nodes, and the certificate
    refuses its non-finite fhat."""
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n, d in ((384, 20), (1024, 150)):
            with pytest.raises(NotCertifiedError):
                bound_for_distance(hamming_space(n), d, "mrrw")


def test_mrrw_refuses_where_the_slack_swamps_the_mean():
    """At hamming:100, d=27 the best MRRW degree meets the three cone
    tolerances with fhat_0 = 5.0e-12, while its negative coefficients,
    weighted by p_i(1), sum to about 131: the LP inequality then proves no
    bound, and its 1/fhat_0 = 2.0e11 is far below the Delsarte LP
    optimum there (about 7e12)."""
    spec = hamming_space(100)
    with pytest.raises(NotCertifiedError):
        bound_for_distance(spec, 27, "mrrw")
    with pytest.raises(NotCertifiedError, match="slack") as info:
        bound_for_s(spec, spec.nodes[27], "mrrw", k=90)
    assert not info.value.certificate.passed and "slack" in info.value.certificate.reason


@pytest.mark.parametrize("spec", [hamming_space(6), sphere_space(4)],
                         ids=["hamming:6", "sphere:4"])
def test_certified_result_weighs_the_slack_at_one(spec):
    """A tolerated negative coefficient counts with weight p_i(1): at
    fhat_0 = 1e-11 it outweighs the mean, so the certificate fails though
    its coefficients are within tolerance and its f is negative on the
    audit set; at fhat_0 = 0.5 it does not."""
    from delbound.constructions import _certified_result
    from delbound.orthopoly import eval_basis

    poly = polynomial_from_fourier(spec, [1e-11, 1.0, -2e-10], -1.0)
    cert = cone_certificate(spec, poly, -1.0)
    assert not cert.passed and "slack" in cert.reason and cert.max_on_audit < 0.0
    with pytest.raises(NotCertifiedError, match="slack") as info:
        _certified_result(spec, poly, -1.0)
    slack = float(str(info.value).rsplit("slack ", 1)[1].split()[0])
    assert slack == pytest.approx(2e-10 * eval_basis(spec, Variant.BASE, 2, 1.0), rel=1e-12)
    kept = polynomial_from_fourier(spec, [0.5, 1.0, -1e-10], -1.0)
    assert _certified_result(spec, kept, -1.0).bound == 2.0


def _mrrw_cases():
    for n in (33, 64):
        spec = hamming_space(n)
        for d in range(1, n + 1):
            for k in range(n):
                yield spec, k, spec.nodes[d]
    spec = hamming_space(100)
    yield spec, 90, spec.nodes[27]


def test_certificate_and_bound_read_one_verdict():
    """A certificate passes exactly when a bound is read off it, for every
    MRRW degree at every d of hamming:33 and hamming:64."""
    from delbound.constructions import _certified_result

    checked = 0
    for spec, k, s in _mrrw_cases():
        try:
            poly = mrrw_poly(spec, k, s)
        except DelboundError:
            continue
        passed = cone_certificate(spec, poly, s).passed
        try:
            _certified_result(spec, poly, s)
            bounded = True
        except NotCertifiedError:
            bounded = False
        assert passed == bounded, (spec.label(), k, s)
        checked += 1
    assert checked > 5000


def test_bound_value_refuses_where_the_slack_swamps_the_mean():
    spec = hamming_space(100)
    poly = mrrw_poly(spec, 90, spec.nodes[27])
    with pytest.raises(NotCertifiedError, match="slack") as info:
        bound_value(spec, poly)
    assert not info.value.certificate.passed


def _recurrence_squares(spec, basis, top, s):
    """fhat of c (x - s) K_k(x, s)^2 (times x + 1 in the plusminus basis)
    for k = 0..top, with p(s), f(1) and the kernel at every node read from
    fresh runs of the three-term recurrence, not from the node tables.
    Row k of a run to degree top is that of a run to degree k."""
    from delbound.orthopoly import discrete_basis_table, eval_basis_table
    from delbound.spaces import max_degree, node_weights

    x, w = node_weights(spec, Variant.BASE)
    ps = eval_basis_table(spec, basis, top, s)[:, 0]
    at_x = eval_basis_table(spec, basis, top, x)
    at_one = eval_basis_table(spec, basis, top, np.array([1.0]))
    base = discrete_basis_table(spec, Variant.BASE)
    extra = basis is Variant.PLUSMINUS
    out = []
    for k in range(top + 1):
        def product(t, table):
            kern = ps[: k + 1] @ table[: k + 1]
            return ((t - s) * (t + 1.0) if extra else t - s) * kern * kern

        c = 1.0 / float(product(np.array([1.0]), at_one)[0])
        kept = min(2 * k + 1 + extra, max_degree(spec, Variant.BASE))
        out.append(base[: kept + 1] @ (w * (c * product(x, at_x))))
    return out


_BUILDS = {Variant.BASE: mrrw_poly, Variant.MINUS: lev_odd_poly,
           Variant.PLUSMINUS: lev_even_poly}


@pytest.mark.parametrize("n", [33, 64, 256])
def test_node_table_builds_match_the_recurrence(n):
    """At every node s and every kernel degree k up to the window of s, the
    build read from the node tables gives the product form's fhat within
    1e-12 of its largest entry, and a certificate with the same verdict.
    On hamming:256 the certificates are compared on every fourth degree."""
    from delbound.constructions import _base_window_index

    spec = hamming_space(n)
    for s in spec.nodes[1:]:
        try:
            lev_top = lev_degree_select(spec, s)[0]
        except DegreeBudgetError:
            lev_top = None
        base_top = _base_window_index(spec, s)
        for basis, build in _BUILDS.items():
            top = base_top if basis is Variant.BASE else lev_top
            refs = _recurrence_squares(spec, basis, top if top is not None else 0, s)
            for k, ref in enumerate(refs):
                poly = build(spec, k, s)
                fhat = np.array(poly.fhat)
                assert np.max(np.abs(fhat - ref)) <= 1e-12 * np.max(np.abs(ref)), \
                    (n, s, basis, k)
                if n < 256 or k % 4 == 0:
                    ref_poly = polynomial_from_fourier(spec, ref, s)
                    assert (cone_certificate(spec, poly, s).verdict
                            == cone_certificate(spec, ref_poly, s).verdict), (n, s, basis, k)


@pytest.mark.parametrize("method", ["lev", "spectral"])
def test_distance_bounds_read_the_node_tables(method, monkeypatch):
    """Once the tables are built, a lev or spectral bound at a distance
    runs the recurrence at no full set of n + 1 nodes."""
    import sys

    from delbound import orthopoly

    n = 100
    spec = hamming_space(n)
    for d in range(1, n + 1):
        _outcome(bound_for_distance, spec, d, method)
    original = orthopoly.eval_basis_table
    sizes = []

    def counted(spec_, basis, deg, x):
        sizes.append(np.size(x))
        return original(spec_, basis, deg, x)

    for name, module in list(sys.modules.items()):
        if name.startswith("delbound") and getattr(module, "eval_basis_table", None) is original:
            monkeypatch.setattr(module, "eval_basis_table", counted)
    outcomes = [_outcome(bound_for_distance, spec, d, method) for d in range(1, n + 1)]
    assert sum(isinstance(o, BoundResult) for o in outcomes) > 10
    assert n + 1 not in sizes


_BISECT_SPACES = ["hamming:33", "hamming:64", "hamming:100", "hamming:256",
                  "sphere:4", "sphere:24"]


def _reference_base_window(spec, s):
    """The base window of s by a scan from degree 0 over the largest zeros:
    the first k with s <= x_{k+1} + tol, or None on an edge or past them."""
    from delbound.constructions import _LEV_DEGREE_CAP
    from delbound.constructions import _WINDOW_TIE_TOL as tol
    from delbound.spaces import max_degree

    cap = max_degree(spec, Variant.BASE)
    top = cap - 1 if cap is not None else _LEV_DEGREE_CAP
    for k in range(top + 1):
        lo = largest_zero(spec, Variant.BASE, k)
        hi = largest_zero(spec, Variant.BASE, k + 1)
        if s <= lo + tol:
            return None
        if s < hi - tol:
            return k
        if s <= hi + tol:
            return None
    return None


def _reference_lev_window(spec, s):
    """The Levenshtein window of s by a scan from degree 0: odd k on
    [x_k^+- - tol, x_{k+1}^- + tol], else even k on the open gap up to
    x_{k+1}^+- - tol."""
    from delbound.constructions import _LEV_DEGREE_CAP
    from delbound.constructions import _WINDOW_TIE_TOL as tol
    from delbound.spaces import max_degree

    if s >= 1.0:
        raise ValidationError("lev_degree_select needs s < 1")
    cap_minus = max_degree(spec, Variant.MINUS)
    cap_pm = max_degree(spec, Variant.PLUSMINUS)
    k_top = _LEV_DEGREE_CAP if cap_minus is None else cap_minus - 1
    for k in range(k_top + 1):
        left = largest_zero(spec, Variant.PLUSMINUS, k) if (
            cap_pm is None or k <= cap_pm) else None
        right = largest_zero(spec, Variant.MINUS, k + 1)
        if (left is None or left - tol <= s) and s <= right + tol:
            return k, "odd"
        if (cap_pm is None or k + 1 <= cap_pm) and \
                right + tol < s < largest_zero(spec, Variant.PLUSMINUS, k + 1) - tol:
            return k, "even"
    raise DegreeBudgetError(
        "degree budget exceeded: no Levenshtein window of %s reaches s=%r"
        % (spec.label(), s)
    )


@pytest.mark.parametrize("label", _BISECT_SPACES)
def test_bisected_window_scans_match_full_scans(label):
    """The bisected window lookups give the degree, or the refusal, of a
    scan from degree 0, at every node or on a 41-point s-grid, with the
    table of largest zeros cold or warm."""
    from delbound.constructions import _base_window_index

    spec = _space(label)
    points = list(spec.nodes) if spec.discrete else [i / 20 for i in range(-20, 21)]

    def lookups(base, lev):
        return [(_outcome(base, spec, s), _outcome(lev, spec, s)) for s in points]

    largest_zero.cache_clear()
    cold = lookups(_base_window_index, lev_degree_select)
    warm = lookups(_base_window_index, lev_degree_select)
    full = lookups(_reference_base_window, _reference_lev_window)
    assert cold == warm == full
    largest_zero.cache_clear()


@pytest.mark.parametrize("label", _WINDOW_SPACES + ["hamming:1024"])
def test_zeros_below_counts_the_direct_zeros(label):
    """_zeros_below(t, top) is the number of largest zeros x_0 = -1, x_1,
    ..., x_top from fresh searches that lie below t, and with half the top
    the same count capped at half + 1, at every x_m, at the doubles either
    side of it and at every probe point, for each system up to degree 130
    (12 on a sphere)."""
    from delbound.orthopoly import _zeros_below
    from delbound.spaces import max_degree

    spec = _space(label)
    points = _probe_points(spec)
    for basis in Variant:
        cap = max_degree(spec, basis)
        top = min(cap if cap is not None else 12, 130)
        xs = [_direct_zero(spec, basis, m) for m in range(top + 1)]
        edges = [math.nextafter(x, d) for x in xs for d in (-math.inf, math.inf)]
        for t in points + xs + edges:
            below = sum(x < t for x in xs)
            assert _zeros_below(spec, basis, t, top) == below, (basis, t)
            assert _zeros_below(spec, basis, t, top // 2) == min(below, top // 2 + 1), (basis, t)


def test_lev_window_refuses_a_nan_threshold():
    """No window holds a NaN s: lev_degree_select refuses it as it refuses
    s >= 1, where a Sturm count, which no NaN clears, would read the even
    window of degree -1."""
    for s in (math.nan, 1.0):
        with pytest.raises(ValidationError, match="needs s < 1"):
            lev_degree_select(hamming_space(16), s)


def test_bound_paths_compute_no_largest_zero(monkeypatch, clear_caches):
    """The hamming:64 and hamming:1024 table sweeps, every method on an
    s-grid of sphere:24 and sphere:100, and the 25-point grid of the
    sphere:200 table (s from -0.5 to 0.7) give the same bounds, degrees,
    closed forms, certificate ids and refusals from cleared caches when
    computing a largest zero raises: every window is read off Sturm
    counts, with no zero computed."""
    from delbound import orthopoly

    methods = ("mrrw", "lev", "spectral")
    h64, h1024 = hamming_space(64), hamming_space(1024)
    cases = [(bound_for_distance, h64, d, m) for d in range(1, 65) for m in methods]
    cases += [(bound_for_distance, h1024, d, m) for d in range(1, 1025) for m in methods]
    cases += [(bound_for_s, sphere_space(dim), i / 20, m)
              for dim in (24, 100) for i in range(-19, 20) for m in methods]
    cases += [(bound_for_s, sphere_space(200), float(s), m)
              for s in np.linspace(-0.5, 0.7, 25) for m in methods]

    def fingerprint(fn, *args):
        try:
            res = fn(*args)
        except DelboundError as exc:
            return type(exc).__name__, str(exc)
        return res.bound, res.degree, res.closed_form, res.certificate.certificate_id

    def refuse(*args, **kwargs):
        raise AssertionError("a largest zero was computed on a bound path")

    before = [fingerprint(*case) for case in cases]
    assert sum(len(b) == 2 for b in before) > 10
    assert sum(len(b) == 4 and b[2] is not None for b in before) > 50
    monkeypatch.setattr(orthopoly, "_top_zero", refuse)
    clear_caches()
    assert [fingerprint(*case) for case in cases] == before


def test_largest_zero_keeps_no_spectrum():
    """largest_zero keeps only its search's value, bit for bit what a fresh
    search gives, and within 1e-13 of the top of zeros()."""
    spec = hamming_space(64)
    largest_zero.cache_clear()
    values = [largest_zero(spec, basis, k) for basis in Variant for k in range(1, 40)]
    assert values == [_direct_zero(spec, basis, k) for basis in Variant for k in range(1, 40)]
    tops = [float(zeros(spec, basis, k)[-1]) for basis in Variant for k in range(1, 40)]
    assert np.max(np.abs(np.subtract(values, tops))) < 1e-13
    largest_zero.cache_clear()


def test_classical_baselines_are_cached():
    assert classical_baselines(256, 51) is classical_baselines(256, 51)


@pytest.mark.parametrize("n, d_min", [(31, 1), (53, 28)])
def test_distance_bounds_never_undercut_the_delsarte_lp(n, d_min):
    """A certified polynomial is feasible for the dual of the Delsarte LP,
    so its bound is at least the LP optimum, up to the float rounding of
    1/fhat_0."""
    from fractions import Fraction

    from delbound.lp_oracle import _solve

    spec = hamming_space(n)
    for d in range(d_min, n + 1):
        status, optimum, _ = _solve(n, d)
        assert status == "optimal", (n, d)
        for method in ("mrrw", "lev", "spectral"):
            try:
                res = bound_for_distance(spec, d, method)
            except (NotCertifiedError, DegreeBudgetError):
                continue
            assert Fraction(res.bound) >= optimum * (1 - Fraction(1, 10 ** 12)), \
                (n, d, method, res.degree, res.bound, float(optimum))


_SPHERE_GRID = [i / 10 for i in range(-5, 6)]


def _sphere_fingerprint(out):
    """What a bound reports, field for field: the fields the benchmark
    compares between a cold and a warm pass."""
    if not isinstance(out, BoundResult):
        return out
    cert = out.certificate
    return (out.method, out.s, out.degree, out.bound, out.d, out.closed_form,
            cert.verdict, cert.fhat, cert.max_on_audit, cert.min_coeff_value,
            cert.audit_size)


def _fresh_sphere_fhat(spec, res):
    """fhat of a sphere bound's kernel square from fresh recurrence runs:
    v from p(s), p(1) and p(-1) (the Levenshtein vectors) or the spectral
    eigenvector found from the library's start s, the rows at x = 1, and
    the base rows at the nodes of quadrature(spec, BASE, degree + 1), in
    the operation order of the library's build."""
    from delbound import spectral
    from delbound.orthopoly import eval_basis_table
    from delbound.spaces import quadrature

    extra = res.method == "lev_even"
    k = (res.degree - 1 - extra) // 2
    s = res.s

    def at(x, deg=k):
        return eval_basis_table(spec, Variant.BASE, deg, x)[:, 0]

    if res.method == "spectral":
        v = spectral.top_eigenpair(spectral.build_Tk(spec, Variant.BASE, k, s), start=s).vector
    elif res.method == "mrrw":
        v = at(s)
    else:
        at_s, one, neg = at(s, k + 1), at(1.0, k + 1), at(-1.0, k + 1)
        ps, po, pm = at_s.item(k + 1), one.item(k + 1), neg.item(k + 1)
        if not extra:
            v = at_s[: k + 1] - (ps / po) * one[: k + 1]
        else:
            a = recurrence_coeffs(spec, Variant.BASE, k).a[k]
            to_one, to_neg = -0.5 * ps * (1.0 + s) / po, -0.5 * ps * (1.0 - s) / pm
            corner = at_s.item(k) + to_one * one.item(k) + to_neg * neg.item(k)
            q = 0.5 * a * corner / (1.0 - 0.5 * a * (one.item(k) / po - neg.item(k) / pm))
            v = (at_s[: k + 1] + (to_one + q / po) * one[: k + 1]
                 + (to_neg - q / pm) * neg[: k + 1])

    def product(t, table):
        kern = v @ table
        return ((t - s) * (t + 1.0) if extra else t - s) * kern * kern

    c = 1.0 / float(product(1.0, at(1.0)))
    x, w = quadrature(spec, Variant.BASE, res.degree + 1)
    on_rule = c * product(x, eval_basis_table(spec, Variant.BASE, k, x))
    return eval_basis_table(spec, Variant.BASE, res.degree, x) @ (w * on_rule)


@pytest.mark.parametrize("dim", [4, 24, 100])
def test_sphere_table_caches_are_transparent(clear_caches, dim):
    """Built from cleared caches, every sphere bound of an s-grid equals
    its warm rebuild field for field, and its fhat is bit for bit the one
    fresh recurrence runs give."""
    spec = sphere_space(dim)
    cases = [(s, method) for s in _SPHERE_GRID for method in ("mrrw", "lev", "spectral")]
    clear_caches()
    cold = [_outcome(bound_for_s, spec, s, method) for s, method in cases]
    warm = [_outcome(bound_for_s, spec, s, method) for s, method in cases]
    assert [_sphere_fingerprint(r) for r in cold] == [_sphere_fingerprint(r) for r in warm]
    certified = [r for r in cold if isinstance(r, BoundResult)]
    assert len(certified) >= 20
    for res in certified:
        assert res.certificate.fhat == tuple(_fresh_sphere_fhat(spec, res).tolist()), \
            (dim, res.s, res.method)


def test_warm_sphere_bounds_run_the_recurrence_only_at_s_and_the_audit(monkeypatch):
    """Once the tables are built, a repeated sphere bound evaluates the
    basis only at the points its certificate audits and once at s: the
    mrrw and spectral closed forms read p(s) from the run that built the
    polynomial or the operator."""
    import sys

    from delbound import orthopoly

    spec = sphere_space(24)
    cases = [(s, method) for s in _SPHERE_GRID for method in ("mrrw", "lev", "spectral")]
    for s, method in cases:
        _outcome(bound_for_s, spec, s, method)
    original = orthopoly.eval_basis_table
    calls = []

    def counted(spec_, basis, deg, x):
        calls.append(np.atleast_1d(np.asarray(x, dtype=float)))
        return original(spec_, basis, deg, x)

    for name, module in list(sys.modules.items()):
        if name.startswith("delbound") and getattr(module, "eval_basis_table", None) is original:
            monkeypatch.setattr(module, "eval_basis_table", counted)
    for s, method in cases:
        calls.clear()
        try:
            cert = bound_for_s(spec, s, method).certificate
        except NotCertifiedError as exc:
            cert = exc.certificate
        if cert is None:
            # refused on a window edge, before any build
            assert not calls, (s, method)
            continue
        audits = [x for x in calls if x.size == cert.audit_size and x[0] == -1.0 and x[1] == s]
        assert len(audits) == 1, (s, method)
        at_s = [x for x in calls if x is not audits[0]]
        assert len(at_s) == 1 and at_s[0].size == 1 and at_s[0][0] == s, (s, method)


@pytest.mark.parametrize("method", ["mrrw", "spectral", "lev"])
def test_cold_sphere_bound_runs_the_base_recurrence_once_at_its_rule(monkeypatch, clear_caches,
                                                                    method):
    """From cleared caches a sphere bound runs the base recurrence at the
    nodes of its (degree + 1)-point Gauss rule once, in the rule itself:
    the expansion rows and the kernel rows are slices of the table the
    weights were read from. No method runs an adjacent system there, lev
    included: it is built in the base system."""
    import sys

    from delbound import orthopoly
    from delbound.spaces import quadrature

    spec = sphere_space(24)
    clear_caches()
    original = orthopoly.eval_basis_table
    calls = []

    def counted(spec_, basis, deg, x):
        calls.append((basis, np.atleast_1d(np.asarray(x, dtype=float))))
        return original(spec_, basis, deg, x)

    for name, module in list(sys.modules.items()):
        if name.startswith("delbound") and getattr(module, "eval_basis_table", None) is original:
            monkeypatch.setattr(module, "eval_basis_table", counted)
    res = bound_for_s(spec, 0.3, method)
    nodes, _ = quadrature(spec, Variant.BASE, res.degree + 1)
    at_rule = [basis.value for basis, x in calls if np.array_equal(x, nodes)]
    assert at_rule == ["base"], res.method


@pytest.mark.parametrize("label", ["sphere:3", "sphere:24", "sphere:100", "custom:8:30"])
def test_continuous_fhat_is_the_fourier_expansion_of_its_product_form(label):
    """On a continuous space each kernel square is expanded in place on the
    (degree + 1)-point Gauss rule; its fhat matches fourier_expand of the
    product form c (x - s)(x + 1)^e (v . p(x))^2 in the base system, with
    c = 1/f(1), to 1e-14 of max |fhat|. v is p(s) for mrrw, p_{k+1}(1) p(s)
    - p_{k+1}(s) p(1) for lev_odd and the solution of G v = p(s) for
    lev_even, G = I - J_k^2 - a_k^2 e_k e_k^T. A wrong rule or point count
    is off by 1e-2 of it or more."""
    from delbound import custom_space, fourier_expand, jacobi_matrix
    from delbound.orthopoly import eval_basis_table

    if label.startswith("custom"):
        base = recurrence_coeffs(sphere_space(8), Variant.BASE, 29)
        spec = custom_space(base.a, base.b)
    else:
        spec = sphere_space(int(label.split(":")[1]))

    def vector(build, k, s):
        at_s = eval_basis_table(spec, Variant.BASE, k + 1, s)[:, 0]
        one = eval_basis_table(spec, Variant.BASE, k + 1, 1.0)[:, 0]
        if build is mrrw_poly:
            return at_s[: k + 1]
        if build is lev_odd_poly:
            return one[k + 1] * at_s[: k + 1] - at_s[k + 1] * one[: k + 1]
        jac = jacobi_matrix(spec, Variant.BASE, k).matrix()
        gram = np.eye(k + 1) - jac @ jac
        gram[k, k] -= recurrence_coeffs(spec, Variant.BASE, k).a[k] ** 2
        return np.linalg.solve(gram, at_s[: k + 1])

    for build, e in ((mrrw_poly, 0), (lev_odd_poly, 0), (lev_even_poly, 1)):
        for k, s in ((0, -0.3), (2, 0.1), (5, 0.45), (9, 0.7)):
            poly = build(spec, k, s)
            v = vector(build, k, s)

            def f(x):
                kern = v @ eval_basis_table(spec, Variant.BASE, k, x)
                return (x - s) * (x + 1.0) ** e * kern * kern

            ref = fourier_expand(spec, f, poly.degree) / f(np.array([1.0]))[0]
            fhat = np.array(poly.fhat)
            assert fhat.shape == ref.shape
            err = np.max(np.abs(fhat - ref)) / np.max(np.abs(fhat))
            assert err < 1e-14, (label, build.__name__, k, s, err)


# (bound, degree, certificate id) of certified results, recorded with
# numpy 2.4: the id hashes every bit of fhat, so a change that moves one
# bit of a coefficient, or the verdict, fails here
_PINNED = {
    ("hamming:64", 14, "mrrw"): (328477547262.7948, 19, "efa7b5ff6f93"),
    ("hamming:64", 14, "lev"): (255748326022.30457, 20, "4db37b9d6d5f"),
    ("hamming:64", 14, "spectral"): (328477547262.7948, 19, "3f48824e7068"),
    ("hamming:64", 20, "mrrw"): (54464779.05189002, 11, "56510512c7d3"),
    ("hamming:64", 20, "lev"): (46897522.47716345, 11, "0f76d1e09f49"),
    ("hamming:64", 20, "spectral"): (54464779.05189006, 11, "d5026ce6454e"),
    ("hamming:64", 33, "mrrw"): (33.00000000000001, 1, "c9285883079c"),
    ("hamming:64", 33, "lev"): (33.00000000000001, 1, "c9285883079c"),
    ("hamming:64", 33, "spectral"): (33.00000000000001, 1, "c9285883079c"),
    ("hamming:384", 162, "mrrw"): (706149318202.2792, 11, "a4e01bb65fda"),
    ("hamming:384", 162, "lev"): (683811611147.55, 11, "cea5ff6f2936"),
    ("hamming:384", 162, "spectral"): (706149318202.2793, 11, "48000a520c97"),
    ("hamming:384", 175, "mrrw"): (136402264.25714836, 7, "388ae8819bdc"),
    ("hamming:384", 175, "lev"): (20532983.374801796, 7, "5ac32d41787c"),
    ("hamming:384", 175, "spectral"): (136402264.25714713, 7, "3b60a214bcf5"),
    ("hamming:384", 200, "mrrw"): (25.000000000000004, 1, "999fa03c0fef"),
    ("hamming:384", 200, "lev"): (25.000000000000007, 1, "2ba96fb071c3"),
    ("hamming:384", 200, "spectral"): (25.000000000000004, 1, "999fa03c0fef"),
    ("sphere:24", 0.5, "mrrw"): (290974.2105263088, 9, "e69ba175e97e"),
    ("sphere:24", 0.5, "lev"): (196559.99999999956, 11, "bae2ca43d3b4"),
    ("sphere:24", 0.5, "spectral"): (290974.2105263087, 9, "b0924717e93d"),
}


# the lev bounds of _PINNED as the products of the adjacent kernels
# K^-_k(x, s) and K^+-_k(x, s) gave them, built over the minus and
# plusminus node or Gauss tables; the base-system builds stay within
# 1e-12 of them
_ADJACENT_LEV = {
    ("hamming:64", 14, "lev"): 255748326022.30426,
    ("hamming:64", 20, "lev"): 46897522.47716349,
    ("hamming:64", 33, "lev"): 33.00000000000001,
    ("hamming:384", 162, "lev"): 683811611147.5503,
    ("hamming:384", 175, "lev"): 20532983.37480182,
    ("hamming:384", 200, "lev"): 25.000000000000004,
    ("sphere:24", 0.5, "lev"): 196559.99999999953,
}


@pytest.mark.parametrize("key", sorted(_PINNED, key=str), ids=lambda k: "%s/%s/%s" % k)
def test_certified_results_are_pinned_to_the_bit(key):
    space, at, method = key
    kind, size = space.split(":")
    if kind == "hamming":
        res = bound_for_distance(hamming_space(int(size)), at, method)
    else:
        res = bound_for_s(sphere_space(int(size)), at, method)
    assert (res.bound, res.degree, res.certificate.certificate_id) == _PINNED[key]
    if method == "lev":
        assert res.bound == pytest.approx(_ADJACENT_LEV[key], rel=1e-12, abs=0)


def _adjacent_kernel_square(spec, k, s, parity):
    """fhat of c (x - s)(x + 1)^e K_k(x, s)^2 over the minus kernel (odd,
    e = 0) or the plusminus one (even, e = 1), from fresh runs of the
    adjacent recurrence: the Levenshtein polynomials as built over the
    adjacent systems, kept as the reference of the base-system builds."""
    from delbound import fourier_expand
    from delbound.orthopoly import eval_basis_table
    from delbound.spaces import max_degree

    basis = Variant.MINUS if parity == "odd" else Variant.PLUSMINUS
    e = parity == "even"
    at_s = eval_basis_table(spec, basis, k, s)[:, 0]

    def f(x):
        x = np.asarray(x, dtype=float)
        kern = at_s @ eval_basis_table(spec, basis, k, x)
        return (x - s) * (x + 1.0) ** e * kern * kern

    degree = 2 * k + 1 + e
    cap = max_degree(spec, Variant.BASE)
    return fourier_expand(spec, f, degree if cap is None else min(degree, cap)) / f(1.0)


_LEV_BUILDS = {"odd": lev_odd_poly, "even": lev_even_poly}


def test_lev_builds_match_the_adjacent_kernel_squares():
    """Over every node of hamming:16/33/64/128 and a 19-point s-grid on
    sphere:3/4/8/24/50 that a Levenshtein window holds (334 cases, both
    parities), the base-system build at the window's degree has the fhat
    of the adjacent-kernel square within 1e-12 of its largest entry, and
    every certified lev bound is 1/fhat_0 of that square within 1e-12."""
    cases = [(hamming_space(n), s) for n in (16, 33, 64, 128) for s in hamming_space(n).nodes[1:]]
    cases += [(sphere_space(d), i / 10) for d in (3, 4, 8, 24, 50) for i in range(-9, 10)]
    compared = certified = 0
    for spec, s in cases:
        try:
            k, parity = lev_degree_select(spec, s)
        except DegreeBudgetError:
            continue
        ref = _adjacent_kernel_square(spec, k, s, parity)
        fhat = np.array(_LEV_BUILDS[parity](spec, k, s).fhat)
        assert np.max(np.abs(fhat - ref)) <= 1e-12 * np.max(np.abs(ref)), (spec.label(), s)
        compared += 1
        try:
            res = bound_for_s(spec, s, "lev")
        except NotCertifiedError:
            continue
        assert res.bound == pytest.approx(1.0 / ref[0], rel=1e-12, abs=0), (spec.label(), s)
        certified += 1
    assert compared >= 332 and certified >= 250


@pytest.mark.parametrize("label, s, on_a_zero", [
    ("hamming:64", 0.125, False),   # d = 28, s = x_2 inside the odd window of k = 2
    ("hamming:64", 0.0, True),      # p_{k+1}(s) = 0 for every even k
    ("hamming:256", 0.0625, True),  # d = 120
    ("hamming:64", -1.0, False),
    ("sphere:24", -1.0, False),
])
def test_lev_builds_at_edge_nodes_match_the_adjacent_kernel_squares(label, s, on_a_zero):
    """At the node d = 28 of hamming:64, where the leading 2 x 2 block of
    s - J_3 is singular, at nodes where p_{k+1}(s) vanishes (on_a_zero:
    some p_{k+1}(s) is exactly 0.0 there), and at s = -1, where the even
    vector is a solve with the Gram matrix G, both parities at every k up
    to 12 give finite fhat within 1e-12 of the adjacent-kernel square's
    largest entry."""
    from delbound.orthopoly import eval_basis_table

    spec = _space(label)
    vanished = False
    for k in range(13):
        vanished |= eval_basis_table(spec, Variant.BASE, k + 1, s)[k + 1, 0] == 0.0
        for parity, build in _LEV_BUILDS.items():
            fhat = np.array(build(spec, k, s).fhat)
            ref = _adjacent_kernel_square(spec, k, s, parity)
            assert np.all(np.isfinite(fhat)), (label, s, k, parity)
            assert np.max(np.abs(fhat - ref)) <= 1e-12 * np.max(np.abs(ref)), (label, s, k, parity)
    assert vanished or not on_a_zero


def _phi_forms(spec, k, s, e):
    """The quadratic forms of Phi(g) = (1 - s) g(1)^2 / int (x - s)(x + 1)^e
    g^2 dmu on g = v . p, p = p_0..p_k of the base system: the Gram matrix
    of (x - s)(x + 1)^e dmu, summed on the nodes or on a Gauss rule exact
    for it, and p(1)."""
    from delbound.orthopoly import eval_basis_table
    from delbound.spaces import node_weights, quadrature

    x, w = node_weights(spec, Variant.BASE) if spec.discrete else quadrature(spec, Variant.BASE, k + 3)
    rows = eval_basis_table(spec, Variant.BASE, k, x)
    gram = (rows * (w * (x - s) * (x + 1.0) ** e)) @ rows.T
    return gram, eval_basis_table(spec, Variant.BASE, k, 1.0)[:, 0]


@pytest.mark.parametrize("label, s", [("sphere:24", 0.5), ("hamming:64", 0.5625)])
def test_lev_vectors_are_stationary_points_of_the_moment_ratio(label, s):
    """The paper's theorem on the base system: at the lev v of either
    parity, the central-difference gradient of Phi(g) = (1 - s) g(1)^2 /
    int (x - s)(x + 1)^e g^2 dmu vanishes to 1e-6 relative and its
    curvature across v is positive; at the MRRW kernel v = p(s) the
    gradient does not vanish. hamming:64 at s = 0.5625 is d = 14."""
    from delbound.constructions import _basis_at, _lev_vector

    spec = _space(label)
    k = lev_degree_select(spec, s)[0]
    rng = np.random.default_rng(5)
    for e in (0, 1):
        gram, one = _phi_forms(spec, k, s, e)

        def phi(g):
            return (1.0 - s) * (one @ g) ** 2 / (g @ gram @ g)

        def gradient(v):
            h = 1e-6 * np.linalg.norm(v)
            grad = [(phi(v + h * d) - phi(v - h * d)) / (2 * h) for d in np.eye(k + 1)]
            return np.linalg.norm(grad) * np.linalg.norm(v) / abs(phi(v))

        v = _lev_vector(spec, k, s, e)
        assert gradient(v) <= 1e-6, (label, e)
        h = 1e-4 * np.linalg.norm(v)
        for _ in range(4):
            d = rng.normal(size=k + 1)
            d -= (d @ v) / (v @ v) * v
            assert phi(v + h * d) - 2 * phi(v) + phi(v - h * d) > 0.0, (label, e)
        assert gradient(np.array(_basis_at(spec, Variant.BASE, k, s))) > 1e-2, (label, e)


def test_bound_paths_evaluate_no_adjacent_system(monkeypatch, clear_caches):
    """From cleared caches, every method at every distance of hamming:64
    and hamming:256, and on two s-grids of sphere:24 (i / 20, and the
    37-point grid of its table from -0.9 to 0.9), gives the same bounds,
    degrees, closed forms, certificate ids and refusals when evaluating
    the minus or plusminus system raises: every bound, lev included, is
    built in the base system, and the adjacent systems serve only the
    windows, through their coefficients."""
    import sys

    from delbound import orthopoly

    methods = ("mrrw", "lev", "spectral")
    s24 = sphere_space(24)
    cases = [(bound_for_distance, hamming_space(n), d, m)
             for n in (64, 256) for d in range(1, n + 1) for m in methods]
    cases += [(bound_for_s, s24, s, m)
              for s in [i / 20 for i in range(-19, 20)] + np.linspace(-0.9, 0.9, 37).tolist()
              for m in methods]

    def fingerprint(fn, *args):
        try:
            res = fn(*args)
        except DelboundError as exc:
            return type(exc).__name__, str(exc)
        return res.bound, res.degree, res.closed_form, res.certificate.certificate_id

    before = [fingerprint(*case) for case in cases]
    assert sum(len(b) == 4 for b in before) > 100
    original = orthopoly.eval_basis_table

    def base_only(spec_, basis, deg, x):
        if basis is not Variant.BASE:
            raise AssertionError("an adjacent system was evaluated on a bound path")
        return original(spec_, basis, deg, x)

    for name, module in list(sys.modules.items()):
        if name.startswith("delbound") and getattr(module, "eval_basis_table", None) is original:
            monkeypatch.setattr(module, "eval_basis_table", base_only)
    clear_caches()
    assert [fingerprint(*case) for case in cases] == before


@pytest.mark.filterwarnings("error")
def test_kernel_squares_refuse_a_threshold_out_of_range():
    """mrrw_poly, lev_odd_poly and lev_even_poly refuse an s outside
    [-1, 1), NaN and the infinities included, before p(s) is evaluated:
    no extrapolation warning and no overflowed normalization comes first.
    s = -1 is kept."""
    spec = hamming_space(8)
    for build in (mrrw_poly, lev_odd_poly, lev_even_poly):
        for s in (math.nan, math.inf, -math.inf, -2.0, math.nextafter(-1.0, -2.0), 1.0):
            with pytest.raises(ValidationError, match=r"s in \[-1, 1\)"):
                build(spec, 1, s)
    assert mrrw_poly(spec, 1, -1.0).s == -1.0
