import json

import numpy as np
import pytest

from delbound import (
    Tolerances,
    ValidationError,
    Variant,
    cone_certificate,
    fourier_expand,
    hamming_space,
    mrrw_poly,
    sphere_space,
)
from delbound.feasibility import _audit
from delbound.orthopoly import eval_basis_table


def _poly_from(spec, coeffs):
    coeffs = np.asarray(coeffs, float)

    def f(t):
        return coeffs @ eval_basis_table(spec, Variant.BASE, len(coeffs) - 1, t)

    return f


def test_fourier_expand_recovers_coefficients():
    rng = np.random.default_rng(31)
    spec = hamming_space(10)
    for _ in range(10):
        deg = int(rng.integers(1, 10))
        c = rng.normal(size=deg + 1)
        got = fourier_expand(spec, _poly_from(spec, c), deg)
        assert np.max(np.abs(np.array(got) - c)) < 1e-11


def test_fourier_expand_continuous():
    rng = np.random.default_rng(13)
    spec = sphere_space(5)
    for _ in range(6):
        deg = int(rng.integers(1, 9))
        c = rng.normal(size=deg + 1)
        got = fourier_expand(spec, _poly_from(spec, c), deg)
        assert np.max(np.abs(np.array(got) - c)) < 1e-10


def test_fourier_expand_overflow():
    spec = hamming_space(4)
    with pytest.raises(ValidationError):
        fourier_expand(spec, lambda t: np.asarray(t), 5)


def test_certificate_pass_and_identity():
    spec = hamming_space(8)
    poly = mrrw_poly(spec, 2, 0.4)
    cert = cone_certificate(spec, poly, 0.4)
    assert cert.passed and cert.verdict == "pass"
    assert cert.reason is None
    assert cert.fhat[0] > 0
    assert cert.max_on_audit <= 1e-9
    # id is the first 12 hex chars of a sha over the canonical json
    assert len(cert.certificate_id) == 12
    int(cert.certificate_id, 16)
    again = cone_certificate(spec, poly, 0.4)
    assert again.certificate_id == cert.certificate_id


def test_certificate_json_schema():
    spec = hamming_space(5)
    poly = mrrw_poly(spec, 1, 0.25)
    cert = cone_certificate(spec, poly, 0.25)
    blob = cert.to_json()
    assert blob["schema"] == 1
    text = json.dumps(blob, sort_keys=True)
    assert json.loads(text)["verdict"] == "pass"


def test_negative_coefficient_fails():
    spec = hamming_space(6)
    f = _poly_from(spec, [0.5, -0.2, 0.1])
    cert = cone_certificate(spec, f, 0.0)
    assert not cert.passed
    assert "fhat_1" in cert.reason
    assert cert.min_coeff_index == 1
    assert cert.min_coeff_value == pytest.approx(-0.2, abs=1e-12)


def test_positive_on_audit_fails():
    spec = hamming_space(6)
    # constant +1 has fine coefficients but is positive on [-1, s]
    f = _poly_from(spec, [1.0])
    cert = cone_certificate(spec, f, 0.0)
    assert not cert.passed
    assert cert.max_on_audit > 0.5
    assert cert.argmax <= 0.0
    assert "positive" in cert.reason or "exceeds" in cert.reason


def test_zero_mean_fails_with_fhat0_reason():
    spec = hamming_space(6)
    # p_1 integrates to zero against the base measure
    f = _poly_from(spec, [0.0, 1.0])
    cert = cone_certificate(spec, f, -0.5)
    assert not cert.passed
    assert "fhat_0" in cert.reason


def test_tolerances_are_honored():
    """Perturbing a certified polynomial by -1e-7 p_4 flips the verdict at
    the default coefficient tolerance but not at a loosened one."""
    spec = hamming_space(6)
    good = mrrw_poly(spec, 1, 0.2)
    coeffs = list(good.fhat) + [-1e-7]
    f = _poly_from(spec, coeffs)
    strict = cone_certificate(spec, f, 0.2)
    assert not strict.passed
    assert "fhat_4" in strict.reason
    loose = cone_certificate(spec, f, 0.2, Tolerances(coeff=1e-6, sign=1e-6))
    assert loose.passed
    assert loose.tolerances.coeff == 1e-6


def test_s_range_validation():
    spec = hamming_space(5)
    f = _poly_from(spec, [1.0, 1.0])
    with pytest.raises(ValidationError):
        cone_certificate(spec, f, 1.0)
    with pytest.raises(ValidationError):
        cone_certificate(spec, f, -1.5)


def test_continuous_audit_catches_interior_bump():
    """A polynomial that dips negative at the grid scale but pops positive
    at an interior stationary point must be rejected on the sphere."""
    spec = sphere_space(4)

    def f(t):
        t = np.asarray(t, float)
        return -((t + 0.4) ** 2) + 1e-5

    # f <= 1e-5 everywhere, positive only near the stationary point -0.4
    f.degree = 2
    cert = cone_certificate(spec, f, 0.0)
    # its mean is negative, which decides the certificate before the audit,
    # so the audit is run on its own
    assert not cert.passed and cert.reason.startswith("fhat_0")
    audit, vals = _audit(spec, np.asarray(cert.fhat), 0.0)
    arg = int(vals.argmax())
    assert vals[arg] == pytest.approx(1e-5, rel=1e-6)
    assert audit[arg] == pytest.approx(-0.4, abs=1e-6)


def test_discrete_audit_is_node_based():
    spec = hamming_space(4)
    poly = mrrw_poly(spec, 1, 0.25)
    cert = cone_certificate(spec, poly, 0.25)
    # nodes <= 0.25 for n=4 are {0, -0.5, -1}: audit size 3
    assert cert.audit_size == 3


@pytest.mark.parametrize("field", ["coeff", "pos", "sign"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), -1e-9])
def test_tolerances_reject_nonfinite_and_negative(field, value):
    with pytest.raises(ValidationError):
        Tolerances(**{field: value})


def test_tolerances_validate_on_replace_and_make():
    """namedtuple's _replace builds through _make, which would skip
    __new__; both validate as construction does."""
    with pytest.raises(ValidationError):
        Tolerances()._replace(coeff=float("nan"))
    with pytest.raises(ValidationError):
        Tolerances._make([1e-9, float("nan"), 1e-9])
    assert Tolerances()._replace(sign=1e-8) == Tolerances(sign=1e-8) == (1e-9, 1e-12, 1e-8)


def test_nan_tolerances_cannot_pass_a_failing_polynomial():
    from delbound import polynomial_from_fourier

    spec = hamming_space(8)
    poly = polynomial_from_fourier(spec, [1, -5, 0, 0], 0.0)
    assert cone_certificate(spec, poly, 0.0).verdict == "fail"
    with pytest.raises(ValidationError):
        Tolerances(coeff=float("nan"), sign=float("nan"))
    assert Tolerances(coeff=0.0, pos=0.0, sign=0.0).to_json() == \
        {"coeff": 0.0, "pos": 0.0, "sign": 0.0}


@pytest.mark.parametrize("spec", [hamming_space(6), sphere_space(4)], ids=["hamming", "sphere"])
@pytest.mark.parametrize("fhat", [(1e308, 1e308, 1e308), (1.0, float("nan")),
                                  (0.5, float("inf"))])
def test_nonfinite_values_fail_the_certificate(spec, fhat):
    """NaN compares false against every tolerance, so without an explicit
    check it would pass all three cone conditions."""
    from delbound import polynomial_from_fourier

    poly = polynomial_from_fourier(spec, [1.0] * len(fhat), 0.0)._replace(fhat=fhat)
    cert = cone_certificate(spec, poly, 0.0)
    assert cert.verdict == "fail" and "finite" in cert.reason
    # the same values from a plain callable, which is expanded first
    f = _poly_from(spec, fhat)
    f.degree = len(fhat) - 1
    with np.errstate(over="ignore", invalid="ignore"):
        assert cone_certificate(spec, f, 0.0).verdict == "fail"


def _max_on_grid(spec, fhat, s, points=100_001, chunk=20_001):
    """max f and max |f| on a uniform grid of [-1, s], in chunks."""
    grid = np.linspace(-1.0, s, points)
    top, size = -np.inf, 0.0
    for start in range(0, points, chunk):
        vals = fhat @ eval_basis_table(spec, Variant.BASE, fhat.size - 1,
                                       grid[start:start + chunk])
        top, size = max(top, vals.max()), max(size, np.abs(vals).max())
    return top, size


@pytest.mark.parametrize("dim", [4, 24, 100])
def test_root_audit_finds_the_grid_maximum(dim):
    """On every certified sphere certificate the audit at the endpoints and
    the roots of f' sees at least the maximum of f on a 100,001-point grid
    of [-1, s], up to rounding."""
    from delbound import NotCertifiedError, bound_for_s

    spec = sphere_space(dim)
    certified = 0
    for s in (-0.5, -0.2, 0.0, 0.3, 0.5):
        for method in ("mrrw", "lev", "spectral"):
            try:
                cert = bound_for_s(spec, s, method).certificate
            except NotCertifiedError:
                continue
            certified += 1
            top, size = _max_on_grid(spec, np.asarray(cert.fhat), s)
            assert cert.max_on_audit >= top - 1e-15 * size, (s, method)
    assert certified >= 10


def test_root_audit_catches_a_bump_between_grid_points():
    """A degree-21 polynomial with nonnegative coefficients that is
    positive on [-1, 0] only within 1.1e-4 of x = -0.5, the midpoint of two
    points of a 2048-point grid, is refused there."""
    spec = sphere_space(4)

    def f(t):
        t = np.asarray(t, float)
        return 1e-8 - (t + 0.5) ** 2 * (1.0 - 100.0 * t ** 19)

    f.degree = 21
    assert np.max(f(np.linspace(-1.0, 0.0, 2048))) < 0.0
    cert = cone_certificate(spec, f, 0.0)
    assert min(cert.fhat) > 0.0
    assert not cert.passed and "exceeds" in cert.reason
    assert cert.argmax == pytest.approx(-0.5, abs=1e-9)
    assert cert.max_on_audit == pytest.approx(1e-8, rel=1e-5)


@pytest.mark.parametrize("fhat", [(1e308, 1e308, 1e308), (1e308, -1e308, 1e308, 1e308),
                                  (1.0, float("nan")), (0.5, float("inf")),
                                  (1.0, 0.0, 1e308, -1e308)])
def test_root_audit_of_nonfinite_sphere_coefficients(fhat):
    """Non-finite coefficients of f' skip the eigensolve, which would
    raise LinAlgError, and the certificate fails on the endpoint values."""
    from delbound import polynomial_from_fourier

    spec = sphere_space(4)
    poly = polynomial_from_fourier(spec, [1.0] * len(fhat), 0.0)._replace(fhat=fhat)
    cert = cone_certificate(spec, poly, 0.0)
    assert cert.verdict == "fail" and "finite" in cert.reason


def test_root_audit_ignores_a_subnormal_top_coefficient():
    """A top coefficient 1e-320 would overflow the comrade matrix of f';
    the audit drops it and decides as without it."""
    from delbound import bound_for_s, polynomial_from_fourier

    spec = sphere_space(4)
    plain = bound_for_s(spec, 0.3, "mrrw").certificate
    padded = polynomial_from_fourier(spec, list(plain.fhat) + [1e-320], 0.3)
    cert = cone_certificate(spec, padded, 0.3)
    assert plain.passed and cert.passed
    assert cert.max_on_audit == pytest.approx(plain.max_on_audit, abs=1e-15)


@pytest.mark.parametrize("fhat, reason", [((0.0, 1e-10, 5e-310), "fhat_0 = 0"),
                                          ((1.0, 1e-10, 3e-310), "f(0) = 1")])
def test_root_audit_keeps_a_subnormal_top_coefficient_finite(fhat, reason):
    """A subnormal top coefficient of f' within 1e-300 of the largest is
    kept: a_{m-1} / g_m would overflow, but the last row of the comrade
    matrix is a_{m-1} (g_j / g_m), which the trim keeps finite, so the
    eigensolve runs and the certificate is decided. A zero mean decides
    the certificate before the audit, so the audit is also run on its own."""
    from delbound import polynomial_from_fourier

    spec = sphere_space(4)
    cert = cone_certificate(spec, polynomial_from_fourier(spec, fhat, 0.0), 0.0)
    assert cert.verdict == "fail" and cert.reason.startswith(reason)
    assert cert.audit_size == (3 if fhat[0] else 0)
    audit, vals = _audit(spec, np.asarray(fhat), 0.0)
    assert audit.size == 3 and np.isfinite(vals).all()


def test_certificate_id_is_pinned():
    """The id hashes schema, s, fhat, tolerances and verdict as strict
    JSON; a change to what it hashes moves this literal."""
    spec = hamming_space(8)
    cert = cone_certificate(spec, mrrw_poly(spec, 1, 0.3), 0.3)
    assert cert.certificate_id == "7ad6d40afc57"


def test_certificate_id_ignores_where_the_maximum_sits():
    """argmax, audit_size and max_on_audit follow rounding where max f = 0,
    so they do not enter the id; fhat, s, tolerances and verdict do."""
    from delbound import bound_for_s

    cert = bound_for_s(sphere_space(8), 0.3, "mrrw").certificate
    moved = cert._replace(argmax=-1.0, audit_size=cert.audit_size + 1,
                          max_on_audit=cert.max_on_audit - 1e-17, reason="noted")
    assert moved.certificate_id == cert.certificate_id
    for change in ({"s": 0.31}, {"fhat": cert.fhat[:-1] + (cert.fhat[-1] * 2,)},
                   {"verdict": "fail"}, {"tolerances": Tolerances(sign=1e-8)}):
        assert cert._replace(**change).certificate_id != cert.certificate_id, change


def test_certificate_id_hashes_strict_json():
    """A NaN in fhat is hashed as the null that strict JSON output prints."""
    import hashlib

    from delbound import polynomial_from_fourier

    spec = sphere_space(4)
    poly = polynomial_from_fourier(spec, [1.0, 1.0], 0.0)._replace(fhat=(1.0, float("nan")))
    cert = cone_certificate(spec, poly, 0.0)
    blob = cert.to_json()
    decisive = {key: blob[key] for key in ("schema", "s", "fhat", "tolerances", "verdict")}
    assert decisive["fhat"][1] != decisive["fhat"][1]
    decisive["fhat"][1] = None
    canonical = json.dumps(decisive, sort_keys=True, allow_nan=False)
    assert hashlib.sha256(canonical.encode()).hexdigest()[:12] == cert.certificate_id


def _chebyshev_rows(spec, deg):
    """Chebyshev coefficients of p_0..p_deg of the base system: the
    three-term recurrence run on Chebyshev coefficient vectors."""
    from numpy.polynomial.chebyshev import chebmulx

    from delbound.orthopoly import recurrence_coeffs

    rc = recurrence_coeffs(spec, Variant.BASE, max(deg - 1, 0))
    out = np.zeros((deg + 1, deg + 1))
    out[0, 0] = 1.0 / np.sqrt(rc.mass)
    for i in range(deg):
        row = np.zeros(deg + 1)
        xp = chebmulx(out[i, : i + 1])
        row[: xp.size] = xp
        row -= rc.b[i] * out[i] + (rc.a[i - 1] * out[i - 1] if i else 0.0)
        out[i + 1] = row / rc.a[i]
    return out


def _continuous_space(dim):
    """sphere:dim, or for "custom" a custom space with b_i != 0: the first
    60 coefficient pairs of sphere:7's minus system."""
    from delbound import custom_space
    from delbound.orthopoly import recurrence_coeffs

    if dim != "custom":
        return sphere_space(dim)
    minus = recurrence_coeffs(sphere_space(7), Variant.MINUS, 59)
    return custom_space(minus.a, minus.b)


@pytest.mark.parametrize("dim", [3, 24, 200, "custom"])
def test_derivative_table_gives_the_chebyshev_derivative(dim):
    """f' = (fhat @ D) . p, with D the cached derivative table, is within
    1e-13 of the largest |f'| of numpy's derivative of f's Chebyshev
    form at 50 points, for random fhat of degree 0 to 60; at degree 0 f'
    is the zero polynomial and at degree 1 a constant. D and the J beside
    it are read-only, and a lower degree's D, read after the degree-60
    one, is its leading block bit for bit."""
    from numpy.polynomial.chebyshev import chebder, chebval

    from delbound.feasibility import _derivative_table

    spec = _continuous_space(dim)
    x = np.linspace(-1.0, 1.0, 50)
    rng = np.random.default_rng(60)
    top, jac = _derivative_table(spec, 60)
    assert not top.flags.writeable and not jac.flags.writeable
    for deg in range(61):
        fhat = rng.standard_normal(deg + 1)
        table, _ = _derivative_table(spec, deg)
        assert table.shape == (deg + 1, deg)
        assert table.tobytes() == top[: deg + 1, :deg].tobytes(), deg
        got = (fhat @ table) @ eval_basis_table(spec, Variant.BASE, 60, x)[:deg]
        want = chebval(x, chebder(fhat @ _chebyshev_rows(spec, deg)))
        assert np.max(np.abs(got - want)) <= 1e-13 * max(np.max(np.abs(want)), 1.0), deg


def test_derivative_rows_are_the_basis_derivatives():
    """Row i of the derivative table, summed as a series in the base
    system, is p_i': within 1e-13 of numpy's derivative of p_i's
    Chebyshev form, relative to the row's largest value, at 257 points
    on every sphere:4..200 through degree 60."""
    from numpy.polynomial.chebyshev import chebder, chebval

    from delbound.feasibility import _derivative_table

    x = np.linspace(-1.0, 1.0, 257)
    worst = 0.0
    for dim in range(4, 201):
        spec = sphere_space(dim)
        got = _derivative_table(spec, 60)[0] @ eval_basis_table(spec, Variant.BASE, 59, x)
        want = chebval(x, chebder(_chebyshev_rows(spec, 60), axis=1).T)
        scale = np.max(np.abs(want), axis=1)
        scale[0] = 1.0  # p_0' = 0
        worst = max(worst, float(np.max(np.max(np.abs(got - want), axis=1) / scale)))
    assert worst < 1e-13, worst


def test_held_sphere_runs_hand_out_read_only_blocks_that_outlive_growth():
    """basis_at_end and _derivative_table hand out read-only slices and
    blocks of the cached runs of each sphere system at the depth of
    _run_depth: a slice taken before a deeper request keeps its values
    once a deeper run is built, and a shallow degree read after a deep one
    equals a build from cleared caches bit for bit. Each D is
    C-contiguous, as a fresh build is, so that fhat @ D sums in the same
    order."""
    from delbound import orthopoly
    from delbound.feasibility import _derivative_run, _derivative_table

    spec = sphere_space(9)
    caches = (orthopoly._end_run, orthopoly.basis_at_end, _derivative_run,
              _derivative_table)

    def clear():
        for cache in caches:
            cache.cache_clear()

    def reads(deg):
        return [*(orthopoly.basis_at_end(spec, basis, deg, end)
                  for basis in Variant for end in (1.0, -1.0)),
                *_derivative_table(spec, deg)]

    clear()
    shallow = reads(3)
    kept = [x.copy() for x in shallow]
    deep = reads(100)
    run = orthopoly._end_run(spec, Variant.BASE, orthopoly._run_depth(spec, Variant.BASE, 99), 1.0)
    assert run.size > 100 and not np.shares_memory(shallow[0], run)
    late = reads(5)
    clear()
    fresh = reads(5)
    for x in shallow + deep + late:
        assert not x.flags.writeable
        with pytest.raises(ValueError):
            x[...] = 0.0
    for x, y in zip(shallow, kept):
        assert x.tobytes() == y.tobytes()
    for x, y in zip(late, fresh):
        assert x.shape == y.shape and x.tobytes() == y.tobytes()
    assert all(got[-2].flags.c_contiguous for got in (shallow, deep, late))


# space: (last degree compared with chebroots, tolerance), looser as the
# measure concentrates, which costs the Chebyshev form its accuracy
_CHEBROOTS_AGREE = {3: (60, 1e-10), 24: (60, 1e-6), 200: (15, 1e-7), "custom": (60, 1e-10)}


@pytest.mark.parametrize("dim", [3, 24, 200, "custom"])
def test_comrade_roots_match_chebroots(dim):
    """The audit points past -1 and s are the roots of f', clipped to
    [-1, s]. With s = 1, for random fhat of degree 2 to 60, they match
    numpy's chebroots of f's Chebyshev derivative, clipped the same way:
    to 1e-10 on sphere:3 and the custom space, to 1e-6 on sphere:24, and
    to 1e-7 through degree 15 on sphere:200. Past that the Chebyshev form
    loses roots (at sphere:200, degree 60, chebroots puts 4 in (-1, 1),
    where f' changes sign 40 times). At every degree the audit points
    include a root of f' in each cell of a 20001-point grid where f'
    changes sign: a point whose backward error |f'(r)| / sum_j |g_j p_j(r)|
    is below 1e-11, and there are no more such points than sign changes."""
    from numpy.polynomial.chebyshev import chebder, chebroots

    from delbound.feasibility import _audit, _derivative_table

    spec = _continuous_space(dim)
    grid = np.linspace(-1.0, 1.0, 20001)
    rng = np.random.default_rng(60)
    for deg in range(2, 61):
        fhat = rng.standard_normal(deg + 1)
        pts, _ = _audit(spec, fhat, 1.0)
        assert pts.size == deg + 1 and pts[0] == -1.0 and pts[1] == 1.0, deg
        last, tol = _CHEBROOTS_AGREE[dim]
        if deg <= last:
            want = np.clip(chebroots(chebder(fhat @ _chebyshev_rows(spec, deg))).real, -1.0, 1.0)
            assert np.max(np.abs(np.sort(pts[2:]) - np.sort(want))) <= tol, deg
        g = fhat @ _derivative_table(spec, deg)[0]
        rows = eval_basis_table(spec, Variant.BASE, deg - 1, pts[2:])
        roots = pts[2:][np.abs(g @ rows) <= 1e-11 * (np.abs(g) @ np.abs(rows))]
        values = g @ eval_basis_table(spec, Variant.BASE, deg - 1, grid)
        cells = np.flatnonzero(np.sign(values[:-1]) != np.sign(values[1:]))
        assert roots.size == cells.size, deg
        for j in cells:
            assert np.any((grid[j] <= roots) & (roots <= grid[j + 1])), (deg, grid[j])


@pytest.mark.parametrize("d", [3, 24, 200])
def test_sphere_slack_refusal_prints_the_slack_from_the_p1_table(d):
    """A certificate refused on its slack prints sum max(0, -fhat_i) p_i(1)
    with p(1) from the cached basis_at_end table. The negative
    coefficients sit at even degrees, within the coefficient tolerance,
    where p_i(-1) = p_i(1), so f(-1) < 0 and only the slack refuses."""
    from delbound import polynomial_from_fourier
    from delbound.orthopoly import basis_at_end

    spec = sphere_space(d)
    deg = 40
    fhat = [1e-11, 1.0] + [0.0 if i % 2 else -1e-10 * (1.0 + i / 7.0)
                           for i in range(2, deg + 1)]
    cert = cone_certificate(spec, polynomial_from_fourier(spec, fhat, -1.0), -1.0)
    assert cert.verdict == "fail" and cert.max_on_audit < 0.0
    at_one = basis_at_end(spec, Variant.BASE, deg, 1.0)
    slack = 0.0 - sum(v * float(at_one[i]) for i, v in enumerate(fhat) if i and v < 0.0)
    assert cert.reason == (
        "fhat_0 = %r is not above the slack %r of its negative coefficients "
        "and audit maximum" % (fhat[0], slack))
    assert cert.slack == slack


# (space, d or s, method, reason of a refusal or None, certificate id): the
# refusals fail on fhat_0, with the reasons and ids of an audit-first rule
_FHAT_DECIDED = [
    ("hamming:384", 40, "lev",
     "fhat_0 = 3.140495e-88 is not positive beyond tolerance 1e-12", "3120d5f495e1"),
    ("hamming:384", 40, "spectral",
     "fhat_0 = 6.570003e-89 is not positive beyond tolerance 1e-12", "b9d7c96e905c"),
    ("hamming:384", 200, "lev", None, "2ba96fb071c3"),
    ("hamming:384", 200, "spectral", None, "999fa03c0fef"),
    ("sphere:100", 0.45, "mrrw",
     "fhat_0 = 3.546133e-15 is not positive beyond tolerance 1e-12", "49e9d07470ce"),
    ("sphere:100", 0.45, "lev",
     "fhat_0 = 5.482759e-15 is not positive beyond tolerance 1e-12", "619c059f978e"),
    ("sphere:100", 0.45, "spectral",
     "fhat_0 = 3.546133e-15 is not positive beyond tolerance 1e-12", "7934fe919a2e"),
    ("sphere:100", -0.2, "mrrw", None, "daeaa9991200"),
    ("sphere:100", -0.2, "lev", None, "95e337606b84"),
    ("sphere:100", -0.2, "spectral", None, "daeaa9991200"),
]


@pytest.mark.parametrize("space, point, method, reason, cert_id", _FHAT_DECIDED,
                         ids=["%s-%r-%s" % row[:3] for row in _FHAT_DECIDED])
def test_a_certificate_failed_on_fhat_0_skips_the_audit(audit_calls, space, point, method,
                                                         reason, cert_id):
    """fhat_0 is read before the sign audit: a certificate whose mean fails
    its tolerance never calls _audit and records None, None and 0 for the
    audit, and a certified op calls it exactly once. Reasons and ids are
    those of the rule that audits first."""
    from delbound import NotCertifiedError, bound_for_distance, bound_for_s
    from delbound.cli import _parse_space

    spec = _parse_space(space)
    run = bound_for_distance if spec.kind == "hamming" else bound_for_s
    if reason is None:
        cert = run(spec, point, method).certificate
        assert len(audit_calls) == 1 and cert.audit_size > 0
    else:
        with pytest.raises(NotCertifiedError) as refused:
            run(spec, point, method)
        cert = refused.value.certificate
        assert audit_calls == [] and cert.reason == reason
        assert (cert.max_on_audit, cert.argmax, cert.audit_size, cert.slack) == (None, None, 0, None)
    assert cert.certificate_id == cert_id


def test_a_non_finite_fhat_skips_the_audit(audit_calls):
    from delbound import polynomial_from_fourier

    spec = sphere_space(4)
    poly = polynomial_from_fourier(spec, [1.0, 1.0], 0.0)._replace(fhat=(1.0, float("inf")))
    cert = cone_certificate(spec, poly, 0.0)
    assert audit_calls == [] and cert.reason == "fhat has a non-finite entry"
    assert (cert.max_on_audit, cert.argmax, cert.audit_size) == (None, None, 0)


def test_a_failed_fhat_0_is_named_before_an_overflowing_audit():
    """The one reason the fhat-first order moves: f overflows on the audit
    set, and fhat_0 = 1e-13 is under its tolerance, which is now named."""
    from delbound import polynomial_from_fourier

    spec = sphere_space(4)
    poly = polynomial_from_fourier(spec, [1e-13, 1e308, 1e308, 1e308], 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        _, vals = _audit(spec, np.asarray(poly.fhat), 0.0)
    assert not np.isfinite(vals).all()
    cert = cone_certificate(spec, poly, 0.0)
    assert cert.reason == "fhat_0 = 1.000000e-13 is not positive beyond tolerance 1e-12"
    assert cert.certificate_id == "d814efd63736"


@pytest.mark.parametrize("space, points", [("hamming:64", (8, 16, 24, 32, 40, 48, 56, 64)),
                                           ("sphere:24", (-0.5, -0.3, 0.0, 0.2, 0.4, 0.5))])
def test_slack_is_recorded_on_certified_ops(space, points):
    """A passing certificate carries the slack it was passed on, which
    recomputes from fhat, max_on_audit and basis_at_end, and lies in
    [0, fhat_0); to_json prints it."""
    from delbound import NotCertifiedError, bound_for_distance, bound_for_s
    from delbound.cli import _parse_space
    from delbound.orthopoly import basis_at_end

    spec = _parse_space(space)
    run = bound_for_distance if spec.kind == "hamming" else bound_for_s
    certified = 0
    for point in points:
        for method in ("mrrw", "lev", "spectral"):
            try:
                cert = run(spec, point, method).certificate
            except NotCertifiedError:
                continue
            certified += 1
            at_one = basis_at_end(spec, Variant.BASE, len(cert.fhat) - 1, 1.0)
            slack = max(cert.max_on_audit, 0.0) - sum(
                v * at_one.item(i) for i, v in enumerate(cert.fhat) if i and v < 0.0)
            assert cert.slack == slack, (point, method)
            assert 0.0 <= cert.slack < cert.fhat[0], (point, method)
            assert cert.to_json()["slack"] == cert.slack
    assert certified >= len(points)
