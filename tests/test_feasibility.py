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
    assert not cert.passed
    assert cert.max_on_audit == pytest.approx(1e-5, rel=1e-6)
    assert cert.argmax == pytest.approx(-0.4, abs=1e-6)


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
    from dataclasses import replace

    from delbound import polynomial_from_fourier

    poly = replace(polynomial_from_fourier(spec, [1.0] * len(fhat), 0.0), fhat=fhat)
    cert = cone_certificate(spec, poly, 0.0)
    assert cert.verdict == "fail" and "finite" in cert.reason
    # the same values from a plain callable, which is expanded first
    f = _poly_from(spec, fhat)
    f.degree = len(fhat) - 1
    with np.errstate(over="ignore", invalid="ignore"):
        assert cone_certificate(spec, f, 0.0).verdict == "fail"
