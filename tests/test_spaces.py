import math
import re
from fractions import Fraction

import numpy as np
import pytest

from delbound import (
    MeasureSpec,
    ValidationError,
    Variant,
    custom_space,
    hamming_space,
    max_degree,
    moment_functional,
    node_weights,
    quadrature,
    sphere_space,
    variant_mass,
)


def test_hamming_nodes_and_weights_exact():
    spec = hamming_space(4)
    assert spec.nodes == (1.0, 0.5, 0.0, -0.5, -1.0)
    assert node_weights(spec, Variant.BASE)[1].tolist() == [1 / 16, 4 / 16, 6 / 16, 4 / 16, 1 / 16]
    assert spec.label() == "hamming:4"
    assert spec.discrete


def test_hamming_weights_sum_to_one_exactly():
    for n in (1, 2, 3, 7, 12, 33, 64):
        spec = hamming_space(n)
        # binomial weights over 2^n are exactly representable and sum to 1
        assert math.fsum(node_weights(spec, Variant.BASE)[1]) == 1.0
        assert spec.nodes[0] == 1.0 and spec.nodes[-1] == -1.0


def test_binomial_row_is_exact_and_gives_the_weights_bit_for_bit():
    """The recurrence row C(n, 0)..C(n, n) equals math.comb entry for entry,
    so each weight C(n, j) / 2^n is the same correctly rounded quotient."""
    from delbound.spaces import _binomial_row

    for n in (1, 2, 16, 64, 384, 1024, 1074):
        row = _binomial_row(n)
        assert row == tuple(math.comb(n, j) for j in range(n + 1)), n
        assert _binomial_row(n) is row
        weights = node_weights(hamming_space(n), Variant.BASE)[1]
        assert weights.tolist() == [math.comb(n, j) / 2 ** n for j in range(n + 1)]


def test_hamming_validation():
    with pytest.raises(ValidationError):
        hamming_space(0)
    with pytest.raises(ValidationError):
        hamming_space(-3)


def test_a_bool_is_neither_a_length_nor_a_distance():
    """hamming_space(True) would be labelled hamming:True, and d = True
    would be read as d = 1: both are refused, as the LP oracle and the
    NRT constructors refuse a bool."""
    from delbound import bound_for_distance

    for n in (True, False):
        with pytest.raises(ValidationError, match="hamming_space requires an integer"):
            hamming_space(n)
    for d in (True, False):
        with pytest.raises(ValidationError, match="distance must satisfy"):
            bound_for_distance(hamming_space(8), d, "lev")
    assert bound_for_distance(hamming_space(8), 3, "lev").d == 3


def test_hamming_weights_stay_nonzero_up_to_the_largest_supported_n():
    """C(n, j) 2^-n is a nonzero double for every j up to n = 1074; from
    n = 1075 on, 2^-n underflows to 0.0 and the space is refused rather
    than built with nodes silently missing."""
    assert max_degree(hamming_space(1074)) == 1074
    with pytest.raises(ValidationError, match="1074"):
        hamming_space(1075)


def test_sphere_space_basics():
    spec = sphere_space(5)
    assert spec.label() == "sphere:5"
    assert not spec.discrete
    assert spec.nodes is None
    with pytest.raises(ValidationError):
        sphere_space(2)


def test_custom_space_roundtrip():
    spec = custom_space((0.5, 0.4), (0.0, -0.1))
    assert spec.kind == "custom"
    assert max_degree(spec, Variant.BASE) == 2
    with pytest.raises(ValidationError):
        custom_space((0.5, -0.4), (0.0, 0.0))
    with pytest.raises(ValidationError):
        custom_space((0.5,), (0.0, 0.0, 0.0))
    # a non-finite coefficient would leave no bracket for the zero search
    for a, b in (((0.5, math.inf), (0.0, 0.0)), ((0.5, 0.4), (math.nan, 0.0))):
        with pytest.raises(ValidationError):
            custom_space(a, b)


def test_minus_weights_match_shifted_binomial():
    """(1-x_j) w_j on hamming:n is the binomial(n-1) mass at j-1, exactly."""
    for n in (2, 5, 9, 16):
        spec = hamming_space(n)
        x, w = node_weights(spec, Variant.MINUS)
        assert w[0] == 0.0  # the x=1 node is killed
        for j in range(1, n + 1):
            expect = math.comb(n - 1, j - 1) / 2 ** (n - 1)
            assert w[j] == pytest.approx(expect, abs=0, rel=1e-15)
        assert math.fsum(w) == pytest.approx(1.0, abs=1e-15)


def test_plusminus_mass():
    """The adjacent masses are 1 and (n-1)/n on hamming:n and 1 and
    1 - 1/d on sphere:d, exactly: they come from the closed forms, not from
    summing weights (which gives 0.9843750000000001 at n = 64)."""
    for n in (2, 6, 11, 64):
        spec = hamming_space(n)
        x, w = node_weights(spec, Variant.PLUSMINUS)
        assert w[0] == 0.0 and w[-1] == 0.0
        assert math.fsum(w) == pytest.approx((n - 1) / n, rel=1e-15)
        assert variant_mass(spec, Variant.PLUSMINUS) == (n - 1) / n
        assert variant_mass(spec, Variant.MINUS) == 1.0
    assert variant_mass(hamming_space(7), Variant.BASE) == 1.0
    for d in (3, 4, 24, 200):
        assert variant_mass(sphere_space(d), Variant.PLUSMINUS) == (d - 1) / d
        assert variant_mass(sphere_space(d), Variant.MINUS) == 1.0


def test_a_one_pair_custom_space_has_its_adjacent_masses():
    """One pair (a_0, b_0) serves no adjacent coefficient, but the masses
    mu_0 - mu_1 = 1 - b_0 and mu_0 - mu_2 = 1 - b_0^2 - a_0^2 are read
    off the adjacent runs all the same."""
    spec = custom_space([0.5], [0.0])
    assert max_degree(spec, Variant.MINUS) == max_degree(spec, Variant.PLUSMINUS) == 0
    assert variant_mass(spec, Variant.MINUS) == 1.0
    assert variant_mass(spec, Variant.PLUSMINUS) == 0.75


def test_max_degree_per_variant():
    spec = hamming_space(10)
    assert max_degree(spec, Variant.BASE) == 10
    assert max_degree(spec, Variant.MINUS) == 9
    assert max_degree(spec, Variant.PLUSMINUS) == 8
    assert max_degree(sphere_space(4), Variant.BASE) is None
    with pytest.raises(ValidationError, match="unknown variant 'minus'"):
        max_degree(spec, "minus")


def test_max_degree_is_a_closed_form_that_counts_the_weighted_nodes():
    """n, n - 1 and n - 2 on hamming:n, with no cache: the count of nodes
    of positive weight, less one, on every system, up to the largest n."""
    assert not hasattr(max_degree, "cache_info")
    for n in (*range(1, 65), *range(1070, 1075)):
        spec = hamming_space(n)
        for variant in Variant:
            _, w = node_weights(spec, variant)
            assert max_degree(spec, variant) == np.count_nonzero(w > 0.0) - 1, (n, variant)


def test_a_space_is_its_parameters():
    """A spec holds kind, params and ab alone: hamming_space builds nothing
    of size n, even at the largest n, and the nodes it serves are the
    ones node_weights builds, bit for bit."""
    from delbound.spaces import _binomial_row

    assert MeasureSpec._fields == ("kind", "params", "ab")
    caches = (_binomial_row, node_weights)
    before = [f.cache_info() for f in caches]
    spec = hamming_space(1074)
    assert spec == MeasureSpec("hamming", (1074,)) and max_degree(spec) == 1074
    assert [f.cache_info() for f in caches] == before
    for n in (1, 7, 64, 1074):
        spec = hamming_space(n)
        x = np.array(spec.nodes)
        assert x.tobytes() == node_weights(spec, Variant.BASE)[0].tobytes()
        assert x.tolist() == [(n - 2 * j) / n for j in range(n + 1)]


def test_moment_functional_discrete_exact():
    spec = hamming_space(6)
    # first moment of the base measure is 0, second is 1/n
    assert moment_functional(spec, Variant.BASE, lambda t: np.asarray(t), 1) == pytest.approx(0.0, abs=1e-16)
    m2 = moment_functional(spec, Variant.BASE, lambda t: np.asarray(t) ** 2, 2)
    assert m2 == pytest.approx(1 / 6, rel=1e-15)


def _gegenbauer_even_moment(d, m):
    num = 1
    for i in range(1, 2 * m, 2):
        num *= i
    den = 1
    for i in range(m):
        den *= d + 2 * i
    return Fraction(num, den)


def test_moment_functional_sphere_matches_closed_moments():
    for d in (3, 4, 5, 8):
        spec = sphere_space(d)
        for m in range(7):
            got = moment_functional(spec, Variant.BASE,
                                    lambda t, _m=m: np.asarray(t) ** (2 * _m), 2 * m)
            assert got == pytest.approx(float(_gegenbauer_even_moment(d, m)), abs=5e-14)
        odd = moment_functional(spec, Variant.BASE, lambda t: np.asarray(t) ** 3, 3)
        assert odd == pytest.approx(0.0, abs=1e-14)


def test_quadrature_weights_positive_and_sum_to_mass():
    for spec, variant, mass in [
        (hamming_space(8), Variant.BASE, 1.0),
        (hamming_space(8), Variant.MINUS, 1.0),
        (hamming_space(8), Variant.PLUSMINUS, 7 / 8),
        (sphere_space(4), Variant.BASE, 1.0),
        (sphere_space(4), Variant.PLUSMINUS, 3 / 4),
        (sphere_space(5), Variant.MINUS, 1.0),
    ]:
        for m in (1, 2, 4, 7):
            x, w = quadrature(spec, variant, m)
            assert len(x) == m and len(w) == m
            assert np.all(w > 0)
            assert np.all(np.diff(x) > 0)
            assert float(np.sum(w)) == pytest.approx(mass, rel=1e-12)


def test_quadrature_exactness_degree():
    """An m-point rule integrates monomials through degree 2m-1."""
    rng = np.random.default_rng(42)
    spec = hamming_space(12)
    xs, ws = node_weights(spec, Variant.BASE)
    for m in (2, 3, 5):
        x, w = quadrature(spec, Variant.BASE, m)
        for deg in range(2 * m):
            exact = float(np.dot(ws, xs ** deg))
            # nodes carry the eigensolver's rounding, so allow a little
            # headroom beyond it
            assert float(np.dot(w, x ** deg)) == pytest.approx(exact, abs=5e-13)


def test_quadrature_order_cap():
    spec = hamming_space(4)
    quadrature(spec, Variant.BASE, 5)  # full support is fine
    with pytest.raises(ValidationError):
        quadrature(spec, Variant.BASE, 6)
    with pytest.raises(ValidationError):
        quadrature(spec, Variant.MINUS, 5)
    with pytest.raises(ValidationError):
        quadrature(spec, Variant.BASE, 0)


def test_spec_is_hashable_and_frozen():
    a = hamming_space(6)
    b = hamming_space(6)
    assert a == b and hash(a) == hash(b)
    with pytest.raises(Exception):
        a.kind = "other"
    assert isinstance(a.to_json(), dict)


def test_separately_built_specs_share_cache_entries():
    a = hamming_space(40)
    b = hamming_space(40)
    assert a is not b and a == b and hash(a) == hash(b)
    before = node_weights.cache_info()
    first = node_weights(a, Variant.MINUS)
    assert node_weights(b, Variant.MINUS) is first
    assert node_weights.cache_info().hits >= before.hits + 1
    assert hamming_space(41) != a


def test_spec_hash_survives_pickle_across_hash_seeds(fresh_python):
    """The hash is computed from (kind, params, ab) and never pickled, so
    an unpickled spec hashes like a fresh one even under another hash seed."""
    import pickle

    for spec in (hamming_space(12), sphere_space(5), custom_space([0.5, 0.4], [0.0, 0.1])):
        back = pickle.loads(pickle.dumps(spec))
        assert back == spec and hash(back) == hash(spec)
    blob = pickle.dumps(hamming_space(12)).hex()
    code = (
        "import pickle\n"
        "from delbound import hamming_space, node_weights, Variant\n"
        "spec = pickle.loads(bytes.fromhex(%r))\n"
        "fresh = hamming_space(12)\n"
        "assert spec == fresh and hash(spec) == hash(fresh)\n"
        "assert node_weights(spec, Variant.BASE) is node_weights(fresh, Variant.BASE)\n"
        % blob
    )
    for seed in ("1", "12345"):
        proc = fresh_python(code=code, env={"PYTHONHASHSEED": seed})
        assert proc.returncode == 0, proc.stderr


def test_cached_spec_hash_stays_out_of_the_pickle(fresh_python):
    """A spec keeps its hash once it has been a cache key, and its nodes
    once read, but its pickle carries neither: unpickled under other hash seeds, a spec that was a
    cache key before pickling hashes and caches like a fresh one."""
    import pickle

    specs = (hamming_space(12), sphere_space(5), custom_space([0.5, 0.4], [0.0, 0.1]))
    for spec in specs:
        quadrature(spec, Variant.BASE, 1)
        spec.nodes
        assert {"_hash", "nodes"} <= set(vars(spec))
        blob = pickle.dumps(spec)
        assert b"_hash" not in blob and b"nodes" not in blob
        assert vars(pickle.loads(blob)) == {}
    blob = pickle.dumps(specs[0]).hex()
    code = (
        "import pickle\n"
        "from delbound import hamming_space, node_weights, Variant\n"
        "fresh = hamming_space(12)\n"
        "first = node_weights(fresh, Variant.MINUS)\n"
        "spec = pickle.loads(bytes.fromhex(%r))\n"
        "hits = node_weights.cache_info().hits\n"
        "assert spec is not fresh and hash(spec) == hash(fresh)\n"
        "assert node_weights(spec, Variant.MINUS) is first\n"
        "assert node_weights.cache_info().hits == hits + 1\n"
        % blob
    )
    for seed in ("2", "54321"):
        proc = fresh_python(code=code, env={"PYTHONHASHSEED": seed})
        assert proc.returncode == 0, proc.stderr


def test_custom_quadrature_refuses_as_the_rule_it_cannot_build():
    """With M = 10 coefficient pairs, every m-point rule of every system to
    m = max_degree (M for the base system, M - 1 for the minus and
    plusminus ones) integrates p_i p_j exactly (orthonormal to 1e-14
    through degree m - 1; measured 5.8e-15); one point more is refused as
    that rule, not as an internal coefficient index. fourier_expand to
    degree M needs the (M + 1)-point rule and is refused the same way."""
    from delbound import fourier_expand
    from delbound.orthopoly import eval_basis_table

    M = 10
    spec = custom_space([0.5] * M, [0.0] * M)
    for variant, top in ((Variant.BASE, M), (Variant.MINUS, M - 1), (Variant.PLUSMINUS, M - 1)):
        assert max_degree(spec, variant) == top
        for m in range(1, top + 2):
            if m > top:
                with pytest.raises(ValidationError, match="the %d-point quadrature rule" % m):
                    quadrature(spec, variant, m)
                continue
            x, w = quadrature(spec, variant, m)
            table = eval_basis_table(spec, variant, m - 1, x)
            gram = (table * w) @ table.T
            assert np.max(np.abs(gram - np.eye(m))) < 1e-14, (variant, m)
    with pytest.raises(ValidationError, match="the %d-point quadrature rule" % (M + 1)):
        fourier_expand(spec, lambda x: x, M)


def test_a_quadrature_loads_only_the_layers_below_it(fresh_python):
    """In a fresh interpreter, a Gauss rule and an adjacent system's mass
    load orthopoly, and no layer above it: spaces takes its names from
    delbound.orthopoly, not through the package's deferred attributes,
    which load constructions, feasibility, kernels and spectral too."""
    code = (
        "import sys\n"
        "import delbound.spaces\n"
        "from delbound.spaces import (Variant, hamming_space, quadrature, sphere_space,\n"
        "                             variant_mass)\n"
        "quadrature(sphere_space(4), Variant.BASE, 5)\n"
        "variant_mass(hamming_space(6), Variant.MINUS)\n"
        "print(' '.join(m for m in sys.modules if m.startswith('delbound')))\n"
    )
    proc = fresh_python(code=code)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "delbound.orthopoly" in loaded
    above = {"delbound." + m for m in ("constructions", "feasibility", "kernels", "spectral")}
    assert not loaded & above, loaded & above


@pytest.mark.parametrize("n", [0, -3, 1075, 4096])
def test_a_hamming_spec_built_by_hand_is_refused_as_hamming_space_refuses_it(n):
    """MeasureSpec("hamming", (n,)) made without hamming_space meets its
    refusals, with its message, so no reader of n sees n < 1 or n > 1074."""
    with pytest.raises(ValidationError) as refused:
        hamming_space(n)
    with pytest.raises(ValidationError, match=re.escape(str(refused.value))):
        MeasureSpec("hamming", (n,))
