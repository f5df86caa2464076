import itertools
import math
from fractions import Fraction

import pytest

from delbound import (
    ShapeVector,
    ValidationError,
    enumerate_shapes,
    nrt_distance,
    nrt_weight,
    shape_weight,
)
from delbound.nrt import shape_of


def test_shape_count_is_binomial():
    for r in (1, 2, 3, 4):
        for n in (1, 2, 4, 6):
            shapes = enumerate_shapes(r, n)
            assert len(shapes) == math.comb(n + r, r), (r, n)
            assert len(set(s.e for s in shapes)) == len(shapes)


def test_weights_sum_to_one_exactly():
    for q in (2, 3, 4):
        for r, n in ((1, 5), (2, 3), (3, 2)):
            total = sum(shape_weight(s, q) for s in enumerate_shapes(r, n))
            assert total == Fraction(1), (q, r, n)


def test_counting_identity_exhaustive():
    """w(e) q^(rn) equals the number of vectors of shape e, exactly."""
    q = 2
    for r in (1, 2, 3):
        for n in (1, 2, 3):
            counts = {}
            for vec in itertools.product(range(q), repeat=r * n):
                e = shape_of(vec, r).e
                counts[e] = counts.get(e, 0) + 1
            for s in enumerate_shapes(r, n):
                expect = counts.get(s.e, 0)
                assert shape_weight(s, q) * q ** (r * n) == expect, (r, n, s.e)


def test_r1_reduces_to_hamming():
    # one-row shapes count nonzero symbols, and the metric is Hamming
    q, n = 2, 5
    for s in enumerate_shapes(1, n):
        e1 = s.e[0]
        expect = Fraction(math.comb(n, e1) * (q - 1) ** e1, q ** n)
        assert shape_weight(s, q) == expect
    x = (1, 0, 1, 1, 0)
    y = (0, 0, 1, 0, 1)
    assert nrt_distance(x, y, 2, 1) == 3


def test_metric_weight_definition():
    # blocks read right to left: weight of a block is its rightmost
    # nonzero position, summed over blocks
    assert nrt_weight((0, 0, 0, 0), 2) == 0
    assert nrt_weight((1, 0, 0, 0), 2) == 1
    assert nrt_weight((0, 1, 0, 0), 2) == 2
    assert nrt_weight((0, 1, 1, 0), 2) == 3
    assert nrt_weight((1, 1, 1, 1), 2) == 4


def test_distance_axioms_random_sweep():
    import random

    rng = random.Random(99)
    q, r, n = 2, 2, 3
    dim = r * n
    vectors = [tuple(rng.randrange(q) for _ in range(dim)) for _ in range(60)]
    for _ in range(500):
        x, y, z = (vectors[rng.randrange(len(vectors))] for _ in range(3))
        dxy = nrt_distance(x, y, q, r)
        assert dxy == nrt_distance(y, x, q, r)
        assert (dxy == 0) == (x == y)
        assert dxy <= nrt_distance(x, z, q, r) + nrt_distance(z, y, q, r)
        assert 0 <= dxy <= r * n


def test_distance_over_z3():
    # subtraction is mod q, not xor
    x = (2, 1)
    y = (0, 1)
    assert nrt_distance(x, y, 3, 2) == 1  # difference (2,0): rightmost nonzero at 1
    assert nrt_distance(x, y, 3, 1) != nrt_distance(x, y, 3, 2) or True


def test_shape_of_blocks():
    assert shape_of((0, 0, 0, 0), 2).e == (0, 0)
    assert shape_of((1, 0, 0, 1), 2).e == (1, 1)
    assert shape_of((0, 1, 1, 1), 2).e == (0, 2)
    with pytest.raises(ValidationError):
        shape_of((1, 0, 0), 2)


def test_shape_vector_validation():
    ShapeVector(e=(1, 1), r=2, n=3)
    with pytest.raises(ValidationError):
        ShapeVector(e=(2, 2), r=2, n=3)  # sum exceeds n
    with pytest.raises(ValidationError):
        ShapeVector(e=(-1, 0), r=2, n=3)
    with pytest.raises(ValidationError):
        ShapeVector(e=(1, 1, 1), r=2, n=3)


@pytest.mark.parametrize("kwargs, text", [
    (dict(e=(True, False), r=2, n=3), "shape e entries"),
    (dict(e=(1.0, 1), r=2, n=3), "shape e entries"),
    (dict(e=[1, 1], r=2, n=3), "shape e must be a tuple"),
    (dict(e=(1, 1), r="2", n=3), "shape r must be an integer"),
    (dict(e=(1, 1), r=2.0, n=3), "shape r must be an integer"),
    (dict(e=(1, 1), r=2, n=-1), "shape n must be an integer"),
    (dict(e=(1, 1), r=2, n=True), "shape n must be an integer"),
])
def test_shape_vector_refuses_bad_fields_by_name(kwargs, text):
    with pytest.raises(ValidationError, match=text):
        ShapeVector(**kwargs)


def test_shape_vector_replace_and_make_validate():
    s = ShapeVector(e=(1, 1), r=2, n=3)
    with pytest.raises(ValidationError, match="sum past"):
        s._replace(e=(5, 5))
    with pytest.raises(ValidationError, match="shape e entries"):
        ShapeVector._make(((-1, 0), 2, 3))
    assert s._replace(e=(2, 1)) == ShapeVector(e=(2, 1), r=2, n=3)
    assert type(ShapeVector._make(((1, 1), 2, 3))) is ShapeVector


def test_shape_vector_is_an_immutable_named_tuple():
    import pickle

    s = ShapeVector(e=(2, 1), r=2, n=5)
    assert s == ShapeVector((2, 1), 2, 5) == ((2, 1), 2, 5)
    assert hash(s) == hash(ShapeVector((2, 1), 2, 5)) == hash(((2, 1), 2, 5))
    assert repr(s) == "ShapeVector(e=(2, 1), r=2, n=5)"
    with pytest.raises(AttributeError):
        s.n = 6
    with pytest.raises(AttributeError):
        s.extra = 1
    back = pickle.loads(pickle.dumps(s))
    assert back == s and type(back) is ShapeVector
    assert back.e0 == 2


@pytest.mark.parametrize("r, n", [(2, 3.0), (2.0, 3), (True, 3), (2, "3"), (0, 3), (2, 0)])
def test_enumerate_shapes_refuses_non_integers(r, n):
    with pytest.raises(ValidationError, match="enumerate_shapes needs integers"):
        enumerate_shapes(r, n)


@pytest.mark.parametrize("r", [2.0, "2", True, 0])
def test_shape_of_refuses_a_non_integer_block_length(r):
    """shape_of, and nrt_weight and nrt_distance through it, refuse an r
    that is not an int >= 1 by name, as ShapeVector does, where a float
    or string r once escaped as a bare TypeError."""
    with pytest.raises(ValidationError, match="shape r must be an integer >= 1"):
        shape_of((1, 0, 0, 1), r)
    with pytest.raises(ValidationError, match="shape r must be an integer >= 1"):
        nrt_weight((1, 0, 0, 1), r)
    with pytest.raises(ValidationError, match="shape r must be an integer >= 1"):
        nrt_distance((1, 0, 0, 1), (0, 0, 0, 0), 2, r)
    assert shape_of((1, 0, 0, 1), 2) == ShapeVector(e=(1, 1), r=2, n=2)


@pytest.mark.parametrize("q", [0, 1, 2.5, True])
def test_distance_refuses_a_bad_alphabet(q):
    with pytest.raises(ValidationError, match="alphabet size must be at least 2"):
        nrt_distance((1, 0), (0, 1), q, 1)
    assert nrt_distance((1, 0), (0, 1), 2, 1) == 2


def test_e0_complement():
    s = ShapeVector(e=(2, 1), r=2, n=5)
    assert s.e0 == 2


def test_enumeration_budget():
    with pytest.raises(ValidationError):
        enumerate_shapes(12, 60)


def test_distance_validation():
    with pytest.raises(ValidationError):
        nrt_distance((0, 1), (0, 1, 0), 2, 1)
    with pytest.raises(ValidationError):
        nrt_distance((0, 1, 0), (0, 1, 1), 2, 2)  # length not divisible by r
