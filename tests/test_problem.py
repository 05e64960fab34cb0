import random
import sys

import pytest

from gsinterp.field import PrimeField
from gsinterp.problem import InterpolationInstance, random_instance

F13 = PrimeField(13)


def test_basic_construction():
    inst = InterpolationInstance(F13, [(0, 5), (1, 7)], [1, 2], ell=2, w=3)
    assert inst.n == 2
    assert inst.mults == [1, 2]
    assert inst.constraint_count() == 1 + 3


def test_coordinates_reduced():
    inst = InterpolationInstance(F13, [(13, 14)], [1], ell=1, w=1)
    assert inst.points == [(0, 1)]


def test_validation_errors():
    with pytest.raises(ValueError):
        InterpolationInstance(F13, [], [], ell=1, w=1)
    with pytest.raises(ValueError):
        InterpolationInstance(F13, [(1, 2), (1, 5)], [1, 1], ell=1, w=1)  # dup x
    with pytest.raises(ValueError):
        InterpolationInstance(F13, [(1, 2)], [1, 1], ell=1, w=1)  # length mismatch
    with pytest.raises(ValueError):
        InterpolationInstance(F13, [(1, 2)], [0], ell=1, w=1)  # s < 1
    with pytest.raises(ValueError):
        InterpolationInstance(F13, [(1, 2)], [1], ell=-1, w=1)
    with pytest.raises(ValueError):
        InterpolationInstance(F13, [(1, 2)], [1], ell=1, w=0)


def test_random_instance_shapes():
    rng = random.Random(0)
    inst = random_instance(F13, rng, 6, ell=3, w=2, smin=1, smax=3)
    assert inst.n == 6
    assert len(set(x for x, _ in inst.points)) == 6
    assert all(1 <= s <= 3 for s in inst.mults)
    uni = random_instance(F13, rng, 4, ell=1, w=1, uniform_s=2)
    assert uni.mults == [2, 2, 2, 2]
    with pytest.raises(ValueError):
        random_instance(F13, rng, 14, ell=1, w=1)


@pytest.mark.parametrize("p", [2**64 - 59, 9223372036854775837])
def test_random_instance_above_sys_maxsize(p):
    # range(p) has no length above sys.maxsize, so rng.sample cannot draw
    # the x's there
    assert p > sys.maxsize
    inst = random_instance(PrimeField(p), random.Random(3), 40, ell=2, w=1)
    xs = [x for x, _ in inst.points]
    assert len(set(xs)) == 40 and all(0 <= x < p for x in xs)


def test_random_instance_keeps_the_sample_stream_below_sys_maxsize():
    # the golden and criterion instances draw their x's with rng.sample
    for p in (13, 754974721, 2**61 - 1):
        inst = random_instance(PrimeField(p), random.Random(p), 9, ell=1, w=1)
        assert [x for x, _ in inst.points] == random.Random(p).sample(range(p), 9)
