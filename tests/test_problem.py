import random
import sys

import pytest

from gsinterp.bench import BENCH_PRIME
from gsinterp.decoder import InfeasibleParameters, RSCode, gs_params
from gsinterp.field import PrimeField
from gsinterp.problem import WORK_BUDGET, InterpolationInstance, check_work, random_instance
from util import bundled_instances

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


# -- the work-admission rule ----------------------------------------------------------

ITERATIVE = ("naive", "cached", "fast")
ALL_SOLVERS = ITERATIVE + ("oracle",)


def _uniform(n, s, ell):
    """(n, constraint count, ell) of n points of multiplicity s."""
    return n, n * s * (s + 1) // 2, ell


def _decoder(p, n, k, tau):
    """The shape decode_list interpolates for RS [n, k] at radius tau: the
    n - kappa points after the re-encoded kappa = min(k, n - 1)."""
    params = gs_params(RSCode(PrimeField(p), n, k), tau)
    return _uniform(n - min(k, n - 1), params.s, params.ell)


def _bundled():
    return [(inst.n, inst.constraint_count(), inst.ell) for inst in bundled_instances()]


# (id, shapes, solvers, admitted): the work each entry point asks for, decided by
# arithmetic only; no solver runs
TABLE = [
    ("bundled", _bundled, ALL_SOLVERS, True),
    ("interp_small", lambda: [_uniform(16, 1, 1), _uniform(96, 3, 4)], ("fast", "cached"), True),
    ("interp_large", lambda: [_uniform(1024, 2, 2)], ("fast", "cached"), True),
    ("decode", lambda: [_decoder(65521, 64, 16, tau) for tau in range(25, 31)], ("fast",), True),
    ("time_passes", lambda: [_uniform(n, 2, 2) for n in (64, 128, 256, 512)], ITERATIVE, True),
    ("acceptance", lambda: [_uniform(10, 3, 4), _uniform(12, 2, 6)], ALL_SOLVERS, True),
    ("rs255", lambda: [_decoder(BENCH_PRIME, 255, 64, tau) for tau in (121, 124, 125, 126)],
     ("fast",), True),
    ("rs1024", lambda: [_decoder(BENCH_PRIME, 1024, 256, tau) for tau in (497, 499)], ("fast",),
     True),
    ("rs255_tau127", lambda: [_decoder(BENCH_PRIME, 255, 64, 127)], ("fast",), False),
    ("rs1024_tau500", lambda: [_decoder(BENCH_PRIME, 1024, 256, 500)], ("fast",), False),
    ("n16384", lambda: [_uniform(16384, 1, 2)], ("fast",), True),
    ("n256_s64_ell256", lambda: [_uniform(256, 64, 256)], ("fast",), False),
    # RS [16384, 4096] at tau = 7952: the decode at s = 4, ell = 1 that ends
    # gs_params' search, and the s = 8, ell = 16 the counting bound first admits
    ("rs16384", lambda: [_uniform(12288, 4, 1), _uniform(12288, 8, 16)], ("fast",), False),
    # the oracle's C^3 term: at most 954 constraints at s = 2 and at s = 1; at
    # one point the first line still bounds ell
    ("oracle", lambda: [_uniform(67, 2, 2), _uniform(318, 2, 2), _uniform(955, 1, 2),
                        _uniform(1, 1, 3248)], ("oracle",), True),
    ("oracle_over", lambda: [_uniform(319, 2, 2), _uniform(956, 1, 2), _uniform(400, 2, 3),
                             _uniform(1, 1, 3249)], ("oracle",), False),
    ("ell_1e7", lambda: [_uniform(1, 1, 10**7)], ALL_SOLVERS, False),
    ("s_1e1000", lambda: [_uniform(1, 10**1000, 1)], ALL_SOLVERS, False),
]


@pytest.mark.parametrize(
    "shapes, solvers, admitted", [t[1:] for t in TABLE], ids=[t[0] for t in TABLE]
)
def test_check_work_table(shapes, solvers, admitted):
    for n, c, ell in shapes():
        for solver in solvers:
            if admitted:
                check_work(n, c, ell, solver)
            else:
                with pytest.raises(ValueError, match=f"budget of {WORK_BUDGET // 10**9} s"):
                    check_work(n, c, ell, solver)


@pytest.mark.parametrize("solver", ["classic", "classic-hasse", "oracel", ""])
def test_check_work_refuses_an_unknown_solver(solver):
    # the CLI's --algorithm names and a typo have no rate of their own; none
    # is weighed as fast, not even at a shape naive refuses
    for n, c, ell in [(1, 1, 0), (5000, 15000, 2)]:
        with pytest.raises(ValueError, match="naive, cached, fast or oracle"):
            check_work(n, c, ell, solver)


def test_check_work_table_decoder_shapes():
    assert _decoder(BENCH_PRIME, 255, 64, 124) == _uniform(191, 8, 15)
    assert _decoder(BENCH_PRIME, 255, 64, 126) == _uniform(191, 14, 28)
    assert _decoder(BENCH_PRIME, 255, 64, 127) == _uniform(191, 26, 51)
    assert _decoder(BENCH_PRIME, 1024, 256, 497) == _uniform(768, 8, 16)
    assert _decoder(BENCH_PRIME, 1024, 256, 499) == _uniform(768, 9, 18)
    assert _decoder(BENCH_PRIME, 1024, 256, 500) == _uniform(768, 10, 19)
    with pytest.raises(InfeasibleParameters, match="at s=3, ell=6:.*at s=4, fast solve"):
        _decoder(BENCH_PRIME, 16384, 4096, 7952)
