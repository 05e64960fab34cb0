import random
import time

import pytest

from gsinterp import fast, oracle
from gsinterp.bipoly import BiPoly
from gsinterp.field import PrimeField
from gsinterp.oracle import minimal_solution
from gsinterp.problem import WORK_BUDGET, InterpolationInstance, random_instance
from util import proportional

# the most points of multiplicity 2 at ell = 2 that check_work admits for
# the oracle: 954 constraints
NMAX = 318


def test_collinear_points_gf3():
    F3 = PrimeField(3)
    inst = InterpolationInstance(F3, [(0, 0), (1, 1), (2, 2)], [1, 1, 1], ell=1, w=1)
    q, mindeg = minimal_solution(inst)
    assert mindeg == 1
    y_minus_x = BiPoly.from_monomials(F3, 1, [(0, 1, 1), (1, 0, -1)])
    assert proportional(q, y_minus_x)


def test_single_point_univariate():
    F7 = PrimeField(7)
    inst = InterpolationInstance(F7, [(4, 5)], [1], ell=0, w=1)
    q, mindeg = minimal_solution(inst)
    assert mindeg == 1
    x_minus_4 = BiPoly.from_monomials(F7, 0, [(1, 0, 1), (0, 0, -4)])
    assert proportional(q, x_minus_4)


def test_solution_satisfies_all_constraints():
    rng = random.Random(0)
    F = PrimeField(101)
    for _ in range(40):
        inst = random_instance(
            F, rng, rng.randint(1, 6), rng.randint(1, 3), rng.randint(1, 4), smin=1, smax=3
        )
        q, mindeg = minimal_solution(inst)
        assert not q.is_zero()
        assert q.weighted_degree(inst.w) == mindeg
        for (x, y), s in zip(inst.points, inst.mults):
            assert q.has_multiplicity(x, y, s)


def test_minimality_against_exhaustive_search():
    # check true minimality on a tiny field by scanning all polynomials of
    # smaller weighted degree
    F2 = PrimeField(2)
    inst = InterpolationInstance(F2, [(0, 1), (1, 1)], [1, 1], ell=1, w=1)
    q, mindeg = minimal_solution(inst)
    for (x, y), s in zip(inst.points, inst.mults):
        assert q.has_multiplicity(x, y, s)
    # enumerate every nonzero candidate with weighted degree below mindeg
    for bits in range(1, 1 << (2 * mindeg)):
        coeffs = [(bits >> i) & 1 for i in range(2 * mindeg)]
        terms = []
        idx = 0
        for a in range(mindeg):
            for j in range(2):
                if a + j < mindeg and idx < len(coeffs) and coeffs[idx]:
                    terms.append((a, j, 1))
                idx += 1
        if not terms:
            continue
        cand = BiPoly.from_monomials(F2, 1, terms)
        if cand.is_zero() or cand.weighted_degree(1) >= mindeg:
            continue
        assert not all(
            cand.has_multiplicity(x, y, s) for (x, y), s in zip(inst.points, inst.mults)
        )


def test_refuses_systems_above_the_limit(monkeypatch):
    # check_work weighs the solve as the oracle's before the first column: at
    # s = 2, ell = 2 over the bench prime, NMAX points reach the columns and
    # NMAX + 1 are refused within a second, with no column built
    def built(*args):
        raise AssertionError("reached _constraint_column")

    monkeypatch.setattr(oracle, "_constraint_column", built)
    field = PrimeField(754974721)
    rng = random.Random(3)
    with pytest.raises(AssertionError, match="reached"):
        minimal_solution(random_instance(field, rng, NMAX, 2, 1, uniform_s=2))
    inst = random_instance(field, rng, NMAX + 1, 2, 1, uniform_s=2)
    t0 = time.process_time()
    with pytest.raises(ValueError, match=f"^oracle solve .* budget of {WORK_BUDGET // 10**9} s$"):
        minimal_solution(inst)
    assert time.process_time() - t0 < 1.0


def test_solves_above_the_old_cap():
    # 67 points of multiplicity 2: 201 constraints, one past the 200 of the
    # per-oracle cap that check_work replaced
    inst = random_instance(PrimeField(754974721), random.Random(67), 67, 2, 1, uniform_s=2)
    assert inst.constraint_count() == 201
    q, mindeg = minimal_solution(inst)
    assert mindeg == q.weighted_degree(1) == min(fast.solve(inst)[1])
