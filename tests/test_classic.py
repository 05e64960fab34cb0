import random
import sys

import pytest

from gsinterp.bench import BENCH_PRIME
from gsinterp.bipoly import BiPoly, derivative_orders, hasse_matrices, taylor_vectors
from gsinterp.field import PrimeField
from gsinterp.classic import Run, TrackedBasis, certify, eliminate_run, interpolate, shift_plan
from gsinterp.fast import solve_basis
from gsinterp.oracle import minimal_solution
from gsinterp.problem import InterpolationInstance, random_instance
from gsinterp.unipoly import UniPoly, count_scalar_mults
from util import (
    golden_instances, logged, proportional, rand_bipoly, rand_unipoly, shift_values, x_degree,
)

F3 = PrimeField(3)
F5 = PrimeField(5)
F101 = PrimeField(101)


def collinear_instance():
    return InterpolationInstance(F3, [(0, 0), (1, 1), (2, 2)], [1, 1, 1], ell=1, w=1)


def rand_inst(rng, field=F101, nmax=8, smax=3):
    return random_instance(
        field, rng, rng.randint(1, nmax), rng.randint(1, 4), rng.randint(1, 4),
        smin=1, smax=smax,
    )


# -- worked examples -----------------------------------------------------------


def test_collinear_example():
    q, basis = interpolate(collinear_instance(), "naive")
    y_minus_x = BiPoly.from_monomials(F3, 1, [(0, 1, 1), (1, 0, -1)])
    assert proportional(q, y_minus_x)
    assert q.weighted_degree(1) == 1


def test_single_point_basis_example():
    inst = InterpolationInstance(F5, [(0, 0)], [1], ell=1, w=1)
    q, basis = interpolate(inst, "naive")
    x_elem = BiPoly.from_monomials(F5, 1, [(1, 0, 1)])
    y_elem = BiPoly.from_monomials(F5, 1, [(0, 1, 1)])
    got = {e.pretty() for e in basis.elems}
    assert got == {x_elem.pretty(), y_elem.pretty()}
    assert basis.deltas == [1, 1]
    assert any(proportional(q, e) for e in (x_elem, y_elem))


def test_returned_q_satisfies_constraints():
    rng = random.Random(0)
    for _ in range(25):
        inst = rand_inst(rng)
        q, _ = interpolate(inst, "cached")
        for (x, y), s in zip(inst.points, inst.mults):
            assert q.has_multiplicity(x, y, s)


def test_minimality_matches_oracle():
    rng = random.Random(1)
    for _ in range(25):
        inst = rand_inst(rng, nmax=6)
        q, basis = interpolate(inst, "cached")
        _, mindeg = minimal_solution(inst)
        assert q.weighted_degree(inst.w) == min(basis.deltas) == mindeg


# -- invariants ------------------------------------------------------------------


def test_prefix_bases_satisfy_processed_points():
    # after processing points 1..i, every element vanishes to order s_h at
    # every processed point; prefixes are realized as truncated instances
    rng = random.Random(2)
    full = rand_inst(rng, nmax=6)
    for i in range(1, full.n + 1):
        prefix = InterpolationInstance(
            full.field, full.points[:i], full.mults[:i], full.ell, full.w
        )
        _, basis = interpolate(prefix, "cached")
        assert certify(prefix, basis) == []


def test_leading_positions_stay_a_permutation():
    # element j starts as y^j and keeps leading y-position j, in every solver
    rng = random.Random(3)
    for _ in range(20):
        inst = rand_inst(rng)
        bases = [interpolate(inst, mode)[1] for mode in ("naive", "cached")]
        bases.append(solve_basis(inst))
        for basis in bases:
            assert certify(inst, basis) == []


def test_x_degree_bound():
    # the classical argument bounds every row by the total multiplicity;
    # the bound is attained (single point, s=1 already reaches it)
    rng = random.Random(4)
    for _ in range(20):
        inst = rand_inst(rng)
        _, basis = interpolate(inst, "cached")
        bound = sum(inst.mults)
        for e in basis.elems:
            assert x_degree(e) <= bound
    inst = InterpolationInstance(F5, [(0, 0)], [1], ell=1, w=1)
    _, basis = interpolate(inst, "naive")
    assert max(x_degree(e) for e in basis.elems) == 1


def test_pivot_chosen_once_per_derivative_row():
    rng = random.Random(5)
    for _ in range(15):
        inst = rand_inst(rng, nmax=5)
        _, log = logged(interpolate, inst, "cached")
        seen = set()
        per_point = {}
        for point, dx, dy, t in log:
            assert (point, dx, t) not in seen  # never re-chosen for the same dx
            seen.add((point, dx, t))
            per_point[(point, t)] = per_point.get((point, t), 0) + 1
        for (point, t), count in per_point.items():
            assert count <= inst.mults[point]


def test_delta_bookkeeping_exact():
    rng = random.Random(6)
    for _ in range(20):
        inst = rand_inst(rng)
        _, basis = interpolate(inst, "cached")
        for e, d in zip(basis.elems, basis.deltas):
            assert e.weighted_degree(inst.w) == d


def test_modes_bit_identical():
    rng = random.Random(7)
    for _ in range(100):
        inst = rand_inst(rng)
        _, b1 = interpolate(inst, "naive")
        _, b2 = interpolate(inst, "cached")
        assert b1.deltas == b2.deltas
        assert all(x == y for x, y in zip(b1.elems, b2.elems))


def test_usage_errors():
    with pytest.raises(ValueError):
        interpolate(collinear_instance(), "bogus")
    with pytest.raises(ValueError):
        InterpolationInstance(F5, [], [], 1, 1)


# -- flat Hasse values: the pivot shift and the row combination ----------------------


def _values(field, elems, points, mults):
    """Each element's flat Hasse values at the points, concatenated in order."""
    rows = [[r.coeffs for r in e.rows] for e in elems]
    return hasse_matrices(field, rows, points, mults)


def test_hasse_shift_down_example():
    # at the pivot's own point the shift moves every dx row down one: the
    # values (0,0), (0,1), (1,0) of [[7, 9], [3, -]] become those of [[0, 0], [7, -]]
    assert shift_values([7, 9, 3], shift_plan([4], [2], 4, 101), 101) == [0, 0, 7]


def test_hasse_shift_down_edge_cases():
    assert shift_values([0, 0, 0], shift_plan([4], [2], 4, 101), 101) == [0, 0, 0]
    assert shift_values([5], shift_plan([4], [1], 4, 101), 101) == [0]
    assert shift_plan([], [], 3, 101) == ([], [])


def _edge_points(field, rng, n):
    """n points with distinct x; s up to p + 2, so s >= p in GF(2) and GF(3)."""
    xs = rng.sample(range(field.p), n)
    return [(x, field.rand(rng)) for x in xs], [rng.randint(1, min(field.p, 4) + 2) for _ in xs]


def test_hasse_shift_down_matches_multiplication():
    # the planned shift of an element's flat values at several points equals
    # the values of (x - xi) * element at those points, whether or not xi is
    # one of them (it is the first point when it is, as in a run)
    rng = random.Random(8)
    for p in (2, 3, 101, BENCH_PRIME):
        field = PrimeField(p)
        for trial in range(20):
            q = rand_bipoly(field, rng, rng.randint(0, 3), rng.randint(0, 9))
            points, mults = _edge_points(field, rng, rng.randint(1, min(p, 4)))
            xi = points[0][0] if trial % 3 else field.rand(rng)
            xs = [x for x, _ in points]
            [vec] = _values(field, [q], points, mults)
            [want] = _values(field, [q.mul_linear(xi)], points, mults)
            assert shift_values(vec, shift_plan(xs, mults, xi, p), p) == want


def test_hasse_combine():
    # the row combination of flat values equals the values of the combined element
    rng = random.Random(9)
    for p in (2, 3, 101, BENCH_PRIME):
        field = PrimeField(p)
        for _ in range(20):
            ell = rng.randint(0, 3)
            a, b = (rand_bipoly(field, rng, ell, rng.randint(0, 9)) for _ in range(2))
            points, mults = _edge_points(field, rng, rng.randint(1, min(p, 4)))
            c = field.rand(rng)
            va, vb = _values(field, [a, b], points, mults)
            [want] = _values(field, [a.sub_scaled(c, b)], points, mults)
            assert [(u - c * v) % p for u, v in zip(va, vb)] == want


# -- the shared elimination step ----------------------------------------------------


def _sequential_point(field, elems, extra, deltas, xi, yi, s, log, index):
    """Reference for one point of eliminate_run: every round recomputes its
    Hasse values from the current elements by the direct formula, and applies
    the row operations through UniPoly.sub_scaled / mul_linear to the
    elements and to the extra rows riding along (as a transform does in the
    fast solver)."""
    p = field.p
    for dx, dy in derivative_orders(s):
        values = [e.hasse_derivative(xi, yi, dx, dy) for e in elems]
        live = [j for j, v in enumerate(values) if v]
        if not live:
            continue
        t = min(live, key=lambda j: (deltas[j], -j))
        log.append((index, dx, dy, t))
        inv = field.inv(values[t])
        for j in live:
            if j != t:
                c = values[j] * inv % p
                elems[j] = elems[j].sub_scaled(c, elems[t])
                extra[j] = [a.sub_scaled(c, b) for a, b in zip(extra[j], extra[t])]
        elems[t] = elems[t].mul_linear(xi)
        extra[t] = [r.mul_linear(xi) for r in extra[t]]
        deltas[t] += 1


def _joined_rows(extra, elems):
    """Row j: the extra entries of row j, then the y-power rows of element j."""
    return [[u.coeffs for u in x] + [u.coeffs for u in e.rows] for x, e in zip(extra, elems)]


def test_eliminate_run_multi_round_matches_sequential_reference():
    # a run of a point and up to three later ones, against the point-by-point
    # reference; the values at the later points ride along while the first
    # point is eliminated, so a wrong carried value leaves an element that
    # does not vanish at some later point
    rng = random.Random(42)
    for p in (2, 3, 101, BENCH_PRIME):
        field = PrimeField(p)
        for _ in range(12):
            ell = rng.randint(0, 5)
            s = rng.randint(1, 4)
            xi, yi = field.rand(rng), field.rand(rng)
            later = [x for x in dict.fromkeys(field.rand(rng) for _ in range(rng.randint(0, 3)))
                     if x != xi]
            points = [(xi, yi)] + [(x, field.rand(rng)) for x in later]
            mults = [s] + [rng.randint(1, 4) for _ in later]
            elems = [rand_bipoly(field, rng, ell, 6) for _ in range(ell + 1)]
            extra = [
                [rand_unipoly(field, rng, rng.randint(0, 5)) if rng.random() < 0.7
                 else UniPoly.zero(field) for _ in range(ell + 1)]
                for _ in range(ell + 1)
            ]
            deltas = [rng.randint(0, 6) for _ in range(ell + 1)]
            rows = _joined_rows(extra, elems)
            handed_in = [list(r) for r in rows]
            snapshot = [[list(c) for c in r] for r in rows]
            got_deltas = list(deltas)
            elem_rows = [[r.coeffs for r in e.rows] for e in elems]
            got_rows, got_log = logged(eliminate_run, field, Run([x for x, _ in points], mults, p, 5),
                                       [y for _, y in points], elem_rows, rows, got_deltas)

            want_log = []
            for i, ((x, y), m) in enumerate(zip(points, mults)):
                _sequential_point(field, elems, extra, deltas, x, y, m, want_log, 5 + i)
            assert got_log == want_log and got_deltas == deltas
            assert got_rows == _joined_rows(extra, elems)
            # every returned element vanishes to order s at every run point,
            # and the entries the caller handed in were never mutated
            for row in got_rows:
                elem = BiPoly(field, ell, [UniPoly(field, c) for c in row[ell + 1 :]])
                assert not any(elem.hasse_derivative(x, y, dx, dy)
                               for (x, y), m in zip(points, mults) for dx, dy in derivative_orders(m))
            assert handed_in == snapshot


def test_run_keeps_its_x_side_from_the_second_use():
    xs, mults = [3, 5, 7], [2, 1, 3]
    run = Run(xs, mults, 101, 0)
    want = ([shift_plan(xs[i:], mults[i:], x, 101) for i, x in enumerate(xs)],
            [taylor_vectors(x, s, 4, 101) for x, s in zip(xs, mults)])
    first, second = run.xside(4), run.xside(4)
    assert first == second == want
    assert first[0] is not second[0] and first[1] is not second[1]  # the first kept nothing
    assert run.xside(4)[0] is second[0] and run.xside(2)[1] is second[1]
    plans, longer = run.xside(9)
    assert plans is second[0]
    assert longer == [taylor_vectors(x, s, 9, 101) for x, s in zip(xs, mults)]
    assert run.xside(5)[1] is longer


@pytest.mark.parametrize(
    "p", [2, 3, 101, 65521, BENCH_PRIME, 4294967291, 4294967311, 2**61 - 1, 2**64 - 59]
)
def test_eliminate_run_matches_sequential_reference(p):
    # whole runs against the point-by-point reference. In trial 1 a leaf
    # run of 16 points of s = 6 makes 336 rounds. With 11 elements, the ten
    # of small delta can take every round's pivot, so the last one, whose
    # delta is out of reach, takes a row operation in nearly every round:
    # more unreduced additions than a lane holds at the bench prime (32), at
    # 2^61 - 1 (64) and at 4294967291 and 2^64 - 59 (256), so rows must be
    # reduced on the way; 2^64 - 59 runs the widest lane, 17 bytes
    field = PrimeField(p)
    rng = random.Random(p % 10007)
    for trial in range(6):
        long_run = trial == 1
        ell = 10 if long_run else rng.randint(1, 3)
        npts = min(p, 16 if long_run else rng.randint(1, 5))
        # range(p) has no len above sys.maxsize
        xs = rng.sample(range(min(p, sys.maxsize)), npts)
        points = [(x, field.rand(rng)) for x in xs]
        mults = [6 if long_run else rng.randint(1, 4) for _ in xs]
        elems = [rand_bipoly(field, rng, ell, 6) for _ in range(ell + 1)]
        extra = [[rand_unipoly(field, rng, rng.randint(0, 5)) for _ in range(ell + 1)]
                 for _ in range(ell + 1)]
        deltas = [rng.randint(0, 6) for _ in range(ell + 1)]
        if long_run:
            deltas[-1] = 10**6
        rows = _joined_rows(extra, elems)
        got_deltas = list(deltas)
        elem_rows = [[r.coeffs for r in e.rows] for e in elems]
        got, got_log = logged(eliminate_run, field, Run(xs, mults, p, 3), [y for _, y in points],
                              elem_rows, rows, got_deltas)

        want_log = []
        for i, ((x, y), s) in enumerate(zip(points, mults)):
            _sequential_point(field, elems, extra, deltas, x, y, s, want_log, 3 + i)
        assert got_log == want_log and got_deltas == deltas
        assert got == _joined_rows(extra, elems)


# -- the certificate -----------------------------------------------------------


def test_certify_passes_every_bundled_and_golden_instance():
    for inst in golden_instances():
        assert certify(inst, interpolate(inst, "cached")[1]) == [], inst
        assert certify(inst, solve_basis(inst)) == [], inst


def _times_x(inst, basis):
    return inst, TrackedBasis([basis.elems[0].mul_linear(0)] + basis.elems[1:], basis.deltas)


def _swapped(inst, basis):
    e, d = basis.elems, basis.deltas
    return inst, TrackedBasis([e[1], e[0]] + e[2:], [d[1], d[0]] + d[2:])


def _plus_xk(inst, basis):
    # element 1 plus x^k times element 0, x^k * element 0 of weighted degree
    # above element 1's, so that the sum leads in y-position 0
    e0, e1 = basis.elems[:2]
    w, p = inst.w, inst.field.p
    for _ in range(max(0, e1.weighted_degree(w) - e0.weighted_degree(w) + 1)):
        e0 = e0.mul_linear(0)
    return inst, TrackedBasis([basis.elems[0], e1.sub_scaled(p - 1, e0)] + basis.elems[2:],
                              basis.deltas)


def _deltas_off(inst, basis):
    # certify reads the deltas off the elements, so wrong recorded ones pass
    return inst, TrackedBasis(basis.elems, [d + 1 for d in basis.deltas])


def _point_dropped(inst, basis):
    rest = InterpolationInstance(inst.field, inst.points[:-1], inst.mults[:-1], inst.ell, inst.w)
    return inst, solve_basis(rest)


CERTIFY_INSTANCES = {
    "bench": random_instance(PrimeField(BENCH_PRIME), random.Random(1), 24, 3, 2, uniform_s=2),
    "char2": InterpolationInstance(PrimeField(2), [(0, 1), (1, 0)], [3, 2], ell=2, w=1),
    "ell0": random_instance(F101, random.Random(2), 6, 0, 1, smin=1, smax=3),
    "s_above_ell": random_instance(F101, random.Random(3), 5, 1, 2, uniform_s=4),
}
CERTIFY_MUTANTS = {
    "none": (None, []),
    "times_x": (_times_x, ["colength"]),
    "swapped": (_swapped, ["positions"]),
    "plus_xk": (_plus_xk, ["positions", "colength"]),
    "point_dropped": (_point_dropped, ["multiplicity", "colength"]),
    "deltas_off": (_deltas_off, []),
}


@pytest.mark.parametrize("kind, mutant", [
    (kind, mutant) for kind in CERTIFY_INSTANCES for mutant in CERTIFY_MUTANTS
    # one element has no other to swap with or add
    if kind != "ell0" or mutant not in ("swapped", "plus_xk")
])
def test_certify_fails_each_mutated_basis(kind, mutant):
    inst = CERTIFY_INSTANCES[kind]
    mutate, want = CERTIFY_MUTANTS[mutant]
    basis = solve_basis(inst)
    if mutate is not None:
        inst, basis = mutate(inst, basis)
    assert certify(inst, basis) == want


def test_certify_positions_break_ties_toward_x():
    # y + x at w = 1: x and y tie, and the larger x power leads, so the
    # element leads in y-position 0; {x + y, y} passes the positions check,
    # {y, x + y} does not
    F = PrimeField(5)
    inst = InterpolationInstance(F, [(0, 0)], [1], ell=1, w=1)
    x_plus_y = BiPoly.from_monomials(F, 1, [(1, 0, 1), (0, 1, 1)])
    y = BiPoly.from_monomials(F, 1, [(0, 1, 1)])
    assert "positions" not in certify(inst, TrackedBasis([x_plus_y, y], [1, 1]))
    assert "positions" in certify(inst, TrackedBasis([y, x_plus_y], [1, 1]))


def test_certify_fast_basis_at_scale():
    inst = random_instance(PrimeField(BENCH_PRIME), random.Random(11), 1024, 2, 1, uniform_s=2)
    assert certify(inst, solve_basis(inst)) == []


def test_word_sized_primes_do_the_bench_primes_work():
    # eliminate_run's lanes hold 32 unreduced additions or more at every
    # prime, so a row is reduced no more often at 32- and 64-bit primes than
    # at the bench prime, and the counted work of both solvers is the same
    counts = []
    for p in (BENCH_PRIME, 2**32 - 5, 2**64 - 59):
        inst = random_instance(PrimeField(p), random.Random(3), 64, 2, 1, uniform_s=2)
        with count_scalar_mults() as cached:
            interpolate(inst, "cached")
        with count_scalar_mults() as fast_ctr:
            solve_basis(inst)
        counts.append((cached.mults, fast_ctr.mults))
    assert counts[0] == counts[1] == counts[2]
