import random

import pytest

from gsinterp.bipoly import BiPoly
from gsinterp.fast import (
    NEWTON_REM_MIN,
    Schedule,
    _ModNode,
    _poly_matmul,
    compose,
    interpolate_tree,
    solve,
    solve_basis,
)
from gsinterp.field import PrimeField
from gsinterp.classic import LEAF_MAX, Run, TrackedBasis, certify, eliminate_run, interpolate
from gsinterp.oracle import minimal_solution
from gsinterp.problem import InterpolationInstance, random_instance
from gsinterp.unipoly import UniPoly, count_scalar_mults
from util import (
    BENCH_PRIME, bundled_instances, build_update_matrix, coeff_rows, golden_instances, identity,
    logged, poly_rows, proportional, poly_mod, poly_pow, rand_bipoly, rand_nonzero, rand_unipoly,
    reduce_mod, schoolbook_product, standard_basis, x_degree, x_minus,
)

F3 = PrimeField(3)
F5 = PrimeField(5)
F101 = PrimeField(101)


def apply(T, elems):
    """Matrix action over F[x]: result_j = sum_k T[j][k] * elems_k, for T in
    the row format of coefficient lists."""
    field, ell = elems[0].field, elems[0].ell
    C = _poly_matmul(field, T, coeff_rows([e.rows for e in elems]))
    return [BiPoly(field, ell, row) for row in poly_rows(field, C)]


def tree_args(basis):
    """A TrackedBasis as interpolate_tree's field, elems and deltas arguments."""
    return basis.elems[0].field, coeff_rows([e.rows for e in basis.elems]), list(basis.deltas)


def tree(points, mults, field, elems, deltas):
    """interpolate_tree over the root of a fresh Schedule of the points, its
    spine composed."""
    node = Schedule(field, points, mults).tree
    spine, deltas = interpolate_tree([y for _, y in points], node, field, elems, deltas)
    return compose(field, spine), deltas


def one_point(point, s, basis):
    """Reference for one point: the shared run driver on a one-point run, with
    an identity transform in the row format riding along the given basis."""
    field = basis.elems[0].field
    T = coeff_rows(identity(field, basis.elems[0].ell))
    deltas = list(basis.deltas)
    T = eliminate_run(field, Run([point[0]], [s], field.p, 0), [point[1]],
                      coeff_rows([e.rows for e in basis.elems]), T, deltas)
    return T, deltas


def reduced_standard(field, ell, w, modulus):
    base = standard_basis(field, ell, w)
    return TrackedBasis([reduce_mod(e, modulus) for e in base.elems], base.deltas)


def rand_inst(rng, field=F101, nmax=8, smax=3):
    return random_instance(
        field, rng, rng.randint(1, nmax), rng.randint(1, 4), rng.randint(1, 4),
        smin=1, smax=smax,
    )


# -- update matrix ----------------------------------------------------------------


def test_update_matrix_shape():
    c = 4
    U = build_update_matrix(F5, 1, 0, [1, c], 2)
    assert U[0][0] == x_minus(F5, 2)
    assert U[0][1].is_zero()
    assert U[1][0] == UniPoly(F5, [-c])
    assert U[1][1] == UniPoly.one(F5)


def test_update_matrix_zero_ratios():
    U = build_update_matrix(F5, 2, 1, [0, 1, 0], 3)
    I = identity(F5, 2)
    for i in range(3):
        for j in range(3):
            if (i, j) == (1, 1):
                assert U[i][j] == x_minus(F5, 3)
            else:
                assert U[i][j] == I[i][j]


def test_update_matrix_action_is_row_operation():
    rng = random.Random(0)
    for _ in range(20):
        ell = rng.randint(0, 3)
        t = rng.randint(0, ell)
        xi = F101.rand(rng)
        ratios = [F101.rand(rng) for _ in range(ell + 1)]
        ratios[t] = 1
        U = build_update_matrix(F101, ell, t, ratios, xi)
        basis = [rand_bipoly(F101, rng, ell, 5) for _ in range(ell + 1)]
        got = apply(coeff_rows(U), basis)
        for j in range(ell + 1):
            if j == t:
                assert got[j] == basis[j].mul_linear(xi)
            else:
                assert got[j] == basis[j].sub_scaled(ratios[j], basis[t])


def test_one_point_run_row_update_equals_matrix_product():
    # with s = 1 there is one round, so the row update of a one-point run on
    # a random transform must equal one explicit update matrix applied on the
    # left; element j is the constant values[j], its one Hasse value
    rng = random.Random(1)
    for _ in range(20):
        ell = rng.randint(0, 3)
        T = [[UniPoly(F101, [F101.rand(rng) for _ in range(rng.randint(0, 4))])
              for _ in range(ell + 1)] for _ in range(ell + 1)]
        values = [F101.rand(rng) for _ in range(ell + 1)]
        values[rng.randint(0, ell)] = rand_nonzero(F101, rng)
        deltas = [rng.randint(0, 5) for _ in range(ell + 1)]
        xi = F101.rand(rng)
        t = min((j for j in range(ell + 1) if values[j]), key=lambda j: (deltas[j], -j))
        ratios = [v * F101.inv(values[t]) % 101 for v in values]
        want_deltas = list(deltas)
        want_deltas[t] += 1
        elems = [[[v] if v else []] + [[] for _ in range(ell)] for v in values]
        rows, log = logged(eliminate_run, F101, Run([xi], [1], 101, 7), [F101.rand(rng)], elems,
                           coeff_rows(T), deltas)
        want = _poly_matmul(F101, coeff_rows(build_update_matrix(F101, ell, t, ratios, xi)),
                            coeff_rows(T))
        assert rows == want
        assert deltas == want_deltas
        assert log == [(7, 0, 0, t)]


# -- the one-point run ---------------------------------------------------------------


def test_one_point_tree_hand_trace():
    T, deltas = tree([(0, 0)], [1], *tree_args(standard_basis(F5, 1, 1)))
    assert T[0][0] == [0, 1]  # x
    assert T[0][1] == []
    assert T[1][0] == []
    assert T[1][1] == [1]
    assert deltas == [1, 1]


def test_one_point_tree_noop_when_satisfied():
    # basis elements already vanishing at the point reduce to zero mod (x-a),
    # so every Hasse value is zero and the transform must stay the identity
    a = 2
    T, deltas = tree([(a, 3)], [1], F5, [[[], []], [[], []]], [1, 2])
    assert T == coeff_rows(identity(F5, 1))
    assert deltas == [1, 2]


def test_one_point_tree_random_postconditions():
    rng = random.Random(2)
    for _ in range(30):
        ell = rng.randint(0, 3)
        w = rng.randint(1, 3)
        s = rng.randint(1, 3)
        xi, yi = F101.rand(rng), F101.rand(rng)
        full = standard_basis(F101, ell, w).elems
        reduced = reduced_standard(F101, ell, w, poly_pow(x_minus(F101, xi), s))
        T, deltas = tree([(xi, yi)], [s], *tree_args(reduced))
        updated = apply(T, full)
        assert max(x_degree(e) for e in updated) <= s
        assert [e.weighted_degree(w) for e in updated] == deltas
        one_point = InterpolationInstance(F101, [(xi, yi)], [s], ell, w)
        assert certify(one_point, TrackedBasis(updated, deltas)) == []


def test_one_point_tree_dimension_check():
    # one element of two rows against one delta, then two elements against one
    with pytest.raises(ValueError):
        tree([(0, 0)], [1], F5, [[[1], []]], [0])
    with pytest.raises(ValueError):
        tree([(0, 0)], [1], F5, [[[1]], [[]]], [0])
    with pytest.raises(ValueError):
        tree([(0, 0)], [1], F5, [], [])


# -- interpolate_tree -----------------------------------------------------------------


def test_tree_single_point_equals_point():
    rng = random.Random(3)
    for _ in range(10):
        ell = rng.randint(0, 3)
        w = rng.randint(1, 3)
        s = rng.randint(1, 3)
        point = (F101.rand(rng), F101.rand(rng))
        reduced = reduced_standard(F101, ell, w, poly_pow(x_minus(F101, point[0]), s))
        T1, d1 = tree([point], [s], *tree_args(reduced))
        T2, d2 = one_point(point, s, reduced)
        assert T1 == T2 and d1 == d2


def test_tree_collinear_example():
    inst = InterpolationInstance(F3, [(0, 0), (1, 1), (2, 2)], [1, 1, 1], ell=1, w=1)
    q, deltas = solve(inst)
    y_minus_x = BiPoly.from_monomials(F3, 1, [(0, 1, 1), (1, 0, -1)])
    assert proportional(q, y_minus_x)
    assert min(deltas) == 1


def test_tree_two_points_matches_sequential_reference():
    rng = random.Random(4)
    for _ in range(20):
        ell = rng.randint(0, 3)
        w = rng.randint(1, 3)
        s1, s2 = rng.randint(1, 3), rng.randint(1, 3)
        x1, x2 = rng.sample(range(101), 2)
        pts = [(x1, F101.rand(rng)), (x2, F101.rand(rng))]
        base = standard_basis(F101, ell, w)

        # reference: two explicit point steps with the intermediate reduction
        m1 = poly_pow(x_minus(F101, x1), s1)
        T1, d1 = one_point(pts[0], s1, reduced_standard(F101, ell, w, m1))
        m2 = poly_pow(x_minus(F101, x2), s2)
        applied = [reduce_mod(e, m2) for e in apply(T1, base.elems)]
        T2, d2 = one_point(pts[1], s2, TrackedBasis(applied, d1))
        want = _poly_matmul(F101, T2, T1)

        T, d = tree(pts, [s1, s2], *tree_args(reduced_standard(F101, ell, w, m1 * m2)))
        assert T == want and d == d2


def test_tree_usage_errors():
    # the points are checked where the x-side is built: no points, fewer
    # multiplicities than points and more
    with pytest.raises(ValueError):
        Schedule(F5, [], [])
    with pytest.raises(ValueError):
        Schedule(F5, [(0, 0), (1, 1)], [1])
    with pytest.raises(ValueError):
        Schedule(F5, [(0, 0)], [1, 2])


def test_modulus_tree_structure(monkeypatch):
    # runs of one point take the tree down to single points; in
    # characteristic 2 and 3 the binomial cross terms of a leaf's
    # (x - x_i)^s vanish, and at 2^64 - 59 its products wrap
    monkeypatch.setattr("gsinterp.classic.LEAF_MAX", 1)
    big = PrimeField(2**64 - 59)
    cases = [
        (F101, [(i, 0) for i in range(5)], [1, 2, 1, 3, 1]),
        (PrimeField(2), [(0, 1), (1, 0)], [8, 6]),
        (F3, [(2, 0), (0, 1), (1, 2)], [4, 8, 3]),
        (big, [(big.p - 1 - i, i) for i in range(4)] + [(0, 1)], [8, 7, 2, 5, 1]),
    ]
    for field, pts, mults in cases:
        root = Schedule(field, pts, mults).tree
        assert root.lo == 0 and root.hi == len(pts) - 1
        assert len(root.modulus) - 1 == sum(mults)

        def walk(node):
            if node.left is None:
                want = poly_pow(x_minus(field, pts[node.lo][0]), mults[node.lo])
                assert node.modulus == want.coeffs
                assert node.run.lo == node.lo == node.hi
                return
            assert node.run is None
            left, right = UniPoly(field, node.left.modulus), UniPoly(field, node.right.modulus)
            assert node.modulus == schoolbook_product(left, right).coeffs
            assert node.left.hi + 1 == node.right.lo
            walk(node.left)
            walk(node.right)

        walk(root)


@pytest.mark.parametrize("n", [1, LEAF_MAX, LEAF_MAX + 1, 100])
def test_schedule_stops_at_runs(monkeypatch, n):
    # the tree's leaves are the runs, the highest nodes of at most LEAF_MAX
    # points, and no node below a run is built; a run's modulus is the
    # product over its points, and its Run knows where it starts. Besides
    # GF(101), the runs' moduli are checked in characteristic 2 and 3, where
    # the binomial cross terms of (x - x_i)^s vanish, and at 2^64 - 59,
    # where they wrap, with multiplicities up to 8
    rng = random.Random(n)
    insts = [random_instance(F101, rng, n, 1, 1, smin=1, smax=3)]
    insts += [random_instance(PrimeField(p), rng, n, 1, 1, smax=8)
              for p in (2, 3, 2**64 - 59) if n <= p]
    built = []

    class Counted(_ModNode):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr("gsinterp.fast._ModNode", Counted)
    counted = []
    for inst in insts:
        field = inst.field
        built.clear()
        walked, leaves = [], []

        def walk(node):
            walked.append(node)
            if node.run is None:
                assert node.hi - node.lo + 1 > LEAF_MAX
                assert node.left.hi + 1 == node.right.lo
                walk(node.left)
                walk(node.right)
                return
            assert node.left is None and node.right is None
            assert node.hi - node.lo + 1 <= LEAF_MAX
            modulus = UniPoly.one(field)
            for (x, _), s in zip(inst.points[node.lo : node.hi + 1], inst.mults[node.lo : node.hi + 1]):
                modulus = schoolbook_product(modulus, poly_pow(x_minus(field, x), s))
            assert node.modulus == modulus.coeffs
            assert node.run.lo == node.lo
            assert node.run.xs == [x for x, _ in inst.points[node.lo : node.hi + 1]]
            assert node.run.mults == inst.mults[node.lo : node.hi + 1]
            leaves.append((node.lo, node.hi))

        with count_scalar_mults() as ctr:
            schedule = Schedule(field, inst.points, inst.mults)
        walk(schedule.tree)
        assert len(built) == len(walked)
        counted.append(ctr.mults)
        assert leaves[0][0] == 0 and leaves[-1][1] == n - 1
        assert all(a[1] + 1 == b[0] for a, b in zip(leaves, leaves[1:]))
        assert len(leaves) == {1: 1, LEAF_MAX: 1, LEAF_MAX + 1: 2, 100: 8}[n]
    if n == 1:  # a point's own factor (x - x_i)^s is built uncounted
        assert counted == [0] * len(insts)
    # a run's modulus is the product a tree down to single points forms, in
    # the same split order, so building the schedule counts the same work
    monkeypatch.setattr("gsinterp.classic.LEAF_MAX", 1)
    for inst, mults in zip(insts, counted):
        with count_scalar_mults() as full:
            Schedule(inst.field, inst.points, inst.mults)
        assert mults == full.mults


def test_modnode_rem_matches_divmod():
    # quotient lengths straddle reduce's Newton threshold (32) and modulus
    # degrees straddle NEWTON_REM_MIN, so the node's packed modulus is
    # checked against schoolbook division by both paths. Its packed -m is
    # cached by slot width and J by precision, so one node sees a long
    # quotient, then a short one, then longer ones: at 2^64 - 59 and
    # dm = 300 the synthetic division's slots are 17 bytes and Newton's 18,
    # and at dm = 48, 280 rebuilds J with slots of 18 bytes, not 17, and 300
    # at the same width. Constant moduli and p = 2 cover the edges of the
    # synthetic division; 2^32 - 5 and 2^64 - 59 have slots of 9 and 17
    # bytes and more. In the widest cases reversed m is x - 1, whose inverse
    # has every coefficient p - 1, and so has f: Newton's slots reach their
    # bound, qlen (p - 1)^2
    rng = random.Random(12)
    FN, F2 = PrimeField(754974721), PrimeField(2)
    F32, F64 = PrimeField(2**32 - 5), PrimeField(2**64 - 59)
    cases = [(field, dm, False) for field, dm in (
        (FN, NEWTON_REM_MIN - 1), (FN, NEWTON_REM_MIN), (FN, 70), (FN, 0),
        (F2, 0), (F2, 5), (F2, NEWTON_REM_MIN),
        (F32, 5), (F32, NEWTON_REM_MIN), (F64, 5), (F64, NEWTON_REM_MIN), (F64, 300),
    )] + [(FN, NEWTON_REM_MIN, True), (F64, NEWTON_REM_MIN, True)]
    for field, dm, wide in cases:
        p = field.p
        m = UniPoly(field, [0] * (dm - 1) + [1, p - 1]) if wide else rand_unipoly(field, rng, dm)
        node = _ModNode(0, 0, m.coeffs)
        f = rand_unipoly(field, rng, dm - 1) if dm else UniPoly.zero(field)
        assert node.reduce(f.coeffs, field) == f.coeffs
        for qlen in (1, 31, 32, 47, 48, 90, 20, 280, 300):
            f = UniPoly(field, [p - 1] * (dm + qlen)) if wide else rand_unipoly(field, rng, dm + qlen - 1)
            assert node.reduce(f.coeffs, field) == poly_mod(f, m).coeffs
        assert node._mod._prec == (max(300, dm + 1) if dm >= NEWTON_REM_MIN else 0)


# -- polynomial matrix product ------------------------------------------------------------


def _entry(field, rng):
    """Zero, all coefficients p - 1 (the widest slot sums), or random, with
    lengths from 1 to 41 so the packed entries differ in size."""
    kind = rng.random()
    if kind < 0.25:
        return UniPoly.zero(field)
    length = rng.choice((1, 2, 3, 9, 17, 41))
    if kind < 0.5:
        return UniPoly(field, [field.p - 1] * length)
    return rand_unipoly(field, rng, length - 1)


@pytest.mark.parametrize("p", [2, 101, 754974721, 2**61 - 1])
def test_poly_matmul_matches_entrywise_products(p):
    field = PrimeField(p)
    rng = random.Random(p % 997)
    for _ in range(25):
        m, k, r = rng.randint(1, 4), rng.randint(1, 5), rng.randint(1, 4)
        A = [[_entry(field, rng) for _ in range(k)] for _ in range(m)]
        B = [[_entry(field, rng) for _ in range(r)] for _ in range(k)]
        want = [[UniPoly.zero(field) for _ in range(r)] for _ in range(m)]
        slots = 0
        for i in range(m):
            for j in range(r):
                for l in range(k):
                    want[i][j] = want[i][j] + schoolbook_product(A[i][l], B[l][j])
                lens = [len(A[i][l].coeffs) + len(B[l][j].coeffs) - 1
                        for l in range(k) if A[i][l] and B[l][j]]
                slots += max(lens, default=0)
        with count_scalar_mults() as ctr:
            got = _poly_matmul(field, coeff_rows(A), coeff_rows(B))
        assert got == coeff_rows(want)
        # one count per unpacked output slot
        assert ctr.mults == slots


# (p, la, lb, dm) with k = 2: an output slot sums at most 2 min(la, lb)
# products (p - 1)^2, which _slot_width(2 min(la, lb), p) just holds (8, 9,
# 16 and 17 bytes), so a remainder's additions need the min(qlen, dm) more
# the product packs room for. dm < NEWTON_REM_MIN goes by synthetic
# division; dm >= 48 with a quotient of 32 or more by Newton, its full slots
# within the low dm
_FUSED_CASES = [
    (BENCH_PRIME, 16, 16, 10), (BENCH_PRIME, 16, 100, 64),
    (2**32 - 5, 128, 128, 40), (2**32 - 5, 128, 200, 150),
    (2**61 - 1, 32, 32, 20), (2**61 - 1, 32, 120, 64),
    (2**64 - 59, 128, 128, 40), (2**64 - 59, 128, 200, 150),
]


@pytest.mark.parametrize("p, la, lb, dm", _FUSED_CASES)
def test_poly_matmul_reduces_while_packed(p, la, lb, dm):
    # the product reduced by a node while packed equals the unreduced product
    # reduced entry by entry. Entries of all p - 1 fill the slots to their
    # bound before a random modulus's remainder adds its products; random
    # matrices follow
    field = PrimeField(p)
    rng = random.Random(la * dm)
    full = UniPoly(field, [p - 1] * la), UniPoly(field, [p - 1] * lb)
    cases = [([[full[0], full[0]]], [[full[1], rand_unipoly(field, rng, lb - 1)],
                                     [full[1], UniPoly.zero(field)]], rand_unipoly(field, rng, dm))]
    for _ in range(4):
        m, k, r = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
        cases.append(([[_entry(field, rng) for _ in range(k)] for _ in range(m)],
                      [[_entry(field, rng) for _ in range(r)] for _ in range(k)],
                      rand_unipoly(field, rng, rng.choice((dm, 5, NEWTON_REM_MIN)))))
    for i, (A, B, mod) in enumerate(cases):
        A, B = coeff_rows(A), coeff_rows(B)
        if not any(e for row in A for e in row) or not any(e for row in B for e in row):
            continue
        node, ref = _ModNode(0, 0, mod.coeffs), _ModNode(0, 0, mod.coeffs)
        want = [[ref.reduce(e, field) for e in row] for row in _poly_matmul(field, A, B)]
        assert _poly_matmul(field, A, B, node) == want
        if i == 0:  # the bound case took the path its dm names
            assert (node._mod._prec > 0) == (dm >= NEWTON_REM_MIN)


# -- transform action --------------------------------------------------------------------


def test_apply_identity():
    rng = random.Random(5)
    basis = [rand_bipoly(F101, rng, 2, 5) for _ in range(3)]
    assert apply(coeff_rows(identity(F101, 2)), basis) == basis


# -- solve -------------------------------------------------------------------------------


def test_solve_single_point_ell0():
    inst = InterpolationInstance(F5, [(2, 3)], [1], ell=0, w=1)
    q, deltas = solve(inst)
    assert proportional(q, BiPoly.from_monomials(F5, 0, [(1, 0, 1), (0, 0, -2)]))
    assert deltas == [1]


def test_solve_matches_classic_and_oracle():
    rng = random.Random(7)
    for _ in range(40):
        inst = rand_inst(rng)
        q_fast, deltas = solve(inst)
        _, basis = interpolate(inst, "cached")
        _, mindeg = minimal_solution(inst)
        assert sorted(deltas) == sorted(basis.deltas)
        assert min(deltas) == mindeg
        for (x, y), s in zip(inst.points, inst.mults):
            assert q_fast.has_multiplicity(x, y, s)


def test_solve_basis_bookkeeping_exact():
    rng = random.Random(8)
    for _ in range(25):
        inst = rand_inst(rng, nmax=6)
        basis = solve_basis(inst)
        assert max(x_degree(e) for e in basis.elems) <= sum(inst.mults)
        assert [e.weighted_degree(inst.w) for e in basis.elems] == basis.deltas
        assert certify(inst, basis) == []


def test_delta_sum_counts_pivot_rounds():
    rng = random.Random(9)
    for _ in range(15):
        inst = rand_inst(rng, nmax=6)
        basis, log = logged(solve_basis, inst)
        base_sum = inst.w * inst.ell * (inst.ell + 1) // 2
        assert sum(basis.deltas) == base_sum + len(log)


def test_transform_composition_degrees():
    rng = random.Random(10)
    inst = rand_inst(rng, nmax=8)
    basis, log = logged(solve_basis, inst)
    assert max(x_degree(e) for e in basis.elems) <= sum(inst.mults)


def test_tree_subrange_bookkeeping_exact():
    # exercise trees of every contiguous shape: the recorded deltas must be
    # the true weighted degrees of the materialized transformed basis
    rng = random.Random(11)
    inst = rand_inst(rng, nmax=6)
    w = inst.w
    base = standard_basis(F101, inst.ell, w)
    for i1 in range(inst.n):
        for i2 in range(i1, inst.n):
            pts = inst.points[i1 : i2 + 1]
            mults = inst.mults[i1 : i2 + 1]
            modulus = UniPoly.one(F101)
            for (x, _), s in zip(pts, mults):
                modulus = modulus * poly_pow(x_minus(F101, x), s)
            T, deltas = tree(pts, mults, *tree_args(reduced_standard(F101, inst.ell, w, modulus)))
            updated = apply(T, base.elems)
            assert max(x_degree(e) for e in updated) <= sum(mults)
            assert [e.weighted_degree(w) for e in updated] == deltas
            sub = InterpolationInstance(F101, pts, mults, inst.ell, w)
            assert certify(sub, TrackedBasis(updated, deltas)) == []


# -- one elimination step, three solvers ------------------------------------------------


def _pivot_logs(inst):
    """Pivot logs of classic naive, classic cached and fast, after checking
    that all three give the same elements and deltas."""
    logs, bases = [], []
    for mode in ("naive", "cached"):
        (_, basis), log = logged(interpolate, inst, mode)
        logs.append(log)
        bases.append(basis)
    basis, log = logged(solve_basis, inst)
    bases.append(basis)
    logs.append(log)
    naive, cached, fast_basis = bases
    assert fast_basis.elems == cached.elems == naive.elems
    assert fast_basis.deltas == cached.deltas == naive.deltas
    return logs


def test_pivot_logs_agree_on_bundled_instances():
    for inst in bundled_instances():
        naive, cached, fast = _pivot_logs(inst)
        assert naive == cached == fast


def test_pivot_logs_agree_on_edge_instances():
    # small characteristic (s >= p included), ell = 0, a single point and
    # mixed multiplicities
    rng = random.Random(13)
    for p in (2, 3, 101):
        field = PrimeField(p)
        for k in range(30):
            n = 1 if k % 5 == 0 else rng.randint(1, min(p, 8))
            ell = 0 if k % 3 == 0 else rng.randint(1, 4)
            inst = random_instance(field, rng, n, ell, rng.randint(1, 4), smin=1, smax=4)
            naive, cached, fast = _pivot_logs(inst)
            assert naive == cached == fast


# -- runs of points at the bottom of the tree --------------------------------------------


def _leaf_edge_instances():
    """Every run length from 1 to 2 * LEAF_MAX + 1 over GF(101), plus the
    small fields: p in {2, 3} (so s >= p), ell = 0, w > n, a single point and
    mixed multiplicities 1..4."""
    rng = random.Random(14)
    out = []
    for p in (2, 3):
        field = PrimeField(p)
        for n in range(1, p + 1):
            for ell in (0, 1, 3):
                out.append(random_instance(field, rng, n, ell, rng.randint(1, 4), smin=1, smax=4))
    for n in range(1, 2 * LEAF_MAX + 2):
        for ell, w in ((0, rng.randint(1, 3)), (rng.randint(1, 3), n + rng.randint(1, 3)),
                       (rng.randint(1, 4), rng.randint(1, 4))):
            out.append(random_instance(F101, rng, n, ell, w, smin=1, smax=4))
    return out


def test_leaf_runs_agree_with_classic_and_oracle():
    for inst in _leaf_edge_instances():
        naive, cached, fast = _pivot_logs(inst)
        assert naive == cached == fast
        assert min(solve(inst)[1]) == minimal_solution(inst)[1]


def test_seeded_edge_instances_agree_across_solvers_and_oracle():
    # random instances at the edges the bundled files cover only once each:
    # p in {2, 3} with multiplicities up to p + 2 (s >= p, where Hasse
    # binomials vanish), ell = 0 and w > n
    rng = random.Random(16)
    seen = set()
    for trial in range(120):
        field = PrimeField((2, 3)[trial % 2])
        p = field.p
        n = rng.randint(1, p)
        ell = 0 if trial % 3 == 0 else rng.randint(1, 4)
        w = n + rng.randint(1, 3) if trial % 4 < 2 else rng.randint(1, n)
        inst = random_instance(field, rng, n, ell, w, smin=1, smax=p + 2)
        hits = {"s >= p": max(inst.mults) >= p, "ell = 0": ell == 0, "w > n": w > n}
        seen.update(edge for edge, hit in hits.items() if hit)
        naive, cached, fast = _pivot_logs(inst)  # equal elements and deltas
        assert naive == cached == fast
        q_oracle, mindeg = minimal_solution(inst)
        q, deltas = solve(inst)
        assert min(deltas) == mindeg == q.weighted_degree(w) == q_oracle.weighted_degree(w)
        for (x, y), s in zip(inst.points, inst.mults):
            assert q.has_multiplicity(x, y, s) and q_oracle.has_multiplicity(x, y, s)
    assert seen == {"s >= p", "ell = 0", "w > n"}


@pytest.mark.parametrize("leaf_max", [1, 2, 3, 64])
def test_leaf_cutoff_leaves_output_unchanged(monkeypatch, leaf_max):
    # the recorded transform is the same product of elementary matrices
    # whatever the run length, so every cutoff gives the same basis and log,
    # in the fast solver and in classic cached (point by point at 1)
    rng = random.Random(15)
    insts = [rand_inst(rng, nmax=40) for _ in range(12)]
    solvers = (solve_basis, lambda inst: interpolate(inst, "cached")[1])

    def outputs(inst):
        return [logged(solver, inst) for solver in solvers]

    want = [outputs(inst) for inst in insts]
    # a schedule keeps the run boundaries it was built with; since those never
    # change the output, one built under the old cutoff still serves
    stale = [Schedule(inst.field, inst.points, inst.mults) for inst in insts]
    monkeypatch.setattr("gsinterp.classic.LEAF_MAX", leaf_max)
    for inst, runs, schedule in zip(insts, want, stale):
        for (got, got_log), (basis, log) in zip(outputs(inst), runs):
            assert got.elems == basis.elems and got.deltas == basis.deltas
            assert got_log == log
        got, got_log = logged(solve_basis, inst, schedule)
        basis, log = runs[0]
        assert got.elems == basis.elems and got.deltas == basis.deltas
        assert got_log == log


# -- one schedule, many solves ---------------------------------------------------------


def test_shared_schedule_gives_the_fresh_solves():
    # instances on one set of x's and multiplicities, with their own y's, list
    # sizes and weights: solved in a seeded order on one schedule, each must
    # give the elements, deltas and pivot log of its solve on a fresh one. At
    # n = 128, s = 2 the nodes of 32 points (moduli of degree 64) divide by
    # Newton, so the cached inverses, like the cached Taylor vectors, are met
    # at other lengths than the ones they were built at
    rng = random.Random(17)
    for field, n in ((PrimeField(65521), 128), (PrimeField(3), 3), (F101, 2 * LEAF_MAX + 5)):
        base = random_instance(field, rng, n, 1, 1, smin=1, smax=3,
                               uniform_s=2 if n == 128 else None)
        xs = [x for x, _ in base.points]
        insts = [
            InterpolationInstance(field, [(x, field.rand(rng)) for x in xs], base.mults,
                                  rng.randint(0, 5), rng.randint(1, 6))
            for _ in range(8)
        ]
        schedule = Schedule(field, base.points, base.mults)
        for inst in insts + insts[::-1]:
            got, log = logged(solve_basis, inst, schedule)
            want, want_log = logged(solve_basis, inst)
            assert got.elems == want.elems and got.deltas == want.deltas and log == want_log
            assert solve(inst, schedule) == solve(inst)


def test_schedule_refuses_other_points():
    rng = random.Random(18)
    inst = random_instance(F101, rng, 20, 2, 3, smin=1, smax=3)
    schedule = Schedule(F101, inst.points, inst.mults)
    xs = [x for x, _ in inst.points]
    moved = list(inst.points)
    moved[7] = (next(x for x in range(101) if x not in xs), moved[7][1])
    others = [
        InterpolationInstance(F101, moved, inst.mults, 2, 3),  # one x moved
        InterpolationInstance(F101, inst.points[::-1], inst.mults[::-1], 2, 3),  # reordered
        InterpolationInstance(F101, inst.points, [s % 3 + 1 for s in inst.mults], 2, 3),
        InterpolationInstance(F101, inst.points[:-1], inst.mults[:-1], 2, 3),  # one point fewer
        InterpolationInstance(PrimeField(103), inst.points, inst.mults, 2, 3),  # another field
    ]
    for other in others:
        with pytest.raises(ValueError, match="schedule"):
            solve_basis(other, schedule=schedule)
        with pytest.raises(ValueError, match="schedule"):
            solve(other, schedule)
    # y's, ell and w are the y-side: the same schedule serves them
    same_x = InterpolationInstance(F101, [(x, F101.rand(rng)) for x in xs], inst.mults, 4, 1)
    assert solve(same_x, schedule) == solve(same_x)


# -- one row up the spine, and a start basis -------------------------------------------


def test_solve_row_is_solve_basis_minimal_on_golden_instances():
    # solve composes only the minimal row of the spine; solve_basis composes
    # them all
    for inst in golden_instances():
        q, deltas = solve(inst)
        basis = solve_basis(inst)
        assert q == basis.minimal() and deltas == basis.deltas


def _reencoded(field, rng, n, kappa, s, ell, w):
    """A word that is 0 at its first kappa points, as the instance of its
    other n - kappa points, the instance of all n, and the start basis
    G_j = L^max(s - j, 0) * y^j of the first kappa points' module, with
    L = prod (x - x_i) over them, built from schoolbook products."""
    inst = random_instance(field, rng, n, ell, w, uniform_s=s)
    points = [(x, 0) for x, _ in inst.points[:kappa]] + inst.points[kappa:]
    full = InterpolationInstance(field, points, inst.mults, ell, w)
    rest = InterpolationInstance(field, points[kappa:], inst.mults[kappa:], ell, w)
    L = UniPoly.one(field)
    for x, _ in points[:kappa]:
        L = schoolbook_product(L, x_minus(field, x))
    G = [[poly_pow(L, max(s - j, 0)).coeffs if l == j else [] for l in range(ell + 1)]
         for j in range(ell + 1)]
    deltas = [kappa * max(s - j, 0) + w * j for j in range(ell + 1)]
    return full, rest, (G, deltas)


@pytest.mark.parametrize("field", [F3, F101, PrimeField(BENCH_PRIME)], ids=lambda f: str(f.p))
def test_start_basis_solves_the_whole_module(field):
    # kappa > n - kappa makes L^s longer than the root modulus, so G is
    # reduced on entry; ell < s leaves no y^j unmultiplied
    rng = random.Random(field.p)
    for n, kappa, s, ell in [(3, 2, 1, 1), (12, 8, 2, 3), (12, 4, 3, 2), (40, 21, 2, 4),
                             (7, 6, 3, 5)]:
        n = min(n, field.p)
        kappa = min(kappa, n - 1)
        w = rng.randint(1, 4)
        full, rest, start = _reencoded(field, rng, n, kappa, s, ell, w)
        basis = solve_basis(rest, start=start)
        for e, d in zip(basis.elems, basis.deltas):
            assert e.weighted_degree(w) == d
            for (x, y), m in zip(full.points, full.mults):
                assert e.has_multiplicity(x, y, m)
        assert min(basis.deltas) == min(solve(full)[1])
        q, deltas = solve(rest, start=start)
        assert q == basis.minimal() and deltas == basis.deltas


def test_start_basis_of_wrong_shape_refused():
    rng = random.Random(21)
    _, rest, (G, deltas) = _reencoded(F101, rng, 10, 4, 2, 3, 2)
    for bad in [
        (G[:-1], deltas[:-1]),  # ell elements
        (G, deltas[:-1]),  # a delta missing
        (G + [G[0]], deltas + [0]),  # ell + 2 elements
        ([e[:-1] for e in G], deltas),  # ell rows per element
    ]:
        for solver in (solve, solve_basis):
            with pytest.raises(ValueError, match="start basis"):
                solver(rest, start=bad)
