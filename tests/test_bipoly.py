import random

import pytest

from gsinterp.bipoly import BiPoly, derivative_orders, hasse_matrices, taylor_vectors
from gsinterp.field import PrimeField
from gsinterp.unipoly import NEG_INF, UniPoly, _slot_width
from util import poly_pow, rand_bipoly, rand_unipoly, reduce_mod, x_minus

F5 = PrimeField(5)
F7 = PrimeField(7)
F101 = PrimeField(101)
# one and two 64-bit words per product, and characteristics below s
KERNEL_PRIMES = (2, 3, 101, 65521, 754974721, 2**61 - 1)


def B(field, ell, terms):
    return BiPoly.from_monomials(field, ell, terms)


# -- weighted degree ------------------------------------


def test_weighted_degree_examples():
    y_minus_x = B(F7, 1, [(0, 1, 1), (1, 0, -1)])
    assert y_minus_x.weighted_degree(1) == 1
    q = B(F7, 2, [(3, 0, 1), (1, 2, 1)])  # x^3 + x*y^2
    assert q.weighted_degree(2) == 5
    assert B(F7, 3, []).weighted_degree(2) == NEG_INF
    assert B(F7, 3, []).weighted_degree(2) < 0


def test_weighted_degree_multiplicative():
    rng = random.Random(2)
    for _ in range(100):
        w = rng.randint(1, 4)
        q = rand_bipoly(F101, rng, rng.randint(0, 3), 6)
        a = rand_unipoly(F101, rng, rng.randint(0, 5))
        qa = BiPoly(F101, q.ell, [r * a for r in q.rows])
        assert qa.weighted_degree(w) == a.degree + q.weighted_degree(w)


# -- derivative order enumeration ------------------------------------------------


def test_derivative_orders():
    assert derivative_orders(1) == [(0, 0)]
    assert derivative_orders(2) == [(0, 0), (0, 1), (1, 0)]
    assert derivative_orders(3) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]
    with pytest.raises(ValueError):
        derivative_orders(0)


def test_derivative_orders_sorted_lexicographically():
    for s in range(1, 6):
        orders = derivative_orders(s)
        assert orders == sorted(orders)
        assert all(dx + dy < s for dx, dy in orders)
        assert len(orders) == s * (s + 1) // 2


# -- Hasse derivatives -------------------------------------------------------------


def test_hasse_matrix_example_x2y():
    q = B(F7, 1, [(2, 1, 1)])  # x^2 * y
    # (x+1)^2 (y+1) by (dx, dy) in derivative_orders(3): the coefficient of
    # x*y, order (1, 1), is 2
    assert hasse_matrices(F7, [[r.coeffs for r in q.rows]], [(1, 1)], [3]) == [[1, 1, 0, 2, 2, 1]]
    # cross-check against the explicit formula route
    assert q.hasse_derivative(1, 1, 1, 1) == 2


def test_hasse_matrix_at_origin():
    q = B(F5, 1, [(0, 1, 1), (1, 0, -1)])  # y - x
    # orders (0, 0), (0, 1), (1, 0): the value, then the coefficients of y and x
    assert hasse_matrices(F5, [[r.coeffs for r in q.rows]], [(0, 0)], [2]) == [[0, 1, 4]]


def test_hasse_matrix_constant():
    q = B(F7, 0, [(0, 0, 3)])
    assert hasse_matrices(F7, [[r.coeffs for r in q.rows]], [(2, 5)], [1]) == [[3]]


def test_hasse_matrix_anti_triangle_zeroed():
    # a point of multiplicity s holds the s(s+1)/2 values with dx + dy < s,
    # and those with dy above the y-degree 3 are 0
    rng = random.Random(3)
    q = rand_bipoly(F101, rng, 3, 8)
    s = 6
    (got,) = hasse_matrices(F101, [[r.coeffs for r in q.rows]], [(7, 9)], [s])
    assert got == _reference_values(q, [(7, 9)], [s])
    assert len(got) == s * (s + 1) // 2
    assert all(v == 0 for (dx, dy), v in zip(derivative_orders(s), got) if dy > 3)


def test_hasse_matrix_agrees_with_formula_oracle():
    rng = random.Random(4)
    for _ in range(60):
        q = rand_bipoly(F101, rng, rng.randint(0, 4), 8)
        x0, y0 = F101.rand(rng), F101.rand(rng)
        s = rng.randint(1, 4)
        got = hasse_matrices(F101, [[r.coeffs for r in q.rows]], [(x0, y0)], [s])
        assert got == [_reference_values(q, [(x0, y0)], [s])]


def _reference_values(elem, points, mults):
    """The run kernel's layout by the direct binomial sum: per point, the
    values in derivative_orders order, the points concatenated."""
    return [
        elem.hasse_derivative(x0, y0, dx, dy)
        for (x0, y0), s in zip(points, mults) for dx, dy in derivative_orders(s)
    ]


def test_hasse_matrices_match_hasse_derivative():
    # the batched kernel against the direct binomial sum, element by element:
    # s up to 5 (so s >= p in GF(2) and GF(3)), x0 = 0 half the time, empty
    # rows and rows of unequal length within one element and across elements
    rng = random.Random(41)
    for p in KERNEL_PRIMES:
        field = PrimeField(p)
        for _ in range(12):
            ell = rng.randint(0, 4)
            s = rng.randint(1, 5)
            x0 = 0 if rng.random() < 0.5 else field.rand(rng)
            y0 = field.rand(rng)
            elems = []
            for _ in range(rng.randint(1, 4)):
                rows = []
                for _ in range(ell + 1):
                    n = rng.choice((0, 0, 1, s, rng.randint(2, 12)))
                    rows.append(rand_unipoly(field, rng, n - 1) if n else UniPoly.zero(field))
                elems.append(BiPoly(field, ell, rows))
            rows = [[r.coeffs for r in e.rows] for e in elems]
            got = hasse_matrices(field, rows, [(x0, y0)], [s])
            assert len(got) == len(elems)
            for H, e in zip(got, elems):
                want = [e.hasse_derivative(x0, y0, dx, dy) for dx, dy in derivative_orders(s)]
                assert H == want


@pytest.mark.parametrize(
    "p, longer",
    [pytest.param(p, False, id=str(p)) for p in KERNEL_PRIMES + (2**64 - 59,)]
    + [pytest.param(65521, True, id="65521-longer-x-vectors")],
)
def test_hasse_matrices_of_a_run_match_hasse_derivative(p, longer):
    # runs of 1 to 16 points with mixed multiplicities (s >= p in GF(2) and
    # GF(3)), repeated x's allowed; entries of unequal length, empty entries
    # and zero elements; at 2^64 - 59 a lane is wider than 16 bytes. With
    # longer, each point's Taylor vectors in x are handed in, 1 to 30 past the
    # longest entry, as a schedule built for an earlier, longer basis holds them
    field = PrimeField(p)
    rng = random.Random(p % 1000 + 43)
    for trial in range(10):
        n = 16 if trial == 0 else rng.randint(1, 16)
        ell = rng.randint(0, 4)
        points = [(0 if rng.random() < 0.2 else field.rand(rng), field.rand(rng)) for _ in range(n)]
        mults = [rng.randint(1, 5) for _ in range(n)]
        elems = []
        for e in range(rng.randint(1, 5)):
            rows = []
            for _ in range(ell + 1):
                length = 0 if e == 1 else rng.choice((0, 1, 3, rng.randint(2, 40)))
                rows.append(rand_unipoly(field, rng, length - 1) if length else UniPoly.zero(field))
            elems.append(BiPoly(field, ell, rows))
        rows = [[r.coeffs for r in e.rows] for e in elems]
        xvecs = None
        if longer:
            size = max(len(c) for e in rows for c in e) + rng.randint(1, 30)
            xvecs = [taylor_vectors(x, s, size, p) for (x, _), s in zip(points, mults)]
        got = hasse_matrices(field, rows, points, mults, xvecs)
        assert got == [_reference_values(e, points, mults) for e in elems]


@pytest.mark.parametrize("length, width", [(32, 8), (33, 9)])
def test_hasse_matrices_lane_capacity(length, width):
    # every coefficient p - 1 at the bench prime: a lane holds length*(p-1)^2,
    # which needs one more byte from 33 coefficients on
    p = 754974721
    field = PrimeField(p)
    assert _slot_width(length, p) == width
    rng = random.Random(length)
    full = [p - 1] * length
    elems = [BiPoly(field, 2, [UniPoly(field, c) for c in (full, full[:5], full)])]
    points = [(x, field.rand(rng)) for x in (1, p - 1, 2, field.rand(rng), field.rand(rng))]
    mults = [4, 3, 2, 5, 1]
    got = hasse_matrices(field, [[r.coeffs for r in e.rows] for e in elems], points, mults)
    assert got == [_reference_values(e, points, mults) for e in elems]


def test_hasse_matrices_of_no_elements_and_zero_element():
    assert hasse_matrices(F5, [], [(1, 2)], [3]) == []
    zero = [[], [], []]
    assert hasse_matrices(F5, [zero], [(1, 2)], [3]) == [[0] * 6]
    assert hasse_matrices(F5, [zero], [(1, 2), (3, 4)], [3, 1]) == [[0] * 7]
    assert hasse_matrices(F5, [zero], [], []) == [[]]


def test_reduction_preserves_hasse_derivatives():
    # 100 random (q, point, s) triples: the matrix is insensitive to
    # reduction mod (x - x0)^s
    rng = random.Random(5)
    for _ in range(100):
        q = rand_bipoly(F101, rng, rng.randint(0, 4), 10)
        x0, y0 = F101.rand(rng), F101.rand(rng)
        s = rng.randint(1, 4)
        modulus = poly_pow(x_minus(F101, x0), s)
        full, reduced = ([[r.coeffs for r in e.rows]] for e in (q, reduce_mod(q, modulus)))
        assert hasse_matrices(F101, full, [(x0, y0)], [s]) == hasse_matrices(F101, reduced, [(x0, y0)], [s])


# -- reduction ------------------------------------------------------------------


def test_reduce_mod_example():
    q = B(F5, 1, [(2, 1, 1), (3, 0, 1)])  # x^2 y + x^3
    m = poly_pow(x_minus(F5, 1), 2)
    want = B(F5, 1, [(1, 1, 2), (0, 1, 4), (1, 0, 3), (0, 0, 3)])  # (2x+4)y + 3x+3
    assert reduce_mod(q, m) == want


def test_reduce_mod_noop_when_small():
    rng = random.Random(6)
    q = rand_bipoly(F101, rng, 2, 3)
    m = rand_unipoly(F101, rng, 7)
    assert reduce_mod(q, m) == q


def test_reduce_mod_unit_gives_zero():
    rng = random.Random(7)
    q = rand_bipoly(F101, rng, 2, 5)
    assert reduce_mod(q, UniPoly.one(F101)).is_zero()


def test_reduce_mod_zero_raises():
    with pytest.raises(ZeroDivisionError):
        reduce_mod(B(F5, 1, []), UniPoly.zero(F5))


# -- multiplicity ------------------------------------------------------------------


def test_multiplicity_on_curve():
    q = B(F7, 1, [(0, 1, 1), (1, 0, -1)])  # y - x
    for c in range(7):
        assert q.has_multiplicity(c, c, 1)
    assert not q.has_multiplicity(0, 0, 2)


def test_multiplicity_of_square():
    # (y - x)^2 = y^2 - 2xy + x^2
    q = B(F7, 2, [(0, 2, 1), (1, 1, -2), (2, 0, 1)])
    assert q.has_multiplicity(0, 0, 2)
    assert not q.has_multiplicity(0, 0, 3)


# -- structure ---------------------------------------------------------------------


def test_row_count_enforced():
    with pytest.raises(ValueError):
        BiPoly(F5, 2, [UniPoly.zero(F5)])
    with pytest.raises(ValueError, match="different field"):
        BiPoly(F5, 1, [UniPoly.zero(F5), UniPoly.zero(F7)])
    with pytest.raises(ValueError, match="y-degree 3 out of range 0..2"):
        B(F5, 2, [(0, 3, 1)])
    with pytest.raises(ValueError, match="incompatible"):
        B(F5, 2, [(0, 1, 1)]).sub_scaled(1, B(F5, 1, [(0, 1, 1)]))


def test_monomial_roundtrip():
    rng = random.Random(8)
    for _ in range(30):
        q = rand_bipoly(F101, rng, rng.randint(0, 4), 6)
        assert BiPoly.from_monomials(F101, q.ell, q.monomials()) == q


def test_eval_y_and_eval_point():
    rng = random.Random(9)
    q = rand_bipoly(F101, rng, 3, 5)
    f = rand_unipoly(F101, rng, 2)
    x0 = F101.rand(rng)
    y0 = f.eval(x0)
    at_point = sum(r.eval(x0) * pow(y0, j, 101) for j, r in enumerate(q.rows)) % 101
    assert q.eval_y(f).eval(x0) == at_point
