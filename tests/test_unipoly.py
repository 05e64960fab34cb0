import math
import random
from operator import mul

import pytest

from gsinterp.bipoly import taylor_vectors
from gsinterp.classic import interpolate
from gsinterp.fast import solve_basis
from gsinterp.field import PrimeField
from gsinterp.problem import random_instance
import gsinterp.unipoly as up
from gsinterp.unipoly import (
    NEG_INF, NEWTON_REM_MIN, PackedModulus, UniPoly, _mul_kron, _pack, _slot_width, _unpack,
    count_scalar_mults,
)
from util import (
    logged, monomial, poly_divmod, poly_mod, poly_pow, rand_nonzero, rand_unipoly, scale,
    schoolbook_product, shift_up, sub, taylor_shift, x_minus,
)

F5 = PrimeField(5)
F101 = PrimeField(101)
# packed slot widths of one 64-bit word, between one and two words, two
# words and wider
PACK_PRIMES = (2, 3, 101, 65521, 754974721, 4294967311, 2**61 - 1, 2**64 - 59)


def P(field, *coeffs):
    return UniPoly(field, list(coeffs))


# -- multiplication ----------------------------------------------------------


def test_mul_example_gf5():
    # (x+1)(x+4) = x^2 + 5x + 4 = x^2 + 4 over GF(5)
    assert P(F5, 1, 1) * P(F5, 4, 1) == P(F5, 4, 0, 1)


def test_mul_by_zero():
    rng = random.Random(1)
    a = rand_unipoly(F101, rng, 10)
    assert (a * UniPoly.zero(F101)).is_zero()
    assert (UniPoly.zero(F101) * a).is_zero()


def test_mul_matches_schoolbook_oracle():
    rng = random.Random(2)
    for _ in range(5):
        a = rand_unipoly(F101, rng, 200)
        b = rand_unipoly(F101, rng, 200)
        assert a * b == schoolbook_product(a, b)


def test_mul_degree_adds():
    rng = random.Random(3)
    a = rand_unipoly(F101, rng, 37)
    b = rand_unipoly(F101, rng, 54)
    assert (a * b).degree == 91


def _rand_coeffs(field, rng, n):
    """n coefficients with a nonzero leading one; [] for n = 0."""
    return [field.rand(rng) for _ in range(n - 1)] + [rand_nonzero(field, rng)] if n else []


def test_kernels_agree():
    # the one multiply kernel against the reference at every packing prime,
    # from the tiny shapes up; operands given by their lengths, an empty one
    # being the zero polynomial
    rng = random.Random(4)
    shapes = [(0, k) for k in (0, 1, 5, 300)] + [
        (1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (8, 8), (1, 300), (8, 300),
        (6, 91), (131, 131), (258, 62),
    ]
    for p in PACK_PRIMES:
        field = PrimeField(p)
        for la, lb in shapes:
            a, b = _rand_coeffs(field, rng, la), _rand_coeffs(field, rng, lb)
            want = schoolbook_product(UniPoly(field, a), UniPoly(field, b)).coeffs
            assert _mul_kron(a, b, p) == want
            assert _mul_kron(b, a, p) == want


@pytest.mark.parametrize(
    "p", [2, 3, 101, 65521, 754974721, 4294967291, 4294967311, 2**61 - 1, 2**64 - 59]
)
def test_slot_width_rule(p):
    # the one width rule of every packed integer: the narrowest whole number
    # of bytes that holds a sum of t products, but never less than a word
    for terms in (1, 2, 3, 16, 17, 300, 4096):
        width = _slot_width(terms, p)
        assert width >= 8 and terms * (p - 1) ** 2 < 1 << 8 * width
        assert width == 8 or terms * (p - 1) ** 2 >= 1 << 8 * (width - 1)
    # a lane of the elimination step's rows holds a reduced value plus one
    # product, so the row can take at least one unreduced addition
    lane = _slot_width(1, p)
    assert (p - 1) + (p - 1) ** 2 < 1 << 8 * lane
    assert ((1 << 8 * lane) - p) // (p - 1) ** 2 >= 1


@pytest.mark.parametrize("p", PACK_PRIMES)
def test_pack_unpack_roundtrip(p):
    rng = random.Random(p % 1009)
    for terms in (1, 3, 17, 300):
        width = _slot_width(terms, p)
        for n in (1, 2, 9, 40):
            a = [rng.randrange(p) for _ in range(n - 1)] + [rng.randrange(1, p)]
            want = int.from_bytes(b"".join(v.to_bytes(width, "little") for v in a), "little")
            assert _pack(a, width) == want
            assert _unpack(want, n, width, p) == a
            # slots hold unreduced sums; unpacking reduces each one
            big = [rng.randrange(terms * (p - 1) ** 2 + 1) for _ in range(n)]
            packed = sum(v << (8 * width * i) for i, v in enumerate(big))
            got = _unpack(packed, n, width, p)
            assert got == up._trim([v % p for v in big])


@pytest.mark.parametrize("p", PACK_PRIMES)
def test_short_product_is_truncated_product(p):
    field = PrimeField(p)
    rng = random.Random(p % 1013)
    cases = [
        ([field.rand(rng) for _ in range(da)] + [1], [field.rand(rng) for _ in range(db)] + [1])
        for da, db in ((3, 5), (20, 30), (70, 40))
    ]
    cases.append((_rand_coeffs(field, rng, 1), _rand_coeffs(field, rng, 10)))
    for a, b in cases:
        da, db = len(a) - 1, len(b) - 1
        full = schoolbook_product(UniPoly(field, a), UniPoly(field, b)).coeffs
        for nterms in (0, 1, da, da + db, da + db + 1, da + db + 5):
            assert _mul_kron(a, b, p, nterms) == up._trim(full[:nterms])


def test_scalar_op_counts_subquadratic():
    # counted on the one multiply kernel, Kronecker substitution: one
    # unpacked slot per result coefficient
    rng = random.Random(6)
    counts = {}
    for d in (256, 512, 1024):
        a = rand_unipoly(F101, rng, d)
        b = rand_unipoly(F101, rng, d)
        with count_scalar_mults() as ctr:
            a * b
        counts[d] = ctr.mults
    assert counts[512] / counts[256] <= 3.3
    assert counts[1024] / counts[512] <= 3.3
    # genuinely subquadratic: doubling the degree must not quadruple the work
    assert counts[1024] < 4 * counts[512] * 0.9


# -- the counter record -----------------------------------------------------------


def _solvers():
    """Classic naive, classic cached and fast, each as instance -> basis."""
    return (lambda inst: interpolate(inst, "naive")[1],
            lambda inst: interpolate(inst, "cached")[1], solve_basis)


def _two_run_instance():
    # 40 points make three runs of classic cached and four of fast, so the
    # logs number points across run boundaries
    return random_instance(F101, random.Random(31), 40, 2, 2, smin=1, smax=3)


def test_counter_logs_no_pivots_unless_asked():
    inst = _two_run_instance()
    with count_scalar_mults() as ctr:
        for solver in _solvers():
            solver(inst)
    assert ctr.pivots is None
    assert ctr.mults > 0


def test_solvers_log_the_same_pivots_through_the_counter():
    inst = _two_run_instance()
    (naive, naive_log), (cached, cached_log), (fast, fast_log) = (
        logged(solver, inst) for solver in _solvers()
    )
    assert naive.elems == cached.elems == fast.elems
    assert naive_log == cached_log == fast_log
    assert {i for i, _, _, _ in fast_log} == set(range(inst.n))
    base_sum = inst.w * inst.ell * (inst.ell + 1) // 2
    assert sum(fast.deltas) == base_sum + len(fast_log)


def test_nested_counter_records_its_own_work():
    # a nested block's mults and pivots go to its own counter; the outer
    # counter takes none of them and resumes after the block
    inst = _two_run_instance()
    naive, cached, fast = _solvers()
    want = []
    for solver in (naive, fast, cached):
        with count_scalar_mults(pivots=True) as ctr:
            solver(inst)
        want.append((ctr.mults, ctr.pivots))
    with count_scalar_mults(pivots=True) as outer:
        naive(inst)
        cached(inst)  # counted work before the inner block
        before = (outer.mults, list(outer.pivots))
        with count_scalar_mults(pivots=True) as inner:
            fast(inst)
        assert (outer.mults, outer.pivots) == before
        cached(inst)
    with count_scalar_mults() as plain:
        fast(inst)
    assert before[0] == want[0][0] + want[2][0] > 0
    assert (inner.mults, inner.pivots) == want[1]
    assert outer.mults == want[0][0] + 2 * want[2][0]
    assert outer.pivots == want[0][1] + 2 * want[2][1]
    assert plain.mults == inner.mults  # logging pivots costs no counted work


def test_naive_counts_nothing_but_logs_its_pivots():
    # classic naive is an independent reference: its row operations are not
    # counted, while its pivot rounds are logged like those of classic cached
    inst = _two_run_instance()
    naive, cached, _ = _solvers()
    with count_scalar_mults(pivots=True) as ctr:
        naive(inst)
    assert ctr.mults == 0
    assert ctr.pivots and ctr.pivots == logged(cached, inst)[1]


# -- ring axioms ----------------------------------------------------------------


def test_ring_axioms_random_triples():
    rng = random.Random(7)
    for _ in range(1000):
        a = rand_unipoly(F101, rng, rng.randint(0, 64))
        b = rand_unipoly(F101, rng, rng.randint(0, 64))
        c = rand_unipoly(F101, rng, rng.randint(0, 64))
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a


# -- division ----------------------------------------------------------------


def lib_divmod(a: UniPoly, m: UniPoly) -> tuple[UniPoly, UniPoly]:
    """The library's division, PackedModulus.divmod, on UniPolys."""
    q, r = PackedModulus(m.coeffs, a.field).divmod(a.coeffs)
    return UniPoly(a.field, q, normalized=True), UniPoly(a.field, r, normalized=True)


def test_rem_examples_gf5():
    m = P(F5, 1, 3, 1)  # (x-1)^2 = x^2 - 2x + 1 = x^2 + 3x + 1
    assert m == poly_pow(x_minus(F5, 1), 2)
    for divmod_ in (lib_divmod, poly_divmod):
        assert divmod_(P(F5, 0, 0, 1), m)[1] == P(F5, 4, 2)  # x^2 -> 2x + 4
        assert divmod_(P(F5, 0, 0, 0, 1), m)[1] == P(F5, 3, 3)  # x^3 -> 3x + 3


def test_rem_already_reduced():
    rng = random.Random(8)
    m = rand_unipoly(F101, rng, 9)
    a = rand_unipoly(F101, rng, 5)
    assert lib_divmod(a, m) == poly_divmod(a, m) == (UniPoly.zero(F101), a)


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        poly_mod(P(F5, 1, 1), UniPoly.zero(F5))


def test_divmod_reconstructs():
    rng = random.Random(9)
    for da, dm in ((20, 7), (150, 60), (400, 150), (260, 130)):
        a = rand_unipoly(F101, rng, da)
        m = rand_unipoly(F101, rng, dm)
        q, r = lib_divmod(a, m)
        assert (q, r) == poly_divmod(a, m)
        assert q * m + r == a
        assert r.degree < m.degree


@pytest.mark.parametrize("p", PACK_PRIMES)
def test_divmod_reconstructs_over_all_slot_widths(p):
    # synthetic division packs its slots at a width set by min(qlen, dm)
    # and Newton division (dm >= NEWTON_REM_MIN, qlen >= 32) at its
    # inverse's, so sweep short and long quotients, constant and non-monic
    # moduli, large ones and dividends shorter than the divisor
    field = PrimeField(p)
    rng = random.Random(p % 1019)
    for da, dm in ((0, 0), (5, 0), (7, 3), (30, 29), (40, 8), (60, 45), (90, 20),
                   (300, 120), (200, 100), (2, 3), (3, 60)):
        a = UniPoly(field, [field.rand(rng) for _ in range(da)] + [rand_nonzero(field, rng)])
        m = UniPoly(field, [field.rand(rng) for _ in range(dm)] + [rand_nonzero(field, rng)])
        q, r = lib_divmod(a, m)
        assert (q, r) == poly_divmod(a, m)
        assert schoolbook_product(q, m) + r == a
        assert r.degree < m.degree
        assert q.degree == (da - dm if da >= dm else NEG_INF)


def test_newton_and_synthetic_division_agree():
    # a small field and a long quotient (dm = 120, qlen = 181): divmod takes
    # Newton division here, checked against synthetic division of the same
    # dividend, packed at the width divmod gives short quotients, and
    # against the schoolbook reference
    rng = random.Random(10)
    a = rand_unipoly(F101, rng, 300)
    m = rand_unipoly(F101, rng, 120)
    q, r = poly_divmod(a, m)
    mod = PackedModulus(m.coeffs, F101)
    width = _slot_width(121, 101)
    synthetic = mod._synthetic(_pack(a.coeffs, width), 301, width)
    assert mod.divmod(a.coeffs) == synthetic == (q.coeffs, r.coeffs)
    assert mod._prec == 181
    assert schoolbook_product(q, m) + r == a


def test_packed_modulus_rem_matches_divmod():
    # quotient lengths straddle the rule's Newton threshold (32) and modulus
    # degrees straddle NEWTON_REM_MIN, so the packed modulus is checked
    # against schoolbook division by both paths. Its packed -m is cached by
    # slot width and J by precision, so one modulus sees a long quotient,
    # then a short one, then longer ones: at 2^64 - 59 and dm = 300 the
    # synthetic division's slots are 17 bytes and Newton's 18, and at
    # dm = 48, 280 rebuilds J with slots of 18 bytes, not 17, and 300 at the
    # same width. Constant moduli and p = 2 cover the edges of the
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
        mod = PackedModulus(m.coeffs, field)
        f = rand_unipoly(field, rng, dm - 1) if dm else UniPoly.zero(field)
        assert mod.divmod(f.coeffs) == ([], f.coeffs)
        for qlen in (1, 31, 32, 47, 48, 90, 20, 280, 300):
            f = UniPoly(field, [p - 1] * (dm + qlen)) if wide else rand_unipoly(field, rng, dm + qlen - 1)
            assert mod.divmod(f.coeffs) == tuple(x.coeffs for x in poly_divmod(f, m))
        assert mod._prec == (max(300, dm + 1) if dm >= NEWTON_REM_MIN else 0)


# -- taylor shift and evaluation ----------------------------------------------


def test_taylor_shift_example():
    F7 = PrimeField(7)
    assert taylor_shift(P(F7, 0, 0, 1), 1) == P(F7, 1, 2, 1)


def test_taylor_shift_by_zero_is_identity():
    rng = random.Random(11)
    a = rand_unipoly(F101, rng, 20)
    assert taylor_shift(a, 0) == a


def test_taylor_shift_coefficient_formula():
    rng = random.Random(12)
    a = rand_unipoly(F101, rng, 50)
    c = rand_nonzero(F101, rng)
    shifted = taylor_shift(a, c)
    p = F101.p
    for k in range(len(a.coeffs)):
        want = 0
        for i in range(k, len(a.coeffs)):
            want = (want + math.comb(i, k) * a.coeffs[i] % p * pow(c, i - k, p)) % p
        got = shifted.coeffs[k] if k < len(shifted.coeffs) else 0
        assert got == want


def test_taylor_shift_roundtrip():
    rng = random.Random(13)
    for _ in range(20):
        a = rand_unipoly(F101, rng, rng.randint(0, 40))
        c = F101.rand(rng)
        assert taylor_shift(taylor_shift(a, c), -c % 101) == a


def test_taylor_coeffs_matches_reduce_then_shift():
    rng = random.Random(14)
    for _ in range(50):
        a = rand_unipoly(F101, rng, rng.randint(0, 60))
        x0 = F101.rand(rng)
        s = rng.randint(1, 5)
        explicit = taylor_shift(poly_mod(a, poly_pow(x_minus(F101, x0), s)), x0)
        want = (explicit.coeffs + [0] * s)[:s]
        vecs = taylor_vectors(x0, s, len(a.coeffs), 101)
        assert [sum(map(mul, a.coeffs, v)) % 101 for v in vecs] == want


def test_hasse_deriv_matches_taylor_shift():
    rng = random.Random(15)
    for _ in range(30):
        a = rand_unipoly(F101, rng, rng.randint(0, 30))
        x0 = F101.rand(rng)
        shifted = taylor_shift(a, x0)
        for k in range(len(a.coeffs) + 2):
            want = shifted.coeffs[k] if k < len(shifted.coeffs) else 0
            assert a.hasse_deriv(k, x0) == want


def test_eval():
    assert P(F5, 1, 1).eval(4) == 0
    assert UniPoly.zero(F5).eval(3) == 0
    rng = random.Random(16)
    a = rand_unipoly(F101, rng, 25)
    c = F101.rand(rng)
    assert a.eval(c) == sum(v * pow(c, i, 101) for i, v in enumerate(a.coeffs)) % 101


# -- misc helpers --------------------------------------------------------------


def test_zero_degree_is_minus_infinity():
    z = UniPoly.zero(F5)
    assert z.degree == NEG_INF
    assert z.degree < -(10**9)


@pytest.mark.parametrize("p", PACK_PRIMES)
def test_mul_linear_and_sub_scaled(p):
    # classic naive's row operations against the references: the zero
    # polynomial, a constant and longer operands, so len(a) <, = and >
    # len(b) all occur, with scalars outside 0..p-1 as well as inside
    field = PrimeField(p)
    rng = random.Random(17)
    polys = [UniPoly.zero(field)] + [rand_unipoly(field, rng, d) for d in (0, 5, 9, 12)]
    for x0 in (0, p - 1, -1, field.rand(rng)):
        for a in polys:
            assert a.mul_linear(x0) == schoolbook_product(a, x_minus(field, x0))
    for c in (0, p, -1, -p, 3 * p + 1, field.rand(rng)):
        for a in polys:
            for b in polys:
                assert a.sub_scaled(c, b) == sub(a, scale(b, c))
    for a in polys[2:]:
        # cancellation down to a constant, and to zero, must trim
        assert a.sub_scaled(3 * p + 1, a + UniPoly(field, [1])) == UniPoly(field, [-1])
        assert a.sub_scaled(1 - p, a).is_zero()


def test_pow_and_shift_up():
    f = x_minus(F5, 2)
    assert poly_pow(f, 3) == f * f * f
    assert poly_pow(f, 0) == UniPoly.one(F5)
    rng = random.Random(18)
    a = rand_unipoly(F5, rng, 4)
    assert shift_up(a, 3) == a * monomial(F5, 3)


def test_field_mismatch_rejected():
    with pytest.raises(ValueError):
        P(F5, 1) + P(F101, 1)
