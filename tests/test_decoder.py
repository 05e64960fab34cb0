import itertools
import random
import signal
import time
import tracemalloc

import pytest

from gsinterp.bipoly import BiPoly
from gsinterp.classic import certify
from gsinterp.decoder import (
    GSParams,
    InfeasibleParameters,
    RSCode,
    decode_list,
    gs_params,
    hamming,
    monomial_budget,
    _lift,
    _poly_roots,
    _pow_mod,
    _shift_root,
    y_roots,
)
from gsinterp import decoder, fast
from gsinterp.field import PrimeField
from gsinterp.problem import InterpolationInstance
from gsinterp.unipoly import UniPoly, count_scalar_mults

from util import (
    BENCH_PRIME, grid_gs_params, monomial, poly_mod, poly_pow, rand_bipoly, rand_nonzero,
    rand_unipoly, ref_decode_list, ref_shift, ref_y_roots, scale, scan_roots, schoolbook_product,
    strip_x, x_minus,
)

F13 = PrimeField(13)
F5 = PrimeField(5)
F3 = PrimeField(3)


def all_messages(field, k):
    return [list(t) for t in itertools.product(range(field.p), repeat=k)]


def lagrange_poly(field, xs, ys):
    """Independent interpolation oracle."""
    p = field.p
    acc = UniPoly.zero(field)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        num = UniPoly.one(field)
        den = 1
        for j, xj in enumerate(xs):
            if j != i:
                num = num * x_minus(field, xj)
                den = den * (xi - xj) % p
        acc = acc + scale(num, yi * field.inv(den) % p)
    return acc


# -- parameter selection ------------------------------------------------------------


def test_stated_inequality_for_radius_five():
    # [12,3], tau=5: 56 monomials against 36 constraints at (s=2, ell=6)
    assert monomial_budget(12, 2, 2, 6, 5) == (56, 36)


def test_monomial_budget_closed_form_equals_direct_sum():
    for n, w, s, ell in itertools.product(range(1, 9), range(1, 7), range(1, 6), range(8)):
        for tau in range(-1, n + 2):
            direct = sum(max(0, s * (n - tau) - j * w) for j in range(ell + 1))
            assert monomial_budget(n, w, s, ell, tau) == (direct, n * s * (s + 1) // 2)


def test_gs_params_minimal_pair():
    code = RSCode(F13, 12, 3)
    params = gs_params(code, 5)
    assert (params.s, params.ell) == (1, 2)  # smallest s, then smallest ell
    assert params.w == 2
    # no smaller pair works
    lhs, rhs = monomial_budget(12, 2, 1, 1, 5)
    assert lhs <= rhs


def test_gs_params_zero_errors():
    code = RSCode(F13, 12, 3)
    params = gs_params(code, 0)
    assert (params.s, params.ell) == (1, 1)


def test_gs_params_infeasible():
    code = RSCode(F13, 12, 3)
    with pytest.raises(InfeasibleParameters) as exc:
        gs_params(code, 11)
    assert "monomial count" in str(exc.value)
    with pytest.raises(ValueError):
        gs_params(code, 12)
    with pytest.raises(ValueError):
        gs_params(RSCode(F13, 12, 1), 2)


def test_gs_params_matches_grid_search_where_it_accepts():
    # the search has no caps on s and ell; wherever the 8 x 32 grid it
    # replaced finds a pair, it finds the same one
    field = PrimeField(41)
    for n in range(1, 41):
        for k in range(2, n + 1):
            code = RSCode(field, n, k)
            for tau in range(n):
                want = grid_gs_params(n, k, tau)
                if want is not None:
                    params = gs_params(code, tau)
                    assert (params.s, params.ell, params.tau, params.w) == (*want, tau, k - 1)


def test_gs_params_answers_at_once_at_n_16384():
    # past the radius the search runs until the work rule refuses the next s
    field = PrimeField(BENCH_PRIME)
    for k, tau in [(2, 16254), (2, 16383), (4096, 8194), (4096, 16383)]:
        code = RSCode(field, 16384, k)
        t0 = time.process_time()
        with pytest.raises(InfeasibleParameters, match="budget"):
            gs_params(code, tau)
        assert time.process_time() - t0 < 1.0


# -- encoding -----------------------------------------------------------------------


def test_encode_zero_and_constant():
    code = RSCode(F13, 6, 2)
    assert code.encode([0, 0]) == [0] * 6
    assert code.encode([7, 0]) == [7] * 6


def test_encode_positions_determine_message():
    rng = random.Random(0)
    code = RSCode(F13, 10, 4)
    msg = [F13.rand(rng) for _ in range(4)]
    word = code.encode(msg)
    picks = rng.sample(range(10), 4)
    f = lagrange_poly(F13, [code.evalpoints[i] for i in picks], [word[i] for i in picks])
    assert f.coeffs + [0] * (4 - len(f.coeffs)) == msg


def test_code_validation():
    with pytest.raises(ValueError):
        RSCode(F13, 14, 3)  # n > p
    with pytest.raises(ValueError):
        RSCode(F13, 4, 5)  # k > n
    with pytest.raises(ValueError):
        RSCode(F13, 3, 2, evalpoints=[1, 1, 2])
    code = RSCode(F13, 12, 3)
    with pytest.raises(ValueError, match="longer than k=3"):
        code.encode([1, 2, 3, 4])
    with pytest.raises(ValueError, match="length n=12"):
        decode_list(code, [0] * 11, gs_params(code, 4))


# -- root finding -------------------------------------------------------------------


def _root_free_quadratic(field, rng):
    while True:
        q = UniPoly(field, [field.rand(rng), field.rand(rng), 1])
        if not scan_roots(q):
            return q


def _root_cases(field, rng):
    """Nonzero polynomials with a known root set: a nonzero constant times
    chosen linear factors (repeats allowed) times, in half the cases, a
    root-free quadratic; plus bare constants."""
    p = field.p
    cofactor = _root_free_quadratic(field, rng)
    cases = [(UniPoly(field, [rand_nonzero(field, rng)]), set()) for _ in range(3)]
    for trial in range(8):
        f = UniPoly(field, [rand_nonzero(field, rng)])
        roots = set()
        for _ in range(rng.randint(1, 5)):
            r = field.rand(rng)
            roots.add(r)
            for _ in range(rng.randint(1, 3)):
                f = f * x_minus(field, r)
        if trial % 2:
            f = f * cofactor
        cases.append((f, roots))
    if p <= 13:
        # deg f > p, so x^p mod f is a real reduction; every element is
        # covered in the first, none in the second
        full = UniPoly.one(field)
        for r in range(p):
            full = full * x_minus(field, r)
        cases.append((full * x_minus(field, 0) * cofactor, set(range(p))))
        cases.append((poly_pow(cofactor, p // 2 + 1), set()))
        for _ in range(6):
            f = UniPoly(field, [field.rand(rng) for _ in range(p + 1 + rng.randint(0, 2 * p))] + [1])
            cases.append((f, None))
    return cases


@pytest.mark.parametrize("p", [3, 13, BENCH_PRIME, 2**61 - 1, 2**64 - 59])
def test_pow_mod_matches_repeated_multiplication(p):
    # every e < 40, so every bit pattern of up to 5 bits, against the power
    # built one schoolbook product at a time; delta = 0 is _poly_roots' x^p.
    # Runs before the root tests, where a wrong power makes every splitting
    # draw fail
    field = PrimeField(p)
    rng = random.Random(p)
    for deg in (1, 2, 5):
        m = rand_unipoly(field, rng, deg)
        for delta in (0, field.rand(rng)):
            power = UniPoly.one(field)
            for e in range(40):
                assert _pow_mod(delta, e, m.coeffs, field) == poly_mod(power, m).coeffs
                power = schoolbook_product(power, UniPoly(field, [delta, 1]))


def test_split_linear_gives_up_after_its_draws(monkeypatch):
    # a power that never splits: gcd(h, 1 - 1) = h on every draw. The draws
    # are bounded, so this raises at once instead of looping; a hang would
    # run into the guard on the number of draws. A cubic, since a quadratic
    # takes its roots in closed form and draws nothing
    field, draws = PrimeField(13), []

    def never_splits(delta, e, m, field):
        draws.append(delta)
        assert len(draws) <= 1000, "the splitting draws are not bounded"
        return [1]

    monkeypatch.setattr(decoder, "_pow_mod", never_splits)
    start = time.process_time()
    with pytest.raises(RuntimeError, match="64 draws"):
        decoder._split_linear([7, 11, 7, 1], field, random.Random(0), [])  # (x - 1)(x - 2)(x - 3)
    assert len(draws) == 64
    assert time.process_time() - start < 1


@pytest.mark.parametrize("p", [2, 3, 5, 13, 65521])
def test_poly_roots_match_scan(p):
    field = PrimeField(p)
    rng = random.Random(1000 + p)
    for f, roots in _root_cases(field, rng):
        rng_state = random.getstate()
        got = _poly_roots(f.coeffs, field)
        assert random.getstate() == rng_state
        assert got == scan_roots(f)
        if roots is not None:
            assert got == sorted(roots)
        assert _poly_roots(f.coeffs, field) == got


def test_poly_roots_bench_prime():
    field = PrimeField(754974721)
    p = field.p
    rng = random.Random(9)
    roots = sorted({field.rand(rng) for _ in range(12)} | {0, p - 1})
    non_residue = next(a for a in range(2, p) if pow(a, (p - 1) // 2, p) == p - 1)
    f = UniPoly(field, [-non_residue, 0, 1])  # root-free
    for r in roots:
        f = f * x_minus(field, r) * x_minus(field, r)
    assert _poly_roots(f.coeffs, field) == roots


@pytest.mark.parametrize("p", [3, 5, 13])
def test_quadratic_roots_match_scan_for_every_quadratic(p):
    field = PrimeField(p)
    for f in itertools.product(range(p), range(p), range(1, p)):
        assert _poly_roots(list(f), field) == scan_roots(UniPoly(field, list(f)))


@pytest.mark.parametrize("p", [65521, BENCH_PRIME, 2**61 - 1, 2**64 - 59])
def test_quadratic_roots_check_out_by_evaluation(p):
    # p - 1 has 2-adicity 4, 24, 1 (p = 3 mod 4: the loop never runs) and 2,
    # so the square root's Tonelli-Shanks loop runs from 0 to 23 rounds. A split
    # quadratic c(x - a)(x - b), a double root c(x - a)^2 and an
    # irreducible c((x - a)^2 - z t^2), z a non-residue
    field = PrimeField(p)
    rng = random.Random(p)
    z = next(v for v in range(2, p) if pow(v, (p - 1) // 2, p) == p - 1)
    for _ in range(20):
        a, b, c, t = field.rand(rng), field.rand(rng), rand_nonzero(field, rng), rand_nonzero(field, rng)
        split = scale(x_minus(field, a) * x_minus(field, b), c)
        double = scale(poly_pow(x_minus(field, a), 2), c)
        irreducible = scale(poly_pow(x_minus(field, a), 2) + UniPoly(field, [-z * t * t]), c)
        for f, want in ((split, sorted({a, b})), (double, [a]), (irreducible, [])):
            got = _poly_roots(f.coeffs, field)
            assert got == want
            assert all(f.eval(r) == 0 for r in got)
        assert irreducible.eval(a) == (-z * t * t * c) % p != 0


def test_poly_roots_zero_rejected():
    with pytest.raises(ValueError):
        _poly_roots([], F13)


# -- y-roots ------------------------------------------------------------------------


def test_y_roots_linear_factor():
    f = UniPoly(F13, [3, 5, 1])
    q = BiPoly(F13, 1, [scale(f, -1), UniPoly.one(F13)])  # y - f
    roots = y_roots(q, 3)
    assert roots == [f]


def test_y_roots_constructed_factors():
    f = UniPoly(F13, [2, 1])
    g = UniPoly(F13, [5, 0, 3])
    u = UniPoly(F13, [1, 0, 0, 7])
    # (y - f)(y - g) * u(x)
    q = BiPoly(
        F13, 2,
        [f * g * u, scale(f + g, -1) * u, u],
    )
    roots = y_roots(q, 3)
    assert f in roots and g in roots


def test_y_roots_equals_exhaustive_enumeration():
    rng = random.Random(1)

    # (field, n, k, ell, s); in GF(3) with ell = 3 the shift weights
    # C(3, 1) and C(3, 2) vanish mod p
    for field, n, k, ell, s in ((F5, 5, 2, 2, 1), (F3, 3, 3, 3, 2)):
        code = RSCode(field, n, k)
        for _ in range(10):
            received = [field.rand(rng) for _ in range(n)]
            inst = InterpolationInstance(
                field, list(zip(code.evalpoints, received)), [s] * n, ell=ell, w=1
            )
            q, _ = fast.solve(inst)
            got = {tuple(f.coeffs + [0] * (k - len(f.coeffs))) for f in y_roots(q, k)}
            want = {
                tuple(msg)
                for msg in all_messages(field, k)
                if q.eval_y(UniPoly(field, msg)).is_zero()
            }
            assert got == want


def test_shift_root_matches_direct_substitution():
    # q(x, x*y + gamma) = sum_i row_i * (x*y + gamma)^i, the powers built by
    # repeated multiplication, so no binomial is computed; ell >= p makes
    # some binomials vanish mod p, and then a packed sum can be a nonzero
    # integer whose slots are all multiples of p
    rng = random.Random(3)
    for p in (2, 3, 5):
        field = PrimeField(p)
        x = monomial(field, 1)
        for ell in (p, p + 1, 2 * p + 1):
            for gamma in range(p):
                q = rand_bipoly(field, rng, ell, 4)
                want = [UniPoly.zero(field) for _ in range(ell + 1)]
                power = [UniPoly.one(field)]  # y-rows of (x*y + gamma)^i
                for i, row in enumerate(q.rows):
                    for j, c in enumerate(power):
                        want[j] = want[j] + row * c
                    shifted = [scale(c, gamma) for c in power] + [UniPoly.zero(field)]
                    for j, c in enumerate(power):
                        shifted[j + 1] = shifted[j + 1] + x * c
                    power = shifted
                got = _shift_root([r.coeffs for r in q.rows], gamma, p)
                assert got == [r.coeffs for r in strip_x(want)]


def _ymul(a, b):
    """Product of two polynomials in y over F[x], each as its list of rows."""
    out = [UniPoly.zero(a[0].field) for _ in range(len(a) + len(b) - 1)]
    for i, r in enumerate(a):
        for j, t in enumerate(b):
            out[i + j] = out[i + j] + r * t
    return out


def _planted_cases(field, rng):
    """(q, k, planted roots) with q = R * prod (y - f)^m over the planted f:
    a pair sharing a prefix, a double root, and both at once (y-degree up to
    6, past p in GF(2), GF(3) and GF(5))."""
    cases = []
    for trial in range(12):
        k = rng.randint(2, 6)
        f, g = (UniPoly(field, [field.rand(rng) for _ in range(k)]) for _ in range(2))
        # f and its sibling agree on their first j coefficients
        sibling = f + monomial(field, rng.randrange(1, k), rand_nonzero(field, rng))
        planted = ([(f, 1), (sibling, 1)], [(f, 2)], [(f, 1), (sibling, 1), (g, 2)])[trial % 3]
        rows = rand_bipoly(field, rng, rng.randint(0, 2), 3).rows
        for h, m in planted:
            for _ in range(m):
                rows = _ymul(rows, [scale(h, -1), UniPoly.one(field)])
        cases.append((BiPoly(field, len(rows) - 1, rows), k, {h for h, _ in planted}))
    return cases


@pytest.mark.parametrize("p", [2, 3, 5, 13])
def test_y_roots_match_full_precision_reference(p):
    field = PrimeField(p)
    for q, k, planted in _planted_cases(field, random.Random(50 + p)):
        got = y_roots(q, k)
        assert got == ref_y_roots(q, k)
        assert planted <= set(got)


@pytest.mark.parametrize("p", [2, 3, 5, 13])
def test_simple_root_strips_one_x_and_leaves_a_linear_slice(p):
    # the premise of y_roots's lifting argument, on the reference's own walk:
    # below a simple root the walk is the one series root _lift computes
    field = PrimeField(p)
    seen = {True: 0, False: 0}
    for q, k, _ in _planted_cases(field, random.Random(50 + p)):
        work = [(q, 0)]
        while work:
            cur, depth = work.pop()
            cur = BiPoly(field, cur.ell, strip_x(cur.rows))
            s = UniPoly(field, [r.eval(0) for r in cur.rows])
            ds = UniPoly(field, [i * c for i, c in enumerate(s.coeffs)][1:])
            for gamma in scan_roots(s):
                shifted = ref_shift(cur, gamma)
                simple = ds.eval(gamma) != 0
                seen[simple] += 1
                if simple:
                    val = min(next(i for i, c in enumerate(r.coeffs) if c) for r in shifted.rows if r)
                    assert val == 1
                    nxt = UniPoly(field, [r.eval(0) for r in strip_x(shifted.rows)])
                    assert nxt.degree == 1
                if depth + 1 < k:
                    work.append((shifted, depth + 1))
    assert seen[True] and seen[False]


@pytest.fixture
def lifts(monkeypatch):
    """The K of every _lift call y_roots makes, in call order."""
    seen = []

    def recording(rows, gamma, K, field):
        seen.append(K)
        return _lift(rows, gamma, K, field)

    monkeypatch.setattr(decoder, "_lift", recording)
    return seen


def _large_field_roots(field):
    # the reference's slice roots where GF(p) is too large to scan;
    # _poly_roots is checked against scan_roots and planted roots above
    return lambda f: _poly_roots(f.coeffs, field)


def _plant_pair(field, rng, k, shared, slice_r=None):
    """(q, f, g) with q = (y - f)(y - g) * R, f and g of degree < k agreeing
    on exactly their first `shared` coefficients. R has y-degree 1 and
    random rows, or the given values at x = 0 under random higher terms."""
    f = [field.rand(rng) for _ in range(k)]
    g = f[:shared] + [(f[shared] + rand_nonzero(field, rng)) % field.p]
    g += [field.rand(rng) for _ in range(k - shared - 1)]
    f, g = UniPoly(field, f), UniPoly(field, g)
    if slice_r is None:
        rows = rand_bipoly(field, rng, 1, 3).rows
    else:
        rows = [UniPoly(field, [c] + [field.rand(rng) for _ in range(3)]) for c in slice_r]
    for h in (f, g):
        rows = _ymul(rows, [scale(h, -1), UniPoly.one(field)])
    return BiPoly(field, len(rows) - 1, rows), f, g


@pytest.mark.parametrize("p", [65521, BENCH_PRIME])
@pytest.mark.parametrize("k", [64, 200])
def test_y_roots_lifts_planted_roots_at_large_k(p, k, lifts):
    field = PrimeField(p)
    q, f, g = _plant_pair(field, random.Random(k + p), k, 0)
    got = y_roots(q, k)
    assert got == ref_y_roots(q, k, _large_field_roots(field))
    assert {f, g} <= set(got)
    assert lifts.count(k) >= 2


@pytest.mark.parametrize("p, k, shared", [(13, 24, 7), (BENCH_PRIME, 64, 20)])
def test_y_roots_lift_starts_below_a_double_root(p, k, shared, lifts):
    # f and g share their first `shared` coefficients, so the walk branches
    # on a double root that many levels before the two simple roots appear
    field = PrimeField(p)
    q, f, g = _plant_pair(field, random.Random(shared + p), k, shared)
    roots = scan_roots if p <= 13 else _large_field_roots(field)
    got = y_roots(q, k)
    assert got == ref_y_roots(q, k, roots)
    assert {f, g} <= set(got)
    assert lifts.count(k - shared) >= 2


@pytest.mark.parametrize("p, slice_r", [(2, [1, 1, 1]), (3, [1, 0, 1])])
def test_y_roots_lift_over_tiny_fields_with_slices_past_p(p, slice_r, lifts):
    # R(0, y) = y^2 + y + 1 over GF(2) and y^2 + 1 over GF(3) has no root,
    # so a slice of degree 4 >= p goes through the gcd with y^p - y, and its
    # roots f(0) != g(0) are simple
    field = PrimeField(p)
    rng = random.Random(p)
    for k, shared in ((40, 0), (40, 9)):
        q, f, g = _plant_pair(field, rng, k, shared, slice_r)
        lifts.clear()
        got = y_roots(q, k)
        assert got == ref_y_roots(q, k)
        assert {f, g} <= set(got)
        assert lifts.count(k - shared) >= 2


@pytest.mark.parametrize("p", [2, 3, 13, BENCH_PRIME])
def test_lift_postcondition(p):
    # q(x, g) = 0 mod x^K and g(0) = gamma; with gamma simple, Hensel's
    # lemma makes that g unique, so it is the branch's candidate
    field = PrimeField(p)
    rng = random.Random(80 + p)
    done = 0
    while done < 3:
        q = rand_bipoly(field, rng, rng.randint(1, 4), 40)
        gamma = field.rand(rng)
        rows = [list(r.coeffs) or [0] for r in q.rows]
        rows[0][0] = (rows[0][0] - sum(r[0] * gamma**i for i, r in enumerate(rows))) % p
        if not sum(i * r[0] * gamma ** (i - 1) for i, r in enumerate(rows) if i) % p:
            continue
        q = BiPoly(field, q.ell, [UniPoly(field, r) for r in rows])
        for K in (1, 2, 3, 7, 8, 9, 33):
            g = _lift([r.coeffs for r in q.rows], gamma, K, field)
            assert len(g) == K and g[0] == gamma
            assert not any(q.eval_y(UniPoly(field, g)).coeffs[:K])
        done += 1


def test_y_roots_scalar_work_grows_quasi_linearly_in_k():
    # q = (y - f)(y - g) * u(x) over the bench prime has only simple roots.
    # Walking each branch level by level unpacks the k - L remaining
    # coefficients of every row per level, about 4x the work per doubling of
    # k; lifting doubles the precision per Newton step, about 2x
    field = PrimeField(BENCH_PRIME)
    counts = {}
    for k in (256, 512):
        rng = random.Random(7)
        f, g = (UniPoly(field, [field.rand(rng) for _ in range(k)]) for _ in range(2))
        rows = [rand_unipoly(field, rng, 3)]
        for h in (f, g):
            rows = _ymul(rows, [scale(h, -1), UniPoly.one(field)])
        q = BiPoly(field, 2, rows)
        with count_scalar_mults() as ctr:
            got = y_roots(q, k)
        assert set(got) == {f, g}
        counts[k] = ctr.mults
    assert counts[512] / counts[256] <= 2.6
    # the exact counts: work added without changing the roots shows here
    assert counts == {256: 6114, 512: 12256}


def test_y_roots_zero_rejected():
    with pytest.raises(ValueError):
        y_roots(BiPoly.from_monomials(F13, 1, []), 2)


def test_y_roots_degree_bound_below_one_rejected():
    # a prefix never shortens, so without the check k < 1 branches forever;
    # the alarm turns such a hang into a failure
    def hang(signum, frame):
        raise TimeoutError("y_roots did not return")

    q = BiPoly.from_monomials(F13, 1, [(0, 1, 1)])  # q = y
    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(5)
    try:
        for k in (0, -1):
            with pytest.raises(ValueError, match="k >= 1"):
                y_roots(q, k)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# -- end-to-end decoding ---------------------------------------------------------------


def _rs255_word():
    """A fresh RS [255, 64] over the bench prime, its parameters at tau = 121
    and a seeded message with a received word exactly tau errors away."""
    field = PrimeField(BENCH_PRIME)
    rng = random.Random(121)
    code = RSCode(field, 255, 64)
    params = gs_params(code, 121)
    assert (params.s, params.ell) == (4, 8)
    msg = [field.rand(rng) for _ in range(code.k)]
    return code, params, msg, _noisy(code, rng, msg, params.tau)


def test_decode_basis_passes_the_certificate(monkeypatch):
    # decode_list solves the n - kappa points past the re-encoded ones from
    # the start basis {L^max(s-j,0) * y^j}. Multiplied back, that basis spans
    # the interpolation module of the re-encoded word over all n points, the
    # first kappa of which it has made 0
    code, params, msg, recv = _rs255_word()
    field = code.field
    real_solve, solves = fast.solve, []

    def solve(inst, *args):
        solves.append((inst, *args))
        return real_solve(inst, *args)

    monkeypatch.setattr("gsinterp.fast.solve", solve)
    assert msg in decode_list(code, recv, params)
    ((inst, schedule, start),) = solves
    kappa = code.n - inst.n
    full = InterpolationInstance(field, [(x, 0) for x in code.evalpoints[:kappa]] + inst.points,
                                 [params.s] * code.n, params.ell, params.w)
    assert certify(full, fast.solve_basis(inst, schedule, start)) == []


# decode_list's counted work on _rs255_word(): inside fast.solve, inside
# y_roots, and the rest (re-encoding, the x-side build, the distance filter)
DECODE_PINS = {"solve": 4523283, "y_roots": 17855, "rest": 10013}


def test_decode_op_count_pins(monkeypatch):
    # a deterministic companion to the shape pins in s and ell, on a fresh
    # code: decoding again on the same code keeps the x-side and the nodes'
    # Newton inverses, and counts less outside the solve. Each wrapper's
    # block counts on its own, so the outer counter holds only the rest
    code, params, msg, recv = _rs255_word()
    counts = {}

    def counted(name, fn):
        def wrapped(*args):
            with count_scalar_mults() as ctr:
                out = fn(*args)
            counts[name] = ctr.mults
            return out
        return wrapped

    monkeypatch.setattr("gsinterp.fast.solve", counted("solve", fast.solve))
    monkeypatch.setattr("gsinterp.decoder.y_roots", counted("y_roots", decoder.y_roots))
    with count_scalar_mults() as rest:
        assert msg in decode_list(code, recv, params)
    counts["rest"] = rest.mults
    assert counts == DECODE_PINS


def test_decode_no_errors():
    rng = random.Random(2)
    code = RSCode(F13, 12, 3)
    params = gs_params(code, 0)
    for _ in range(5):
        msg = [F13.rand(rng) for _ in range(3)]
        assert msg in decode_list(code, code.encode(msg), params)


def test_decode_beyond_half_distance_small():
    rng = random.Random(3)
    code = RSCode(F13, 12, 3)
    params = GSParams(s=2, ell=6, tau=5, w=2)
    codewords = {tuple(code.encode(m)): m for m in all_messages(F13, 3)}
    for _ in range(5):
        msg = [F13.rand(rng) for _ in range(3)]
        word = code.encode(msg)
        recv = list(word)
        for pos in rng.sample(range(12), 5):
            recv[pos] = (recv[pos] + rng.randrange(1, 13)) % 13
        got = decode_list(code, recv, params)
        assert msg in got
        want = sorted(m for cw, m in codewords.items() if hamming(cw, recv) <= 5)
        assert got == want


def test_decode_far_word_gives_empty_list():
    code = RSCode(F13, 12, 3)
    params = GSParams(s=2, ell=6, tau=5, w=2)
    codewords = [code.encode(m) for m in all_messages(F13, 3)]
    rng = random.Random(4)
    while True:
        recv = [F13.rand(rng) for _ in range(12)]
        if all(hamming(cw, recv) > 5 for cw in codewords):
            break
    assert decode_list(code, recv, params) == []


def test_decode_within_unique_radius_matches_unique_answer():
    rng = random.Random(5)
    code = RSCode(F13, 12, 3)
    tau = (12 - 3) // 2  # 4
    params = gs_params(code, tau)
    for _ in range(5):
        msg = [F13.rand(rng) for _ in range(3)]
        recv = list(code.encode(msg))
        for pos in rng.sample(range(12), tau):
            recv[pos] = (recv[pos] + rng.randrange(1, 13)) % 13
        assert decode_list(code, recv, params) == [msg]


def test_decoded_messages_reencode_within_radius():
    rng = random.Random(6)
    code = RSCode(F13, 12, 3)
    params = GSParams(s=2, ell=6, tau=5, w=2)
    msg = [F13.rand(rng) for _ in range(3)]
    recv = list(code.encode(msg))
    for pos in rng.sample(range(12), 5):
        recv[pos] = (recv[pos] + rng.randrange(1, 13)) % 13
    for m in decode_list(code, recv, params):
        assert hamming(code.encode(m), recv) <= 5


def test_decode_over_bench_prime():
    # [64,16] over the 30-bit prime with 27 errors, past half the distance (24)
    field = PrimeField(754974721)
    rng = random.Random(7)
    code = RSCode(field, 64, 16)
    msg = [field.rand(rng) for _ in range(16)]
    recv = code.encode(msg)
    for pos in rng.sample(range(64), 27):
        recv[pos] = (recv[pos] + rand_nonzero(field, rng)) % field.p
    assert msg in decode_list(code, recv, gs_params(code, 27))


def test_decode_long_message_over_bench_prime():
    # k = 1000: root extraction walks one level per message coefficient, far
    # past the interpreter's default recursion limit
    field = PrimeField(754974721)
    rng = random.Random(1100)
    code = RSCode(field, 1100, 1000)
    msg = [field.rand(rng) for _ in range(1000)]
    recv = code.encode(msg)
    for pos in rng.sample(range(1100), 10):
        recv[pos] = (recv[pos] + rand_nonzero(field, rng)) % field.p
    assert decode_list(code, recv, gs_params(code, 10)) == [msg]


@pytest.mark.parametrize("params", [
    GSParams(s=2, ell=6, tau=5, w=1),  # w != k - 1
    GSParams(s=2, ell=6, tau=5, w=5),
    GSParams(s=1, ell=1, tau=5, w=2),  # fails the counting bound
    GSParams(s=0, ell=6, tau=5, w=2),
    GSParams(s=10**50, ell=6, tau=5, w=2),  # fails the counting bound
    GSParams(s=2, ell=0, tau=5, w=2),
    GSParams(s=2, ell=10**50, tau=5, w=2),  # over the work budget
    GSParams(s=2, ell=6, tau=-1, w=2),
    GSParams(s=2, ell=6, tau=12, w=2),
])
def test_decode_refuses_parameters_that_cannot_work(monkeypatch, params):
    # each used to return a list, mostly without the sent message, and no
    # error; now it is refused before any interpolation, and nothing is cached.
    # s or ell = 10**50 is answered at once: the bound is in closed form
    code = RSCode(F13, 12, 3)

    def reached(*args, **kwargs):
        raise AssertionError("interpolation reached")

    monkeypatch.setattr("gsinterp.fast.solve", reached)
    t0 = time.process_time()
    with pytest.raises(ValueError):
        decode_list(code, code.encode([1, 2, 3]), params)
    assert time.process_time() - t0 < 1.0
    assert code._schedules == {}


def test_decode_refuses_k_below_two_like_gs_params(monkeypatch):
    # w = k - 1 = 0 used to pass _check_params, and the instance refused the
    # weight instead; gs_params and decode_list now share one check
    code = RSCode(PrimeField(101), 10, 1)
    monkeypatch.setattr("gsinterp.fast.solve", lambda *a, **k: pytest.fail("interpolation reached"))
    with pytest.raises(ValueError, match="needs k >= 2"):
        decode_list(code, [0] * 10, GSParams(s=1, ell=1, tau=2, w=0))
    with pytest.raises(ValueError, match="needs k >= 2"):
        gs_params(code, 2)
    assert code._schedules == {}


def test_decode_list_refuses_work_over_budget(monkeypatch):
    # RS [16384, 4096] at tau = 7952 passes the counting bound first at s = 8,
    # ell = 16, but the work rule refuses its decode from s = 4 on, so the
    # search ends there. RS [255, 64] at tau = 127 passes at s = 26, ell = 51,
    # whose interpolation is over problem.check_work's budget: refused before
    # the schedule is built. RS [1024, 256] at tau = 497 goes on to it
    def built(*args, **kwargs):
        raise AssertionError("schedule built")

    monkeypatch.setattr("gsinterp.fast.Schedule", built)
    field = PrimeField(754974721)
    code = RSCode(field, 16384, 4096)
    with pytest.raises(InfeasibleParameters, match="at s=3.*at s=4, fast solve.*budget"):
        gs_params(code, 7952)
    with pytest.raises(ValueError, match="budget"):
        decode_list(code, [0] * 16384, GSParams(s=8, ell=16, tau=7952, w=4095))
    assert code._schedules == {}
    code = RSCode(field, 255, 64)
    params = gs_params(code, 127)
    assert (params.s, params.ell) == (26, 51)
    with pytest.raises(ValueError, match="budget"):
        decode_list(code, [0] * 255, params)
    assert code._schedules == {}
    code = RSCode(field, 1024, 256)
    with pytest.raises(AssertionError, match="schedule built"):
        decode_list(code, [0] * 1024, gs_params(code, 497))


def test_decode_past_the_grid_rs_30_25():
    # RS [30, 25] over GF(101) at tau = 3 first passes the counting bound at
    # s = 9, past the 8 x 32 grid gs_params once searched
    field = PrimeField(101)
    rng = random.Random(30)
    code = RSCode(field, 30, 25)
    params = gs_params(code, 3)
    assert (params.s, params.ell) == (9, 10)
    assert grid_gs_params(30, 25, 3) is None
    for _ in range(2):
        msg = [field.rand(rng) for _ in range(25)]
        recv = _noisy(code, rng, msg, 3)
        got = decode_list(code, recv, params)
        assert msg in got
        assert got == ref_decode_list(code, recv, params)


def _params(code, s, tau):
    """The smallest feasible list size for multiplicity s at radius tau: the
    count stops growing past ell = s(n - tau) / w."""
    w = code.k - 1
    ell = next(e for e in range(1, s * code.n + 1) if _passes(code.n, w, s, e, tau))
    return GSParams(s=s, ell=ell, tau=tau, w=w)


def _passes(n, w, s, ell, tau):
    lhs, rhs = monomial_budget(n, w, s, ell, tau)
    return lhs > rhs


def _noisy(code, rng, msg, tau):
    recv = code.encode(msg)
    for pos in rng.sample(range(code.n), tau):
        recv[pos] = (recv[pos] + rand_nonzero(code.field, rng)) % code.field.p
    return recv


def test_decode_through_one_code_matches_fresh_codes():
    # one code decodes a seeded sequence of words while s cycles 1 -> 3 -> 2
    # -> 1 (twice), so each of its per-s schedules is reused after the others;
    # every list equals the one a fresh code gives
    field = PrimeField(101)
    rng = random.Random(19)
    code = RSCode(field, 32, 8)
    for s, tau in [(1, 12), (3, 15), (2, 15), (1, 13)] * 2:
        params = _params(code, s, tau)
        msg = [field.rand(rng) for _ in range(8)]
        recv = _noisy(code, rng, msg, tau)
        got = decode_list(code, recv, params)
        assert msg in got
        assert got == decode_list(RSCode(field, 32, 8), recv, params)
    assert sorted(code._schedules) == [1, 2, 3]


def test_decode_after_evaluation_points_change():
    # the code's schedule was built on the old points; it must not be used
    # once they change, in place or by a new list
    field = PrimeField(101)
    rng = random.Random(20)
    code = RSCode(field, 32, 8)
    params = _params(code, 2, 15)
    msg = [field.rand(rng) for _ in range(8)]
    assert msg in decode_list(code, _noisy(code, rng, msg, 15), params)
    code.evalpoints[3] = next(x for x in range(101) if x not in code.evalpoints)
    code.evalpoints.reverse()
    for _ in range(2):
        recv = _noisy(code, rng, msg, 15)
        got = decode_list(code, recv, params)
        assert msg in got
        assert got == decode_list(RSCode(field, 32, 8, code.evalpoints), recv, params)
        code.evalpoints = [(x + 50) % 101 for x in code.evalpoints]
    # a new x among the first k points, which only the re-encoding reads (L
    # and c's weights): the kept x-side is rebuilt
    decode_list(code, _noisy(code, rng, msg, 15), params)
    kept = code._schedules[params.s]
    code.evalpoints[2] = next(x for x in range(101) if x not in code.evalpoints)
    recv = _noisy(code, rng, msg, 15)
    got = decode_list(code, recv, params)
    assert msg in got
    assert got == decode_list(RSCode(field, 32, 8, code.evalpoints), recv, params)
    assert code._schedules[params.s] is not kept


def test_decode_after_field_changes():
    # the code's x-side was built over GF(101); once the field is GF(103) it
    # no longer fits, though the points and k are the same
    rng = random.Random(21)
    code = RSCode(PrimeField(101), 12, 3)
    params = gs_params(code, 5)
    msg = [code.field.rand(rng) for _ in range(3)]
    assert msg in decode_list(code, _noisy(code, rng, msg, 5), params)
    code.field = PrimeField(103)
    msg = [code.field.rand(rng) for _ in range(3)]
    recv = _noisy(code, rng, msg, 5)
    got = decode_list(code, recv, params)
    assert msg in got
    assert got == decode_list(RSCode(PrimeField(103), 12, 3, code.evalpoints), recv, params)


@pytest.mark.parametrize("p, n, k", [(BENCH_PRIME, 255, 64), (2**64 - 59, 40, 12), (101, 12, 12)])
def test_tree_values_give_horner_values(p, n, k):
    # values down the kept kappa-tree and down the schedule's tree are
    # Horner's values of any f of length <= k, the all p - 1 one included.
    # 2^64 - 59 has coefficients past 8 bytes; k = n has kappa = n - 1 < k,
    # so f is reduced mod L at the kappa-tree's root
    field = PrimeField(p)
    rng = random.Random(n * k)
    xs = list({field.rand(rng) for _ in range(2 * n)})[:n]
    code = RSCode(field, n, k, xs)
    xside = decoder._Reencoding(code, 2)
    kappa = xside.kappa
    assert kappa == min(k, n - 1)
    for f in ([], [field.rand(rng)], [field.rand(rng) for _ in range(k)], [p - 1] * k):
        g = UniPoly(field, f)
        assert decoder._values(xside.tree, f, field) == [g.eval(x) for x in xs[:kappa]]
        assert decoder._values(xside.schedule.tree, f, field) == [g.eval(x) for x in xs[kappa:]]
    L = UniPoly.one(field)
    for x in xs[:kappa]:
        L = L * x_minus(field, x)
    dL = UniPoly(field, [i * c for i, c in enumerate(L.coeffs)][1:])
    assert xside.weights == [field.inv(dL.eval(x)) for x in xs[:kappa]]


def test_kept_x_side_grows_quasi_linearly():
    # the bytes a code's x-side keeps, at k = n / 2: a structure of n * k
    # entries grows 4x per doubling of n, the trees and L^m about 2.3x
    field = PrimeField(65521)
    kept = {}
    for n in (512, 1024):
        code = RSCode(field, n, n // 2)
        tracemalloc.start()
        try:
            xside = decoder._Reencoding(code, 1)
            kept[n] = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
    assert kept[1024] / kept[512] <= 3


# (p, n, k, tau, error positions): "reencoded" puts errors on every one of the
# first kappa = min(k, n - 1) positions, or on tau of them when tau < kappa;
# "random" on any tau positions; "far" is a uniformly random word
_REFERENCE_CASES = [
    (13, 12, 3, 5, "random"),
    (13, 12, 8, 1, "reencoded"),  # rate >= 1/2: L^s is reduced mod the root modulus
    (13, 12, 12, 0, "none"),  # k = n: kappa = n - 1 leaves one point to solve
    (13, 12, 3, 5, "far"),
    (101, 32, 8, 15, "reencoded"),
    (101, 20, 12, 3, "random"),
    (101, 20, 12, 3, "reencoded"),
    (101, 10, 10, 0, "none"),
    (101, 32, 8, 12, "far"),
    (65521, 64, 16, 27, "reencoded"),
    (65521, 64, 16, 30, "random"),
    (65521, 40, 24, 7, "random"),
    (BENCH_PRIME, 32, 8, 16, "reencoded"),
    (BENCH_PRIME, 24, 16, 3, "reencoded"),
    (BENCH_PRIME, 32, 8, 15, "far"),
    (BENCH_PRIME, 100, 70, 10, "reencoded"),  # kappa = 70: runs below three tree levels
]


@pytest.mark.parametrize("p, n, k, tau, errors", _REFERENCE_CASES)
def test_decode_list_matches_full_solve_reference(monkeypatch, p, n, k, tau, errors):
    # decode_list re-encodes, solves n - kappa points from a start basis and
    # composes one row; the reference solves all n from {1, y, ..., y^ell}.
    # Shifting y by c keeps weighted degrees, so the least delta is the same
    field = PrimeField(p)
    rng = random.Random(f"{p}:{n}:{k}:{tau}:{errors}")
    code = RSCode(field, n, k)
    params = gs_params(code, tau)
    real_solve, solves = fast.solve, []

    def solve(inst, *args):
        out = real_solve(inst, *args)
        solves.append((inst.n, min(out[1])))
        return out

    monkeypatch.setattr("gsinterp.fast.solve", solve)
    for _ in range(3):
        msg = [field.rand(rng) for _ in range(k)]
        recv = code.encode(msg)
        if errors == "far":
            recv = [field.rand(rng) for _ in range(n)]
        else:
            head = min(k, n - 1, tau) if errors == "reencoded" else 0
            positions = list(range(head)) + rng.sample(range(head, n), tau - head)
            for pos in positions:
                recv[pos] = (recv[pos] + rand_nonzero(field, rng)) % p
        want = ref_decode_list(code, recv, params)
        assert decode_list(code, recv, params) == want
        full = InterpolationInstance(field, list(zip(code.evalpoints, recv)), [params.s] * n,
                                     params.ell, params.w)
        assert solves.pop() == (n - min(k, n - 1), min(real_solve(full)[1]))
        if errors == "far":
            assert want == []
        else:
            assert msg in want
