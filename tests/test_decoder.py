import itertools
import random

import pytest

from gsinterp.bipoly import BiPoly
from gsinterp.decoder import (
    GSParams,
    InfeasibleParameters,
    RSCode,
    decode_list,
    gs_params,
    hamming,
    is_feasible,
    monomial_budget,
    _poly_roots,
    y_roots,
)
from gsinterp.field import PrimeField
from gsinterp.unipoly import UniPoly

from util import scan_roots

F13 = PrimeField(13)
F5 = PrimeField(5)


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
                num = num * UniPoly.x_minus(field, xj)
                den = den * (xi - xj) % p
        acc = acc + num.scale(yi * field.inv(den) % p)
    return acc


# -- parameter selection ------------------------------------------------------------


def test_stated_inequality_for_radius_five():
    # [12,3], tau=5: 56 monomials against 36 constraints at (s=2, ell=6)
    assert monomial_budget(12, 2, 2, 6, 5) == (56, 36)
    assert is_feasible(12, 2, 2, 6, 5)


def test_gs_params_minimal_pair():
    code = RSCode(F13, 12, 3)
    params = gs_params(code, 5)
    assert (params.s, params.ell) == (1, 2)  # smallest s, then smallest ell
    assert params.w == 2
    # no smaller pair works
    assert not is_feasible(12, 2, 1, 1, 5)


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
    cases = [(UniPoly.constant(field, field.rand_nonzero(rng)), set()) for _ in range(3)]
    for trial in range(8):
        f = UniPoly.constant(field, field.rand_nonzero(rng))
        roots = set()
        for _ in range(rng.randint(1, 5)):
            r = field.rand(rng)
            roots.add(r)
            for _ in range(rng.randint(1, 3)):
                f = f * UniPoly.x_minus(field, r)
        if trial % 2:
            f = f * cofactor
        cases.append((f, roots))
    if p <= 13:
        # deg f > p, so x^p mod f is a real reduction; every element is
        # covered in the first, none in the second
        full = UniPoly.one(field)
        for r in range(p):
            full = full * UniPoly.x_minus(field, r)
        cases.append((full * UniPoly.x_minus(field, 0) * cofactor, set(range(p))))
        cases.append((cofactor.pow(p // 2 + 1), set()))
        for _ in range(6):
            f = UniPoly(field, [field.rand(rng) for _ in range(p + 1 + rng.randint(0, 2 * p))] + [1])
            cases.append((f, None))
    return cases


@pytest.mark.parametrize("p", [2, 3, 5, 13, 65521])
def test_poly_roots_match_scan(p):
    field = PrimeField(p)
    rng = random.Random(1000 + p)
    for f, roots in _root_cases(field, rng):
        rng_state = random.getstate()
        got = _poly_roots(f)
        assert random.getstate() == rng_state
        assert got == scan_roots(f)
        if roots is not None:
            assert got == sorted(roots)
        assert _poly_roots(f) == got


def test_poly_roots_bench_prime():
    field = PrimeField(754974721)
    p = field.p
    rng = random.Random(9)
    roots = sorted({field.rand(rng) for _ in range(12)} | {0, p - 1})
    non_residue = next(a for a in range(2, p) if pow(a, (p - 1) // 2, p) == p - 1)
    f = UniPoly(field, [-non_residue, 0, 1])  # root-free
    for r in roots:
        f = f * UniPoly.x_minus(field, r) * UniPoly.x_minus(field, r)
    assert _poly_roots(f) == roots


def test_poly_roots_zero_rejected():
    with pytest.raises(ValueError):
        _poly_roots(UniPoly.zero(F13))


# -- y-roots ------------------------------------------------------------------------


def test_y_roots_linear_factor():
    f = UniPoly(F13, [3, 5, 1])
    q = BiPoly(F13, 1, [-f, UniPoly.one(F13)])  # y - f
    roots = y_roots(q, 3)
    assert roots == [f]


def test_y_roots_constructed_factors():
    f = UniPoly(F13, [2, 1])
    g = UniPoly(F13, [5, 0, 3])
    u = UniPoly(F13, [1, 0, 0, 7])
    # (y - f)(y - g) * u(x)
    q = BiPoly(
        F13, 2,
        [f * g * u, (-(f + g)) * u, u],
    )
    roots = y_roots(q, 3)
    assert f in roots and g in roots


def test_y_roots_equals_exhaustive_enumeration():
    rng = random.Random(1)
    code = RSCode(F5, 5, 2)
    from gsinterp import fast
    from gsinterp.problem import InterpolationInstance

    for _ in range(10):
        received = [F5.rand(rng) for _ in range(5)]
        inst = InterpolationInstance(
            F5, list(zip(code.evalpoints, received)), [1] * 5, ell=2, w=1
        )
        q, _ = fast.solve(inst)
        got = {tuple(f.coeffs + [0] * (2 - len(f.coeffs))) for f in y_roots(q, 2)}
        want = {
            tuple(msg)
            for msg in all_messages(F5, 2)
            if q.eval_y(UniPoly(F5, msg)).is_zero()
        }
        assert got == want


def test_y_roots_zero_rejected():
    with pytest.raises(ValueError):
        y_roots(BiPoly.zero(F13, 1), 2)


# -- end-to-end decoding ---------------------------------------------------------------


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
        recv[pos] = (recv[pos] + field.rand_nonzero(rng)) % field.p
    assert msg in decode_list(code, recv, gs_params(code, 27))
