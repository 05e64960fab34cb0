"""Shared test helpers."""

import glob
import os
import random
from math import comb

from gsinterp import fast
from gsinterp.bipoly import BiPoly
from gsinterp.classic import TrackedBasis
from gsinterp.cli import parse_instance_text
from gsinterp.decoder import hamming, y_roots
from gsinterp.field import PrimeField
from gsinterp.problem import InterpolationInstance, random_instance
from gsinterp.unipoly import UniPoly, count_scalar_mults

INSTANCE_DIR = os.path.join(os.path.dirname(__file__), "..", "instances")
BENCH_PRIME = 754974721


def bundled_instances() -> list[InterpolationInstance]:
    """The instances/*.txt files, read as the CLI reads them with --s 1."""
    out = []
    for path in sorted(glob.glob(os.path.join(INSTANCE_DIR, "*.txt"))):
        with open(path, encoding="utf-8") as fh:
            p, w, ell, points = parse_instance_text(fh.read())
        mults = [1 if s is None else s for _, _, s in points]
        out.append(
            InterpolationInstance(PrimeField(p), [(x, y) for x, y, _ in points], mults, ell, w)
        )
    return out


def golden_instances() -> list[InterpolationInstance]:
    """The bundled instances and 20 seeded ones over the bench prime, the
    instances of test_golden's digest."""
    out = bundled_instances()
    rng = random.Random(20261018)
    field = PrimeField(BENCH_PRIME)
    for k in range(20):
        n = rng.randint(1, 6) if k % 4 else rng.randint(40, 70)
        inst = random_instance(
            field, rng, n, rng.randint(0, 4), rng.randint(1, 4), smin=1, smax=3
        )
        out.append(inst)
    return out


def ref_decode_list(code, received, params) -> list[list[int]]:
    """Independent reference for decoder.decode_list: fast.solve_basis over
    all n received points from {1, y, ..., y^ell}, on a fresh schedule, with
    no re-encoding, then y_roots of its minimal element and the distance
    filter."""
    field = code.field
    received = [v % field.p for v in received]
    inst = InterpolationInstance(field, list(zip(code.evalpoints, received)),
                                 [params.s] * code.n, params.ell, params.w)
    out = []
    for f in y_roots(fast.solve_basis(inst).minimal(), code.k):
        msg = f.coeffs + [0] * (code.k - len(f.coeffs))
        if hamming(code.encode(msg), received) <= params.tau:
            out.append(msg)
    return sorted(out)


def grid_gs_params(n: int, k: int, tau: int):
    """Reference for decoder.gs_params where a small grid suffices: the least
    s <= 8, then the least 1 <= ell <= 32, whose monomial count, the direct
    sum of max(0, s(n - tau) - j(k - 1)) over 0 <= j <= ell, exceeds the
    constraint count n s(s + 1) / 2; None when no pair on the grid passes."""
    w = k - 1
    for s in range(1, 9):
        d, rhs, lhs = s * (n - tau), n * s * (s + 1) // 2, 0
        for ell in range(33):
            lhs += max(0, d - ell * w)
            if ell and lhs > rhs:
                return s, ell
            if d - ell * w <= 0:  # no later term adds to the count
                break
    return None


# -- UniPoly operations only the tests use, each on the library's list kernels --


def monomial(field: PrimeField, k: int, c: int = 1) -> UniPoly:
    """c * x^k."""
    return UniPoly(field, [0] * k + [c])


def x_minus(field: PrimeField, x0: int) -> UniPoly:
    return UniPoly(field, [-x0, 1])


def scale(a: UniPoly, c: int) -> UniPoly:
    return UniPoly(a.field, [v * c for v in a.coeffs])


def sub(a: UniPoly, b: UniPoly) -> UniPoly:
    return a + scale(b, -1)


def shift_up(a: UniPoly, k: int) -> UniPoly:
    """x^k * a."""
    return UniPoly(a.field, [0] * k + a.coeffs) if a else a


def poly_pow(a: UniPoly, e: int) -> UniPoly:
    """a^e for e >= 0 by e schoolbook products, independent of the library's
    multiply."""
    out = UniPoly.one(a.field)
    for _ in range(e):
        out = schoolbook_product(out, a)
    return out


def poly_divmod(a: UniPoly, m: UniPoly) -> tuple[UniPoly, UniPoly]:
    """Quotient and remainder by schoolbook long division, one quotient
    coefficient and one row of m per step, independent of the library's
    packed division."""
    if a.field != m.field:
        raise ValueError("polynomials from different fields")
    if m.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    p, b = a.field.p, m.coeffs
    dm = len(b) - 1
    r = list(a.coeffs)
    q = [0] * max(0, len(r) - dm)
    lead_inv = pow(b[-1], -1, p)
    for i in reversed(range(len(q))):
        q[i] = c = r[i + dm] * lead_inv % p
        for j, v in enumerate(b):
            r[i + j] = (r[i + j] - c * v) % p
    return UniPoly(a.field, q), UniPoly(a.field, r[:dm])


def poly_mod(a: UniPoly, m: UniPoly) -> UniPoly:
    return poly_divmod(a, m)[1]


def rand_nonzero(field: PrimeField, rng: random.Random) -> int:
    return 1 if field.p == 2 else rng.randrange(1, field.p)


def rand_unipoly(field: PrimeField, rng: random.Random, deg: int) -> UniPoly:
    coeffs = [field.rand(rng) for _ in range(deg)] + [rand_nonzero(field, rng)]
    return UniPoly(field, coeffs)


def rand_bipoly(field: PrimeField, rng: random.Random, ell: int, xdeg: int) -> BiPoly:
    rows = []
    for _ in range(ell + 1):
        if rng.random() < 0.2:
            rows.append(UniPoly.zero(field))
        else:
            rows.append(rand_unipoly(field, rng, rng.randint(0, xdeg)))
    q = BiPoly(field, ell, rows)
    if q.is_zero():
        rows[0] = UniPoly.one(field)
        q = BiPoly(field, ell, rows)
    return q


def x_degree(q: BiPoly):
    """Largest x-degree over the rows of q; NEG_INF for zero."""
    return max(r.degree for r in q.rows)


def reduce_mod(q: BiPoly, m: UniPoly) -> BiPoly:
    """Each row of q replaced by its remainder mod m."""
    return BiPoly(q.field, q.ell, [poly_mod(r, m) for r in q.rows])


def parse_monomials(field: PrimeField, ell: int, text: str) -> BiPoly:
    """The inverse of cli.format_monomials: "a,j,c;..." triples as a BiPoly."""
    terms = [tuple(int(v) for v in chunk.split(",")) for chunk in text.split(";")] if text else []
    return BiPoly.from_monomials(field, ell, terms)


def proportional(q1: BiPoly, q2: BiPoly) -> bool:
    """True iff q1 = c*q2 for a nonzero scalar c."""
    if q1.is_zero() or q2.is_zero():
        return q1.is_zero() and q2.is_zero()
    field = q1.field
    m1, m2 = q1.monomials(), q2.monomials()
    if [(a, j) for a, j, _ in m1] != [(a, j) for a, j, _ in m2]:
        return False
    c = m1[0][2] * field.inv(m2[0][2]) % field.p
    return all(c1 == c * c2 % field.p for (_, _, c1), (_, _, c2) in zip(m1, m2))


def schoolbook_product(a: UniPoly, b: UniPoly) -> UniPoly:
    """Independent quadratic reference multiply."""
    if a.is_zero() or b.is_zero():
        return UniPoly.zero(a.field)
    p = a.field.p
    out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, ai in enumerate(a.coeffs):
        for j, bj in enumerate(b.coeffs):
            out[i + j] = (out[i + j] + ai * bj) % p
    return UniPoly(a.field, out)


def taylor_shift(a: UniPoly, c: int) -> UniPoly:
    """Independent reference for a(x + c), by the synthetic-division cascade; O(d^2)."""
    p = a.field.p
    b = list(a.coeffs)
    n = len(b)
    for i in range(n):
        for j in range(n - 2, i - 1, -1):
            b[j] = (b[j] + c * b[j + 1]) % p
    return UniPoly(a.field, b)


def identity(field: PrimeField, ell: int) -> list[list[UniPoly]]:
    """The (ell+1) x (ell+1) identity over F[x], as its list of rows."""
    n = ell + 1
    return [[UniPoly.one(field) if i == j else UniPoly.zero(field) for j in range(n)] for i in range(n)]


def standard_basis(field: PrimeField, ell: int, w: int) -> TrackedBasis:
    """The starting basis {1, y, ..., y^ell}, with its weighted degrees."""
    return TrackedBasis.from_rows(field, coeff_rows(identity(field, ell)),
                                  [w * j for j in range(ell + 1)])


def logged(solver, *args):
    """solver(*args) and the pivot rounds it logged, as (point_index, dx, dy,
    pivot_index)."""
    with count_scalar_mults(pivots=True) as ctr:
        out = solver(*args)
    return out, ctr.pivots


def coeff_rows(T: list[list[UniPoly]]) -> list[list[list[int]]]:
    """A matrix over F[x] in the elimination step's row format: each entry as
    its trimmed coefficient list."""
    return [[list(e.coeffs) for e in row] for row in T]


def poly_rows(field: PrimeField, R: list[list[list[int]]]) -> list[list[UniPoly]]:
    """The inverse of coeff_rows."""
    return [[UniPoly(field, c) for c in row] for row in R]


def shift_values(vec: list[int], plan: tuple[list[int], list[int]], p: int) -> list[int]:
    """Reference gather of the pivot shift: the flat Hasse values of
    (x - xi)*b from those of b, by classic.shift_plan's (src, d)."""
    src, d = plan
    ext = vec + [0]
    return [(ext[a] + k * b) % p for a, k, b in zip(src, d, vec)]


def build_update_matrix(
    field: PrimeField, ell: int, t: int, ratios: list[int], xi: int
) -> list[list[UniPoly]]:
    """One inner round as an explicit matrix over F[x], as its list of rows:
    identity except column t, which holds -ratios[j] off the diagonal and
    (x - xi) on it."""
    U = identity(field, ell)
    for j in range(ell + 1):
        if j == t:
            U[t][t] = x_minus(field, xi)
        elif ratios[j] % field.p:
            U[j][t] = UniPoly(field, [-ratios[j]])
    return U


SCAN_MAX_P = 1 << 16


def scan_roots(f: UniPoly) -> list[int]:
    """Independent root oracle: evaluate f at every element of GF(p)."""
    p = f.field.p
    if p > SCAN_MAX_P:
        raise ValueError(f"scanning GF({p}) is too slow for a test oracle")
    return [v for v in range(p) if f.eval(v) == 0]


def strip_x(rows: list[UniPoly]) -> list[UniPoly]:
    """The rows divided by the largest power of x dividing all of them."""
    v = min((next(i for i, c in enumerate(r.coeffs) if c) for r in rows if r), default=0)
    return [UniPoly(r.field, r.coeffs[v:]) for r in rows]


def ref_shift(q: BiPoly, gamma: int) -> BiPoly:
    """Independent reference for q(x, x*y + gamma), no power of x stripped:
    row j is x^j * sum_i C(i, j) * gamma^(i-j) * row_i, with integer
    binomials."""
    field, p = q.field, q.field.p
    rows = []
    for j in range(q.ell + 1):
        acc = UniPoly.zero(field)
        for i in range(j, q.ell + 1):
            acc = acc + scale(q.rows[i], comb(i, j) * pow(gamma, i - j, p))
        rows.append(shift_up(acc, j))
    return BiPoly(field, q.ell, rows)


def ref_y_roots(q: BiPoly, k: int, roots=scan_roots) -> list[UniPoly]:
    """Independent reference for decoder.y_roots: Roth-Ruckenstein branching
    on BiPoly rows at full precision, one level per coefficient, with every
    slice's roots found by `roots` (scan_roots unless GF(p) is too large to
    scan) and every candidate checked with q.eval_y."""
    field = q.field
    candidates = set()
    work = [(q, ())]
    while work:
        cur, prefix = work.pop()
        cur = BiPoly(field, cur.ell, strip_x(cur.rows))
        for gamma in roots(UniPoly(field, [r.eval(0) for r in cur.rows])):
            nxt = prefix + (gamma,)
            if len(nxt) == k:
                candidates.add(nxt)
            else:
                work.append((ref_shift(cur, gamma), nxt))
    roots = (UniPoly(field, list(c)) for c in sorted(candidates))
    return [f for f in roots if q.eval_y(f).is_zero()]
