"""Reed-Solomon list decoding on top of the interpolation engine.

Messages are coefficient vectors of polynomials of degree < k; codewords are
their evaluations at n distinct points. Decoding interpolates a bivariate
polynomial through the received points with uniform multiplicity, extracts
its y-roots of degree < k, and keeps the candidates within the target
Hamming radius.

The x-side of the interpolation depends only on the evaluation points and
the multiplicity s, never on the received word: a fast.Schedule holds it (the
modulus tree with its Newton inverses, each leaf run's shift plans and Taylor
vectors in x). decode_list keeps one per s in a private slot of the RSCode,
so a decoder builds the x-side once per code and s (a run's part on the
second word, see classic.Run), however many words it decodes; a schedule
whose points no longer fit is rebuilt.

Root extraction (y_roots) is Roth-Ruckenstein branching on trimmed
coefficient lists from the interpolated rows down to the candidates. Slice
roots come from _poly_roots: one inversion for a linear slice, a gcd with
x^p - x and Cantor-Zassenhaus splitting otherwise. Each level's substitution
y -> x*y + gamma packs the rows once. Below a simple root a branch keeps only
as many x-coefficients as it has levels left. Only the exact check of each
candidate goes through BiPoly and UniPoly.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from . import fast
from .bipoly import BiPoly, taylor_vectors
from .field import PrimeField
from .problem import InterpolationInstance, check_work
from .unipoly import UniPoly, _add_raw, _divmod_raw, _mul_kron, _pack, _slot_width, _trim, _unpack

# root splitting draws its shifts from a generator of its own with this seed,
# so the global RNG is untouched and a decode repeats its work exactly
_SPLIT_SEED = 0x5EED

# gs_params searches multiplicities s <= S_CAP and list sizes ell <= ELL_CAP
S_CAP = 8
ELL_CAP = 32


class InfeasibleParameters(ValueError):
    """No (s, ell) within caps satisfies the counting inequality."""


class RSCode:
    __slots__ = ("field", "n", "k", "evalpoints", "_schedules")

    def __init__(self, field: PrimeField, n: int, k: int, evalpoints=None):
        if not 1 <= k <= n <= field.p:
            raise ValueError("need 1 <= k <= n <= p")
        if evalpoints is None:
            evalpoints = [i % field.p for i in range(1, n + 1)]
        else:
            evalpoints = [a % field.p for a in evalpoints]
        if len(evalpoints) != n or len(set(evalpoints)) != n:
            raise ValueError("need n pairwise distinct evaluation points")
        self.field = field
        self.n = n
        self.k = k
        self.evalpoints = evalpoints
        self._schedules: dict[int, fast.Schedule] = {}  # by s, filled by decode_list

    def encode(self, message) -> list[int]:
        """Evaluate the message polynomial (coefficients low-to-high, len <= k)."""
        if len(message) > self.k:
            raise ValueError(f"message longer than k={self.k}")
        f = UniPoly(self.field, list(message))
        return [f.eval(a) for a in self.evalpoints]


class GSParams(NamedTuple):
    s: int
    ell: int
    tau: int
    w: int


def monomial_budget(n: int, w: int, s: int, ell: int, tau: int) -> tuple[int, int]:
    """(number of monomials below the decoding degree bound, number of
    interpolation constraints). Feasible means the first exceeds the second."""
    lhs = sum(max(0, s * (n - tau) - j * w) for j in range(ell + 1))
    rhs = n * s * (s + 1) // 2
    return lhs, rhs


def is_feasible(n: int, w: int, s: int, ell: int, tau: int) -> bool:
    lhs, rhs = monomial_budget(n, w, s, ell, tau)
    return lhs > rhs


def gs_params(code: RSCode, tau: int) -> GSParams:
    """Smallest multiplicity, then smallest list size, passing the counting
    bound; refused as _check_params refuses it, InfeasibleParameters when no
    pair within the caps passes."""
    w = code.k - 1
    pairs = ((s, ell) for s in range(1, S_CAP + 1) for ell in range(1, ELL_CAP + 1))
    s, ell = next((q for q in pairs if is_feasible(code.n, w, *q, tau)), (S_CAP, ELL_CAP))
    params = GSParams(s=s, ell=ell, tau=tau, w=w)
    _check_params(code, params)
    return params


# ---------------------------------------------------------------------------
# y-root extraction
# ---------------------------------------------------------------------------


def _gcd(a: list[int], b: list[int], field: PrimeField) -> list[int]:
    """Monic gcd of a and b, not both zero."""
    while b:
        a, b = b, _divmod_raw(a, b, field)[1]
    c, p = field.inv(a[-1]), field.p
    return [v * c % p for v in a]


def _pow_mod(base: list[int], e: int, m: list[int], field: PrimeField) -> list[int]:
    """base^e mod m by left-to-right square-and-multiply."""
    base = _divmod_raw(base, m, field)[1]
    out = _divmod_raw([1], m, field)[1]
    for bit in bin(e)[2:]:
        out = _divmod_raw(_mul_kron(out, out, field.p), m, field)[1]
        if bit == "1":
            out = _divmod_raw(_mul_kron(out, base, field.p), m, field)[1]
    return out


def _split_linear(h: list[int], field: PrimeField, rng: random.Random, out: list[int]) -> None:
    """Append the roots of h, monic and a product of distinct linear factors
    over GF(p) with p odd, by equal-degree splitting: for a random shift
    delta, gcd(h, (x + delta)^((p-1)/2) - 1) keeps the roots r whose r + delta
    is a nonzero square, about half of them."""
    p = field.p
    while len(h) > 2:
        shifted = _pow_mod([rng.randrange(p), 1], (p - 1) // 2, h, field)
        d = _gcd(h, _trim(_add_raw(shifted, [p - 1], p)), field)
        if 2 <= len(d) < len(h):
            _split_linear(d, field, rng, out)
            h = _divmod_raw(h, d, field)[0]
    if len(h) == 2:
        out.append(-h[0] % p)


def _poly_roots(f: list[int], field: PrimeField) -> list[int]:
    """Sorted distinct roots in GF(p) of f, a nonzero trimmed coefficient
    list. A linear f = c0 + c1*x has the one root -c0/c1, for one inversion;
    every slice below a simple root is linear (see y_roots), so most calls
    end there. Otherwise g = gcd(f, x^p - x) is the product of the distinct
    linear factors of f, and Cantor-Zassenhaus splitting breaks g into them:
    expected O(d^2 log d log p) field operations for d = deg f."""
    if not f:
        raise ValueError("every field element is a root of the zero polynomial")
    p = field.p
    if len(f) <= 2:
        return [-f[0] * field.inv(f[1]) % p] if len(f) == 2 else []
    if p == 2:
        return [v for v, val in ((0, f[0]), (1, sum(f) % 2)) if val == 0]
    g = _gcd(f, _trim(_add_raw(_pow_mod([0, 1], p, f, field), [0, p - 1], p)), field)
    out: list[int] = []
    _split_linear(g, field, random.Random(_SPLIT_SEED), out)
    return sorted(out)


def _shift_root(rows: list[list[int]], gamma: int, p: int) -> list[list[int]]:
    """q(x, x*y + gamma) divided by the largest power of x dividing it, for a
    nonzero q given by its y-power rows. Row j is x^j * sum_i C(i, j) *
    gamma^(i-j) * row_i, the Taylor vector v_j in y: each row is packed once,
    each output row is one sum of scalar multiples of the packed rows,
    unpacked once. The stripped power is read from the unpacked rows, since
    a packed sum can be a nonzero integer whose slots are all multiples of p."""
    n = len(rows)
    width = _slot_width(n, p)
    packed = [_pack(r, width) for r in rows]
    size = max(map(len, rows))
    out = [
        _unpack(sum(c * r for c, r in zip(v, packed) if c), size, width, p)
        for v in taylor_vectors(gamma, n, n, p)
    ]
    val = min(j + next(i for i, c in enumerate(r) if c) for j, r in enumerate(out) if r)
    return [r and ([0] * (j - val) + r if j >= val else r[val - j :]) for j, r in enumerate(out)]


def y_roots(q: BiPoly, k: int) -> list[UniPoly]:
    """All f with deg f < k and q(x, f(x)) = 0, by Roth-Ruckenstein branching:
    each root gamma of the slice S(y) = q(0, y) extends the prefix, and its
    branch continues on q(x, x*y + gamma) / x^v. Every candidate of length k
    is checked exactly with q.eval_y. The branches wait on an explicit
    worklist, so k is not bounded by the interpreter's recursion limit.

    Precision. Below a simple root gamma (S'(gamma) != 0, which says gamma is
    simple in any characteristic), a branch with prefix length L keeps only
    the first k - L coefficients of each row. Row j of q(x, x*y + gamma) is
    x^j times the order-j Hasse derivative in y at gamma. Row 0 has
    x-valuation >= 1 (its constant term is S(gamma) = 0), row 1 has
    valuation exactly 1 (its x^1 coefficient is S'(gamma)), row t has
    valuation >= t. So exactly one x is stripped, and the next slice is
    linear with nonzero leading coefficient S'(gamma): its one root is again
    simple, and by induction the whole branch stays linear. Coefficient e of
    the stripped output depends only on input coefficients <= e + 1, and the
    k - L slices the branch still reads are coefficients 0 to k - L - 1 of
    its rows. So truncation leaves every slice, and every candidate,
    unchanged. Below a root that is not simple the rows stay at full
    precision."""
    if q.is_zero():
        raise ValueError("root extraction needs a nonzero polynomial")
    if k < 1:
        raise ValueError(f"root extraction needs a degree bound k >= 1, got {k}")
    field, p = q.field, q.field.p
    rows = [r.coeffs for r in q.rows]
    val = min(next(i for i, c in enumerate(r) if c) for r in rows if r)
    candidates: set[tuple[int, ...]] = set()
    work: list[tuple[list[list[int]], tuple[int, ...]]] = [([r[val:] for r in rows], ())]
    while work:
        rows, prefix = work.pop()
        slice_poly = _trim([r[0] if r else 0 for r in rows])
        for gamma in _poly_roots(slice_poly, field):
            nxt = prefix + (gamma,)
            if len(nxt) == k:
                candidates.add(nxt)
            elif sum(i * c * pow(gamma, i - 1, p) for i, c in enumerate(slice_poly) if i) % p:
                keep = k - len(nxt)
                work.append(([_trim(r[:keep]) for r in _shift_root(rows, gamma, p)], nxt))
            else:
                work.append((_shift_root(rows, gamma, p), nxt))
    out = []
    for coeffs in sorted(candidates):
        f = UniPoly(field, list(coeffs))
        if q.eval_y(f).is_zero():
            out.append(f)
    return out


# ---------------------------------------------------------------------------
# end-to-end decoding
# ---------------------------------------------------------------------------


def hamming(a, b) -> int:
    return sum(1 for x, y in zip(a, b) if x != y)


def _check_params(code: RSCode, params: GSParams) -> None:
    """Raise ValueError unless decoding with params can find every message
    within tau: k >= 2 and w = k - 1, s and ell within the caps gs_params
    searches, 0 <= tau < n, and the counting bound (InfeasibleParameters)."""
    n, k = code.n, code.k
    s, ell, tau, w = params.s, params.ell, params.tau, params.w
    if k < 2:
        raise ValueError("list decoding here needs k >= 2 (weight w = k-1 must be positive)")
    if w != k - 1:
        raise ValueError(f"weight w={w} must be k - 1 = {k - 1}")
    if not (1 <= s <= S_CAP and 1 <= ell <= ELL_CAP):
        raise ValueError(f"need 1 <= s <= {S_CAP} and 1 <= ell <= {ELL_CAP}, got s={s}, ell={ell}")
    if not 0 <= tau < n:
        raise ValueError(f"error target must satisfy 0 <= tau < n={n}, got {tau}")
    if not is_feasible(n, w, s, ell, tau):
        lhs, rhs = monomial_budget(n, w, s, ell, tau)
        raise InfeasibleParameters(
            f"tau={tau} infeasible for [n={n}, k={k}] at s={s}, ell={ell}: "
            f"monomial count {lhs} must exceed constraint count {rhs}"
        )


def decode_list(code: RSCode, received, params: GSParams) -> list[list[int]]:
    """All messages whose codewords lie within Hamming distance tau of the
    received word; parameters that cannot guarantee that are refused
    (_check_params), and so is an interpolation over problem.check_work's
    budget, before any schedule is built. The interpolation runs on the
    code's schedule for s."""
    field = code.field
    received = [v % field.p for v in received]
    if len(received) != code.n:
        raise ValueError(f"received word must have length n={code.n}")
    _check_params(code, params)
    inst = InterpolationInstance(
        field,
        list(zip(code.evalpoints, received)),
        [params.s] * code.n,
        params.ell,
        params.w,
    )
    check_work(inst.n, inst.constraint_count(), inst.ell, "fast")
    schedule = code._schedules.get(params.s)
    if schedule is None or not schedule.fits(inst):
        schedule = code._schedules[params.s] = fast.Schedule(field, inst.points, inst.mults)
    q, _ = fast.solve(inst, schedule)
    out = []
    for f in y_roots(q, code.k):
        msg = f.coeffs + [0] * (code.k - len(f.coeffs))
        if hamming(code.encode(msg), received) <= params.tau:
            out.append(msg)
    return sorted(out)
