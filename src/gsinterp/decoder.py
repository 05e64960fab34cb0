"""Reed-Solomon list decoding on top of the interpolation engine.

Messages are coefficient vectors of polynomials of degree < k; codewords are
their evaluations at n distinct points. Decoding interpolates a bivariate
polynomial through the received points with uniform multiplicity, extracts
its y-roots of degree < k, and keeps the candidates within the target
Hamming radius. gs_params picks the multiplicity s and list size ell by the
counting bound with no cap: problem.check_work's budget ends the search.

Re-encoding (Koetter, Ma and Vardy, IEEE Trans. IT 57(2), 2011) lets the
interpolation solve only n - kappa points, kappa = min(k, n - 1): decode_list
subtracts the polynomial c of degree < kappa through the received values at
the first kappa evaluation points, so the word is 0 there. The polynomials
with multiplicity s at those (x_i, 0) are generated by
G_j = L^max(s - j, 0) * y^j, L the product of (x - x_i) over them, and
fast.solve starts from that basis on the other n - kappa points. Shifting y
by c, of degree < kappa <= w + 1, keeps every weighted degree and maps the
module onto the one of the received word, so a minimal solution's roots f,
with c added back, contain every message within the radius. f + c differs
from the word where f is nonzero on the first kappa points and where f
differs from the re-encoded word on the others, so the distance filter
gives the same list as a solve over all n points.

The x-side of the interpolation depends only on the field, the evaluation
points, k and s, never on the received word. A _Reencoding holds it: the
fast.Schedule of the other n - kappa points, the powers L^m for m <= s,
c's x-side: the modulus tree of the first kappa points at multiplicity 1,
whose root modulus is L, and their weights 1 / L'(x_i). None is
kappa x kappa or (n - kappa) x kappa. decode_list keeps one per s in a
private slot of the RSCode, so a decoder builds the x-side once per code and
s however many words it decodes, and rebuilds one whose field, points or k
no longer fit. Per word, c is a weighted sum of L / (x - x_i), combined up
the first tree from its runs. Its values at the other points, and each
root's values at all n, come down the trees by remainders (_values), each
node's PackedModulus packed once for every word, Horner's rule taking over
at the runs. So the work per word grows as the tree products plus
n * min(kappa, s * classic.LEAF_MAX), not as kappa * n.

Root extraction (y_roots) is Roth-Ruckenstein branching on trimmed
coefficient lists from the interpolated rows down to the candidates. Slice
roots come from _poly_roots: one inversion for a linear slice, and over an
odd p the quadratic formula for a quadratic one, for one square root
(_sqrt_mod). Otherwise a gcd with x^p - x keeps the distinct linear
factors, and Cantor-Zassenhaus splitting breaks them down to quadratic
factors, which the formula finishes; its powers (x + delta)^e mod h
(_pow_mod) reduce each square while it is still packed. Every remainder
goes through a unipoly.PackedModulus, whose rule picks synthetic or Newton
division. Each level's substitution y -> x*y + gamma packs the rows once.
Below a simple root the branch is one power series, lifted by Newton
iteration (_lift) rather than walked. Only the exact check of each
candidate goes through BiPoly and UniPoly.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_left
from functools import cache
from typing import NamedTuple

from . import fast
from .bipoly import BiPoly, taylor_vectors
from .field import PrimeField
from .problem import InterpolationInstance, check_work
from .unipoly import (
    PackedModulus, UniPoly, _add_raw, _mul_kron, _pack, _series_inv, _slot_width, _trim, _unpack,
)

# root splitting draws its shifts from a generator of its own with this seed,
# so the global RNG is untouched and a decode repeats its work exactly
_SPLIT_SEED = 0x5EED
_SPLIT_DRAWS = 64  # failed draws in a row after which _split_linear gives up


class InfeasibleParameters(ValueError):
    """No (s, ell) passes the counting bound (from gs_params: within the work budget)."""


class RSCode:
    __slots__ = ("field", "n", "k", "evalpoints", "_schedules")

    def __init__(self, field: PrimeField, n: int, k: int, evalpoints=None):
        if not 1 <= k <= n <= field.p:
            raise ValueError("need 1 <= k <= n <= p")
        evalpoints = [a % field.p for a in (range(1, n + 1) if evalpoints is None else evalpoints)]
        if len(evalpoints) != n or len(set(evalpoints)) != n:
            raise ValueError("need n pairwise distinct evaluation points")
        self.field = field
        self.n = n
        self.k = k
        self.evalpoints = evalpoints
        self._schedules: dict[int, _Reencoding] = {}  # by s, filled by decode_list

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
    """(monomials below the decoding degree bound, interpolation constraints);
    feasible means the first exceeds the second. The first sums the m + 1
    positive terms of max(0, D - j*w), j <= ell, in closed form: D = s(n - tau),
    m = min(ell, (D - 1) // w), w >= 1."""
    d = s * (n - tau)
    m = min(ell, (d - 1) // w)
    lhs = (m + 1) * d - w * m * (m + 1) // 2 if d > 0 else 0
    return lhs, n * s * (s + 1) // 2


def gs_params(code: RSCode, tau: int) -> GSParams:
    """Smallest s = 1, 2, ..., then smallest ell, passing the counting bound,
    once _check_params' refusals of k < 2 and tau outside [0, n) are passed.
    The count stops growing past ell = m (monomial_budget): its value at
    max(1, m) says whether any ell passes, and bisection finds the least.
    When none does and the decode at s + 1 is over the work budget even at
    ell = 1 (_check_work), the search ends with InfeasibleParameters."""
    n, w = code.n, code.k - 1
    if w < 1 or not 0 <= tau < n:
        _check_params(code, GSParams(s=1, ell=1, tau=tau, w=w))
    for s in itertools.count(1):
        top = max(1, (s * (n - tau) - 1) // w)
        lhs, rhs = monomial_budget(n, w, s, top, tau)
        if lhs > rhs:
            ell = 1 + bisect_left(range(1, top + 1), True,
                                  key=lambda e: monomial_budget(n, w, s, e, tau)[0] > rhs)
            return GSParams(s=s, ell=ell, tau=tau, w=w)
        try:
            _check_work(code, s + 1, 1)
        except ValueError as exc:
            raise InfeasibleParameters(
                f"tau={tau} infeasible for [n={n}, k={code.k}] at s={s}, ell={top}: "
                f"monomial count {lhs} must exceed constraint count {rhs}; at s={s + 1}, {exc}"
            ) from None


# ---------------------------------------------------------------------------
# y-root extraction
# ---------------------------------------------------------------------------


def _gcd(a: list[int], b: list[int], field: PrimeField) -> list[int]:
    """Monic gcd of a and b, not both zero."""
    while b:
        a, b = b, PackedModulus(b, field).divmod(a)[1]
    c, p = field.inv(a[-1]), field.p
    return [v * c % p for v in a]


def _pow_mod(delta: int, e: int, m: list[int], field: PrimeField) -> list[int]:
    """(x + delta)^e mod m, deg m >= 1, by left-to-right square-and-multiply
    on one PackedModulus. At a set bit the square times x + delta is formed
    as out * (out * (x + delta)), the second factor a shift plus a scaled
    add. Each product stays packed, its slots unreduced, until rem_packed
    divides it and unpacks the remainder, so no square is unpacked: out has
    at most dm coefficients, so a slot sums at most dm products, and the
    division adds at most dm more."""
    p = field.p
    mod = PackedModulus(m, field)
    width = _slot_width(2 * mod.dm, p)
    out = [1]
    for bit in bin(e)[2:]:
        if not out:
            break  # m divides the power, and so every later one
        a = _pack(out, width)
        if bit == "1":
            b = _pack(_add_raw([0] + out, [delta * c % p for c in out], p), width)
            out = mod.rem_packed(a * b, 2 * len(out), width)
        else:
            out = mod.rem_packed(a * a, 2 * len(out) - 1, width)
    return out


def _sqrt_mod(a: int, p: int) -> int | None:
    """A square root of a mod an odd prime p, None when a is a non-residue:
    Euler's criterion and Tonelli-Shanks on p - 1 = q * 2^e. When
    p = 3 mod 4, e = 1 and the loop never runs: r = a^((p+1)/4)."""
    if pow(a, (p - 1) // 2, p) != 1:
        return None if a else 0
    q, e = p - 1, 0
    while q % 2 == 0:
        q, e = q // 2, e + 1
    c, r, t = pow(_non_residue(p), q, p), pow(a, (q + 1) // 2, p), pow(a, q, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (e - i - 1), p)
        r, c, e = r * b % p, b * b % p, i
        t = t * c % p
    return r


@cache
def _non_residue(p: int) -> int:
    """The least quadratic non-residue mod an odd prime p."""
    return next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)


def _quadratic_roots(f: list[int], p: int) -> list[int]:
    """Sorted distinct roots of c0 + c1*x + c2*x^2, c2 != 0, over GF(p) with
    p odd: (-c1 +- sqrt(D)) / (2 c2) for D = c1^2 - 4 c0 c2, none when D is
    a non-residue and one when D = 0."""
    c0, c1, c2 = f
    r = _sqrt_mod((c1 * c1 - 4 * c0 * c2) % p, p)
    if r is None:
        return []
    inv = pow(2 * c2, -1, p)
    return sorted({(r - c1) * inv % p, (-r - c1) * inv % p})


def _split_linear(h: list[int], field: PrimeField, rng: random.Random, out: list[int]) -> None:
    """Append the roots of h, monic and a product of distinct linear factors
    over GF(p) with p odd. Down to degree 2, by equal-degree splitting: for a
    random shift delta, gcd(h, (x + delta)^((p-1)/2) - 1) keeps the roots r
    whose r + delta is a nonzero square, about half of them. A draw splits h
    with probability about 1/2 or more, so _SPLIT_DRAWS failures in a row
    mean h is not such a product, and raise RuntimeError rather than draw
    forever. A factor of degree 2 or 1 gives its roots in closed form."""
    p, misses = field.p, 0
    while len(h) > 3:
        if misses == _SPLIT_DRAWS:
            raise RuntimeError(f"no split of a degree-{len(h) - 1} factor in {_SPLIT_DRAWS} draws")
        shifted = _pow_mod(rng.randrange(p), (p - 1) // 2, h, field)
        d = _gcd(h, _trim(_add_raw(shifted, [p - 1], p)), field)
        misses += 1
        if 2 <= len(d) < len(h):
            _split_linear(d, field, rng, out)
            h, misses = PackedModulus(d, field).divmod(h)[0], 0
    if len(h) == 3:
        out += _quadratic_roots(h, p)
    elif len(h) == 2:
        out.append(-h[0] % p)


def _poly_roots(f: list[int], field: PrimeField) -> list[int]:
    """Sorted distinct roots in GF(p) of f, a nonzero trimmed coefficient
    list. A linear f = c0 + c1*x has the one root -c0/c1, for one
    inversion, and over an odd p a quadratic has its roots in closed form,
    for one square root. Otherwise g = gcd(f, x^p - x) is the product of
    the distinct linear factors of f, and Cantor-Zassenhaus splitting breaks
    g into them: expected O(d^2 log d log p) field operations for d = deg f."""
    if not f:
        raise ValueError("every field element is a root of the zero polynomial")
    p = field.p
    if len(f) <= 2:
        return [-f[0] * field.inv(f[1]) % p] if len(f) == 2 else []
    if p == 2:
        return [v for v, val in ((0, f[0]), (1, sum(f) % 2)) if val == 0]
    if len(f) == 3:
        return _quadratic_roots(f, p)
    g = _gcd(f, _trim(_add_raw(_pow_mod(0, p, f, field), [0, p - 1], p)), field)
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


def _lift(rows: list[list[int]], gamma: int, K: int, field: PrimeField) -> list[int]:
    """g mod x^K for the power series g with g(0) = gamma and q(x, g) = 0, q
    given by its y-power rows, gamma a simple root of q(0, y) (see y_roots).
    Newton's step doubles the h correct coefficients: x^h divides q(x, g),
    and the next h are -x^-h q(x, g) / q_y(x, g), both by Horner in y."""
    p = field.p
    rows = [r[:K] for r in rows]
    g = [gamma]
    while len(g) < K:
        h = len(g)
        m = min(2 * h, K)
        val, der = rows[-1][:m], []
        for r in reversed(rows[:-1]):
            der = _add_raw(_mul_kron(der, g, p, m - h), val[: m - h], p)
            val = _add_raw(_mul_kron(val, g, p, m), r[:m], p)
        corr = _mul_kron(val[h:], _series_inv(der, m - h, field), p, m - h)
        g += [-c % p for c in corr] + [0] * (m - h - len(corr))
    return g


def y_roots(q: BiPoly, k: int) -> list[UniPoly]:
    """All f with deg f < k and q(x, f(x)) = 0, by Roth-Ruckenstein branching:
    each root gamma of the slice S(y) = q(0, y) extends the prefix, and its
    branch continues on q(x, x*y + gamma) / x^v. Every candidate of length k
    is checked exactly with q.eval_y. The branches wait on an explicit
    worklist, so k is not bounded by the interpreter's recursion limit.

    Lifting. Below a simple root gamma (S'(gamma) != 0, which says gamma is
    simple in any characteristic) nothing is branched. As q_y(0, gamma) =
    S'(gamma) is nonzero, Hensel's lemma gives exactly one power series g
    with g(0) = gamma and q(x, g) = 0; _lift computes g mod x^(k - L) for a
    prefix of length L. It is the branch Roth-Ruckenstein walks: row 0 of
    q(x, x*y + gamma) has x-valuation >= 1 (S(gamma) = 0), row 1 exactly 1
    (its x coefficient is S'(gamma)) and row t >= t, so one x is stripped,
    the next slice is linear with one simple root, and g = gamma + x*g1 for
    g1 the series root of the stripped polynomial through that root. A root
    that is not simple is branched on at full precision."""
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
            simple = sum(i * c * pow(gamma, i - 1, p) for i, c in enumerate(slice_poly) if i) % p
            if simple or len(prefix) + 1 == k:
                candidates.add(prefix + tuple(_lift(rows, gamma, k - len(prefix), field)))
            else:
                work.append((_shift_root(rows, gamma, p), prefix + (gamma,)))
    roots = (UniPoly(field, list(coeffs)) for coeffs in sorted(candidates))
    return [f for f in roots if q.eval_y(f).is_zero()]


# ---------------------------------------------------------------------------
# end-to-end decoding
# ---------------------------------------------------------------------------


def hamming(a, b) -> int:
    return sum(1 for x, y in zip(a, b) if x != y)


def _check_params(code: RSCode, params: GSParams) -> None:
    """Raise ValueError unless decoding with params can find every message
    within tau: k >= 2 and w = k - 1, s >= 1 and ell >= 1, 0 <= tau < n, and
    the counting bound (InfeasibleParameters)."""
    n, k = code.n, code.k
    s, ell, tau, w = params.s, params.ell, params.tau, params.w
    if k < 2:
        raise ValueError("list decoding here needs k >= 2 (weight w = k-1 must be positive)")
    if w != k - 1:
        raise ValueError(f"weight w={w} must be k - 1 = {k - 1}")
    if s < 1 or ell < 1:
        raise ValueError(f"need s >= 1 and ell >= 1, got s={s}, ell={ell}")
    if not 0 <= tau < n:
        raise ValueError(f"error target must satisfy 0 <= tau < n={n}, got {tau}")
    lhs, rhs = monomial_budget(n, w, s, ell, tau)
    if lhs <= rhs:
        raise InfeasibleParameters(
            f"tau={tau} infeasible for [n={n}, k={k}] at s={s}, ell={ell}: "
            f"monomial count {lhs} must exceed constraint count {rhs}"
        )


def _check_work(code: RSCode, s: int, ell: int) -> None:
    """problem.check_work on decode_list's fast.solve of n - kappa points at (s, ell)."""
    rest = code.n - min(code.k, code.n - 1)
    check_work(rest, rest * (s * (s + 1) // 2), ell, "fast")


class _Reencoding:
    """The x-side of decoding a code at multiplicity s with re-encoding (see
    the module docstring): kappa, the fast.Schedule of the evaluation points
    after the first kappa, the modulus tree of the first kappa (multiplicity
    1, so its root modulus is L), lpows[m] = L^m for m <= s, and the
    weights 1 / L'(x_i) of the first kappa points. Nothing kept is
    kappa x n: over GF(65521) with k = n / 2 it holds 175, 416 and 947 KB
    at n = 512, 1024 and 2048 (tracemalloc), growing 2.3x per doubling.
    Kept with the code's key (p, k and a copy of the evaluation points), to
    tell when it no longer fits."""

    __slots__ = ("key", "kappa", "schedule", "tree", "lpows", "weights")

    def __init__(self, code: RSCode, s: int):
        field, p = code.field, code.field.p
        xs = list(code.evalpoints)
        self.key = (p, code.k, xs)
        self.kappa = kappa = min(code.k, code.n - 1)
        rest = code.n - kappa
        self.schedule = fast.Schedule(field, [(x, 0) for x in xs[kappa:]], [s] * rest)
        self.tree = fast.build_modulus_tree(field, xs, [1] * kappa, 0, kappa - 1)
        L = self.tree.modulus.m
        self.lpows = [[1]]
        for _ in range(s):
            self.lpows.append(_mul_kron(self.lpows[-1], L, p))
        dL = [i * c % p for i, c in enumerate(L)][1:]
        self.weights = [field.inv(v) for v in _values(self.tree, dL, field)]

    def word(self, received: list[int], field: PrimeField) -> tuple[list[int], list[int]]:
        """c, the polynomial of degree < kappa through the received values at
        the first kappa points, c = sum_i a_i L / (x - x_i) with
        a_i = r_i / L'(x_i), combined up the first tree, and the re-encoded
        values received - c at the other points, down the second."""
        p = field.p
        c = _combine(self.tree, [r * v % p for r, v in zip(received, self.weights)], p)
        rest = _values(self.schedule.tree, c, field)
        return c, [(r - v) % p for r, v in zip(received[self.kappa :], rest)]


def _combine(node, a: list[int], p: int) -> list[int]:
    """sum_i a[i] * M / (x - x_i) over the points i of a modulus-tree node
    of multiplicity 1, M its modulus: left * M_right + right * M_left above
    the runs. At a run of m points the x^j coefficient is
    sum_e M_(j+1+e) P_e, P_e = sum_i a_i x_i^e, which is coefficient
    m - 1 - j of M reversed times P."""
    if node.run is None:
        return _trim(_add_raw(_mul_kron(_combine(node.left, a, p), node.right.modulus.m, p),
                              _mul_kron(_combine(node.right, a, p), node.left.modulus.m, p), p))
    xs, m = node.run.xs, len(node.run.xs)
    terms = a[node.lo : node.hi + 1]
    sums = [sum(terms) % p]
    for _ in range(m - 1):
        terms = [t * x % p for t, x in zip(terms, xs)]
        sums.append(sum(terms) % p)
    low = _mul_kron(node.modulus.m[::-1], sums, p, m)
    return _trim((low + [0] * (m - len(low)))[::-1])


def _values(node, f: list[int], field: PrimeField) -> list[int]:
    """f at the points of a modulus-tree node, in order: f is reduced mod
    each node's modulus on the way down (a no-op while it is shorter), and
    evaluated by Horner's rule at the runs."""
    f = node.modulus.divmod(f)[1]
    if node.run is None:
        return _values(node.left, f, field) + _values(node.right, f, field)
    g = UniPoly(field, f, normalized=True)
    return [g.eval(x) for x in node.run.xs]


def decode_list(code: RSCode, received, params: GSParams) -> list[list[int]]:
    """All messages whose codewords lie within Hamming distance tau of the
    received word; parameters that cannot guarantee that are refused
    (_check_params), and so is a decode over problem.check_work's budget
    (_check_work), before any schedule is built. The word is re-encoded on
    its first kappa points, the other n - kappa are solved from the
    re-encoded basis on the code's x-side for s, and each root f within tau,
    by its values down the two trees, is kept with c added back."""
    field, p = code.field, code.field.p
    received = [v % p for v in received]
    if len(received) != code.n:
        raise ValueError(f"received word must have length n={code.n}")
    _check_params(code, params)
    s, ell, w = params.s, params.ell, params.w
    _check_work(code, s, ell)
    xside = code._schedules.get(s)
    if xside is None or xside.key != (p, code.k, code.evalpoints):
        xside = code._schedules[s] = _Reencoding(code, s)
    kappa = xside.kappa
    c, rest = xside.word(received, field)
    inst = InterpolationInstance(field, list(zip(code.evalpoints[kappa:], rest)), [s] * len(rest),
                                 ell, w)
    start = (
        [[xside.lpows[max(s - j, 0)] if l == j else [] for l in range(ell + 1)]
         for j in range(ell + 1)],
        [kappa * max(s - j, 0) + w * j for j in range(ell + 1)],
    )
    q, _ = fast.solve(inst, xside.schedule, start)
    out = []
    for f in y_roots(q, code.k):
        errors = sum(map(bool, _values(xside.tree, f.coeffs, field)))
        if errors + hamming(_values(xside.schedule.tree, f.coeffs, field), rest) <= params.tau:
            msg = _add_raw(f.coeffs, c, p)
            out.append(msg + [0] * (code.k - len(msg)))
    return sorted(out)
