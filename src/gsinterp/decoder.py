"""Reed-Solomon list decoding on top of the interpolation engine.

Messages are coefficient vectors of polynomials of degree < k; codewords are
their evaluations at n distinct points. Decoding interpolates a bivariate
polynomial through the received points with uniform multiplicity, extracts
its y-roots of degree < k, and keeps the candidates within the target
Hamming radius.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import fast
from .bipoly import BiPoly
from .field import PrimeField
from .problem import InterpolationInstance
from .unipoly import UniPoly

# root splitting draws its shifts from a generator of its own with this seed,
# so the global RNG is untouched and a decode repeats its work exactly
_SPLIT_SEED = 0x5EED


class InfeasibleParameters(ValueError):
    """No (s, ell) within caps satisfies the counting inequality."""


class RSCode:
    __slots__ = ("field", "n", "k", "evalpoints")

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

    def encode(self, message) -> list[int]:
        """Evaluate the message polynomial (coefficients low-to-high, len <= k)."""
        if len(message) > self.k:
            raise ValueError(f"message longer than k={self.k}")
        f = UniPoly(self.field, list(message))
        return [f.eval(a) for a in self.evalpoints]


@dataclass(frozen=True)
class GSParams:
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


def gs_params(code: RSCode, tau: int, s_cap: int = 8, ell_cap: int = 32) -> GSParams:
    """Smallest multiplicity, then smallest list size, passing the counting bound."""
    if not 0 <= tau < code.n:
        raise ValueError("error target must satisfy 0 <= tau < n")
    if code.k < 2:
        raise ValueError("list decoding here needs k >= 2 (weight w = k-1 must be positive)")
    w = code.k - 1
    for s in range(1, s_cap + 1):
        for ell in range(1, ell_cap + 1):
            if is_feasible(code.n, w, s, ell, tau):
                return GSParams(s=s, ell=ell, tau=tau, w=w)
    lhs, rhs = monomial_budget(code.n, w, s_cap, ell_cap, tau)
    raise InfeasibleParameters(
        f"tau={tau} infeasible for [n={code.n}, k={code.k}] within s<={s_cap}, "
        f"ell<={ell_cap}: monomial count {lhs} must exceed constraint count {rhs}"
    )


# ---------------------------------------------------------------------------
# y-root extraction
# ---------------------------------------------------------------------------


def _gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd of a and b, not both zero."""
    while b:
        a, b = b, a % b
    return a.scale(a.field.inv(a.coeffs[-1]))


def _pow_mod(base: UniPoly, e: int, m: UniPoly) -> UniPoly:
    """base^e mod m by left-to-right square-and-multiply."""
    base = base % m
    out = UniPoly.one(base.field) % m
    for bit in bin(e)[2:]:
        out = out * out % m
        if bit == "1":
            out = out * base % m
    return out


def _split_linear(h: UniPoly, rng: random.Random, out: list[int]) -> None:
    """Append the roots of h, monic and a product of distinct linear factors
    over GF(p) with p odd, by equal-degree splitting: for a random shift
    delta, gcd(h, (x + delta)^((p-1)/2) - 1) keeps the roots r whose r + delta
    is a nonzero square, about half of them."""
    field, p = h.field, h.field.p
    one = UniPoly.one(field)
    while h.degree > 1:
        shift = UniPoly(field, [rng.randrange(p), 1], normalized=True)
        d = _gcd(h, _pow_mod(shift, (p - 1) // 2, h) - one)
        if 0 < d.degree < h.degree:
            _split_linear(d, rng, out)
            h = h // d
    if h.degree == 1:
        out.append(-h.coeffs[0] % p)


def _poly_roots(f: UniPoly) -> list[int]:
    """Sorted distinct roots of a nonzero f in GF(p): g = gcd(f, x^p - x) is
    the product of the distinct linear factors of f, and Cantor-Zassenhaus
    splitting breaks g into them. Expected O(d^2 log d log p) field operations
    for d = deg f."""
    if f.is_zero():
        raise ValueError("every field element is a root of the zero polynomial")
    p = f.field.p
    if p == 2:
        c = f.coeffs
        return [v for v, val in ((0, c[0]), (1, sum(c) % 2)) if val == 0]
    x = UniPoly.monomial(f.field, 1)
    g = _gcd(f, _pow_mod(x, p, f) - x)
    out: list[int] = []
    _split_linear(g, random.Random(_SPLIT_SEED), out)
    return sorted(out)


def _strip_x(q: BiPoly) -> BiPoly:
    """Divide out the largest power of x dividing every row."""
    vals = []
    for row in q.rows:
        if row.coeffs:
            vals.append(next(i for i, c in enumerate(row.coeffs) if c))
    if not vals:
        return q
    v = min(vals)
    if v == 0:
        return q
    field = q.field
    return BiPoly(
        field, q.ell,
        [UniPoly(field, row.coeffs[v:], normalized=True) if row.coeffs else row for row in q.rows],
    )


def _shift_root(q: BiPoly, gamma: int) -> BiPoly:
    """q(x, x*y + gamma): recenter y at gamma, then scale row j by x^j."""
    field, p = q.field, q.field.p
    ell = q.ell
    rows = []
    for j in range(ell + 1):
        acc = UniPoly.zero(field)
        gpow = 1
        for i in range(j, ell + 1):
            c = field.binom(i, j) * gpow % p
            if c:
                acc = acc + q.rows[i].scale(c)
            gpow = gpow * gamma % p
        rows.append(acc.shift_up(j))
    return BiPoly(field, ell, rows)


def y_roots(q: BiPoly, k: int) -> list[UniPoly]:
    """All f with deg f < k and q(x, f(x)) = 0, by branching on the roots of
    the constant-x slice level by level, verifying each full candidate."""
    if q.is_zero():
        raise ValueError("root extraction needs a nonzero polynomial")
    field = q.field
    candidates: set[tuple[int, ...]] = set()

    def rec(cur: BiPoly, prefix: list[int]) -> None:
        cur = _strip_x(cur)
        slice_poly = UniPoly(field, [row.eval(0) for row in cur.rows])
        for gamma in _poly_roots(slice_poly):
            nxt = prefix + [gamma]
            if len(nxt) == k:
                candidates.add(tuple(nxt))
            else:
                rec(_shift_root(cur, gamma), nxt)

    rec(q, [])
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


def decode_list(code: RSCode, received, params: GSParams) -> list[list[int]]:
    """All messages whose codewords lie within Hamming distance tau of the
    received word (for feasible parameters; guarantee exercised by tests)."""
    field = code.field
    received = [v % field.p for v in received]
    if len(received) != code.n:
        raise ValueError(f"received word must have length n={code.n}")
    inst = InterpolationInstance(
        field,
        list(zip(code.evalpoints, received)),
        [params.s] * code.n,
        params.ell,
        params.w,
    )
    q, _ = fast.solve(inst)
    out = []
    for f in y_roots(q, code.k):
        msg = f.coeffs + [0] * (code.k - len(f.coeffs))
        if hamming(code.encode(msg), received) <= params.tau:
            out.append(msg)
    return sorted(out)
