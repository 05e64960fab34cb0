"""Bivariate polynomials with bounded y-degree, weighted orders, Hasse derivatives.

A BiPoly is a vector of exactly ell+1 univariate rows, row j holding the
x-polynomial multiplying y^j. The (1,w)-weighted order compares monomials
by x_deg + w*y_deg, ties going to the larger x power.

Two evaluation routes for Hasse derivatives exist on purpose:
  * hasse_matrices — the production path, one call per run of points on
    plain coefficient lists: every element's values at every point, in the
    flat layout the elimination step carries and shifts (see classic). The
    coefficients are packed into lanes once per run, and each (point, dx) is
    one big-integer dot product with the Taylor vector v_dx[i] =
    C(i,dx) x0^(i-dx); the solvers hand in those vectors from a cached
    classic.Run. BiPoly.has_multiplicity is its one-point run, and
    classic.multiplicity_holds, certify's vanishing check, one run over every
    point.
  * hasse_derivative — the direct binomial-sum formula on the full
    coefficients, its binomials taken as integers (math.comb) mod p rather
    than from the Taylor vectors; slower, used as the independent cross-check.
"""

from __future__ import annotations

from itertools import chain
from math import comb
from operator import mul

from . import unipoly
from .field import PrimeField
from .unipoly import NEG_INF, UniPoly, _lanes, _pack, _slot_width


def derivative_orders(s: int) -> list[tuple[int, int]]:
    """All (dx, dy) with dx+dy < s, in lexicographic order."""
    if s < 1:
        raise ValueError("multiplicity must be positive")
    return [(dx, dy) for dx in range(s) for dy in range(s - dx)]


def taylor_vectors(x0: int, s: int, n: int, p: int) -> list[list[int]]:
    """v_k[i] = C(i, k) * x0^(i-k) mod p for k < s and i < n, so that the dot
    product of v_k with a polynomial's coefficients is the coefficient of x^k
    in its shift by x0. Built by the additive Pascal recurrence
    v_k[i] = v_k[i-1]*x0 + v_{k-1}[i-1], which holds in every characteristic."""
    vecs = []
    prev = [0] * n
    for k in range(s):
        v = [0] * n
        acc = 1 if k == 0 else 0
        for i in range(n):
            v[i] = acc
            acc = (acc * x0 + prev[i]) % p
        vecs.append(v)
        prev = v
    return vecs


def hasse_matrices(
    field: PrimeField, elems: list[list[list[int]]], points, mults: list[int],
    xvecs: list[list[list[int]]] | None = None,
) -> list[list[int]]:
    """Each element's Hasse values H[dx][dy], dx + dy < s, at every point (x0, y0)
    of a run with its multiplicity s: per point the anti-triangle row by row in
    derivative_orders(s) order, the points in run order. An element is its
    ell+1 rows as trimmed coefficient lists, ell read off the first one. The
    x^i coefficients of all m entries are packed once into cols[i], lanes of
    _slot_width(L, p) bytes for the longest length L, so a lane holds
    L*(p-1)^2. Per point and dx, one big-integer dot product of cols with
    the Taylor vector v_dx gives every entry's coefficient of x^dx in its
    shift by x0; the rows are then combined across y with the same vectors
    in y0. xvecs[i] holds point i's vectors v_dx in x0, at least L long (a
    run's cached ones, see classic.Run); built here at length L when None."""
    if not elems:
        return []
    p, k = field.p, len(elems[0])
    entries = list(chain.from_iterable(elems))
    m, L = len(entries), max(map(len, entries), default=0)
    width = _slot_width(L, p)
    lanes = [0] * (m * L)
    for l, e in enumerate(entries):
        lanes[l : l + m * len(e) : m] = e
    step = width * m
    raw = _pack(lanes, width).to_bytes(step * L, "little")
    cols = [int.from_bytes(raw[i * step : i * step + step], "little") for i in range(L)]
    if xvecs is None:
        xvecs = [taylor_vectors(x0, s, L, p) for (x0, _), s in zip(points, mults)]
    out = [[] for _ in elems]
    for (_, y0), s, xv in zip(points, mults, xvecs):
        # the y-side binomial weights C(j, dy) * y0^(j-dy) are the same vectors in y
        weights = taylor_vectors(y0, s, k, p)
        values = []  # values[r][e]: value r of this point of element e
        for dx, v in enumerate(xv):
            # every entry's coefficient of x^dx in its shift by x0, by element;
            # the dot product stops at cols' end, however long v is
            t = _lanes(sum(map(mul, cols, v)), m, width, p)
            rows = [t[b : b + k] for b in range(0, m, k)]
            values += ([sum(map(mul, w, r)) % p for r in rows] for w in weights[: s - dx])
        for vec, h in zip(out, zip(*values)):
            vec += h
    if unipoly._COUNTER is not None:
        unipoly._COUNTER.mults += sum(
            c * n - c * (c - 1) // 2 for s in mults for n in map(len, entries) for c in [min(s, n)]
        )
    return out


class BiPoly:
    __slots__ = ("field", "ell", "rows")

    def __init__(self, field: PrimeField, ell: int, rows: list[UniPoly]):
        if len(rows) != ell + 1:
            raise ValueError(f"need exactly {ell + 1} rows, got {len(rows)}")
        for r in rows:
            if r.field != field:
                raise ValueError("row from a different field")
        self.field = field
        self.ell = ell
        self.rows = rows

    # -- constructors ----------------------------------------------------------

    @classmethod
    def from_monomials(cls, field: PrimeField, ell: int, terms) -> "BiPoly":
        """terms: iterable of (xdeg, ydeg, coeff)."""
        acc: list[dict[int, int]] = [dict() for _ in range(ell + 1)]
        for a, j, c in terms:
            if not 0 <= j <= ell:
                raise ValueError(f"y-degree {j} out of range 0..{ell}")
            acc[j][a] = (acc[j].get(a, 0) + c) % field.p
        rows = []
        for d in acc:
            if d:
                top = max(d)
                rows.append(UniPoly(field, [d.get(i, 0) for i in range(top + 1)]))
            else:
                rows.append(UniPoly.zero(field))
        return cls(field, ell, rows)

    def monomials(self) -> list[tuple[int, int, int]]:
        """Sorted (xdeg, ydeg, coeff) triples of the nonzero terms."""
        out = []
        for j, row in enumerate(self.rows):
            for a, c in enumerate(row.coeffs):
                if c:
                    out.append((a, j, c))
        return out

    # -- queries ---------------------------------------------------------------

    def is_zero(self) -> bool:
        return all(r.is_zero() for r in self.rows)

    def weighted_degree(self, w: int):
        """Max of xdeg + w*ydeg over nonzero monomials; NEG_INF for zero."""
        best = NEG_INF
        for j, row in enumerate(self.rows):
            if row.coeffs:
                d = row.degree + w * j
                if d > best:
                    best = d
        return best

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BiPoly)
            and other.field == self.field
            and other.ell == self.ell
            and other.rows == self.rows
        )

    # -- arithmetic --------------------------------------------------------------

    def _check(self, other: "BiPoly") -> None:
        if self.field != other.field or self.ell != other.ell:
            raise ValueError("bivariate operands are incompatible")

    def sub_scaled(self, c: int, other: "BiPoly") -> "BiPoly":
        self._check(other)
        return BiPoly(
            self.field, self.ell,
            [a.sub_scaled(c, b) for a, b in zip(self.rows, other.rows)],
        )

    def mul_linear(self, x0: int) -> "BiPoly":
        """(x - x0) * self."""
        return BiPoly(self.field, self.ell, [r.mul_linear(x0) for r in self.rows])

    def eval_y(self, f: UniPoly) -> UniPoly:
        """self(x, f(x)) as a univariate polynomial."""
        acc = UniPoly.zero(self.field)
        for row in reversed(self.rows):
            acc = acc * f + row
        return acc

    # -- Hasse derivatives ---------------------------------------------------------

    def hasse_derivative(self, x0: int, y0: int, dx: int, dy: int) -> int:
        """One Hasse derivative by the direct binomial-sum formula (no reduction)."""
        p = self.field.p
        acc = 0
        ypow = 1
        for j in range(dy, self.ell + 1):
            cy = comb(j, dy) * ypow % p
            if cy:
                acc = (acc + cy * self.rows[j].hasse_deriv(dx, x0)) % p
            ypow = ypow * y0 % p
        return acc

    def has_multiplicity(self, x0: int, y0: int, s: int) -> bool:
        """True iff all Hasse derivatives with dx+dy < s vanish at (x0, y0)."""
        return not any(hasse_matrices(self.field, [[r.coeffs for r in self.rows]], [(x0, y0)], [s])[0])

    # -- display -----------------------------------------------------------------

    def pretty(self) -> str:
        if self.is_zero():
            return "0"
        terms = []
        for a, j, c in sorted(self.monomials(), key=lambda t: (t[0] + t[1], t[0]))[::-1]:
            part = []
            if c != 1 or (a == 0 and j == 0):
                part.append(str(c))
            if a:
                part.append("x" + (f"^{a}" if a > 1 else ""))
            if j:
                part.append("y" + (f"^{j}" if j > 1 else ""))
            terms.append("*".join(part))
        return " + ".join(terms)

    def __repr__(self) -> str:
        return f"BiPoly(GF({self.field.p}), ell={self.ell}, {self.pretty()})"
