"""Bivariate polynomials with bounded y-degree, weighted orders, Hasse derivatives.

A BiPoly is a vector of exactly ell+1 univariate rows, row j holding the
x-polynomial multiplying y^j. The (1,w)-weighted order compares monomials
by x_deg + w*y_deg, ties going to the larger x power.

Two evaluation routes for Hasse derivatives exist on purpose:
  * hasse_matrices — the production path, on plain coefficient lists. Per
    point it builds the s Taylor vectors v_k[i] = C(i,k) x0^(i-k) once, takes
    every row's first s Taylor coefficients as dot products with them, and
    combines the rows across y with the same vectors in y0. Each element's
    values come back as one flat list, the anti-triangle dx + dy < s in
    derivative_orders order: the layout the elimination step carries and
    shifts (see classic). BiPoly.hasse_matrix reshapes it into the s x s
    matrix, and has_multiplicity scans it.
  * hasse_derivative — the direct binomial-sum formula on the full
    coefficients, its binomials taken as integers (math.comb) mod p rather
    than from the Taylor vectors; slower, used as the independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import comb
from operator import mul

from . import unipoly
from .field import PrimeField
from .unipoly import NEG_INF, UniPoly


@dataclass(frozen=True)
class Monomial:
    """x^xdeg * y^ydeg under the weight w."""

    xdeg: int
    ydeg: int
    w: int

    @property
    def wdeg(self) -> int:
        return self.xdeg + self.w * self.ydeg

    def key(self) -> tuple[int, int]:
        return (self.wdeg, self.xdeg)


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
    field: PrimeField, ell: int, elems: list[list[list[int]]], x0: int, y0: int, s: int
) -> list[list[int]]:
    """The Hasse values H[dx][dy] at (x0, y0), dx+dy < s, of each element as one
    flat list in derivative_orders(s) order (the anti-triangle of the Hasse
    matrix, row by row), an element being its ell+1 rows as trimmed coefficient
    lists. The Taylor vectors are built once for all rows; the full shifted
    polynomial is never expanded."""
    p = field.p
    vecs = taylor_vectors(x0, s, max(map(len, chain.from_iterable(elems)), default=0), p)
    # the y-side binomial weights C(j, dy) * y0^(j-dy) are the same vectors in y
    weights = taylor_vectors(y0, s, ell + 1, p)
    out = []
    for rows in elems:
        # taylor[dx][j] = coeff of x^dx in row_j(x + x0)
        taylor = [[sum(map(mul, r, v)) % p for r in rows] for v in vecs]
        out.append([
            sum(map(mul, w, t)) % p for dx, t in enumerate(taylor) for w in weights[: s - dx]
        ])
    if unipoly._COUNTER is not None:
        for rows in elems:
            for r in rows:
                k = min(s, len(r))
                unipoly._COUNTER.mults += k * len(r) - k * (k - 1) // 2
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

    def leading_monomial(self, w: int) -> Monomial:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading monomial")
        best = None
        for j, row in enumerate(self.rows):
            if row.coeffs:
                cand = Monomial(row.degree, j, w)
                if best is None or cand.key() > best.key():
                    best = cand
        return best

    def leading_position(self, w: int) -> int:
        return self.leading_monomial(w).ydeg

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

    def hasse_matrix(self, x0: int, y0: int, s: int) -> list[list[int]]:
        """s x s matrix H[dx][dy] of Hasse derivatives at (x0, y0), dx+dy < s,
        with zeros outside the anti-triangle (see hasse_matrices)."""
        rows = [r.coeffs for r in self.rows]
        flat = iter(hasse_matrices(self.field, self.ell, [rows], x0, y0, s)[0])
        return [[next(flat) if dx + dy < s else 0 for dy in range(s)] for dx in range(s)]

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
        rows = [r.coeffs for r in self.rows]
        return not any(hasse_matrices(self.field, self.ell, [rows], x0, y0, s)[0])

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
