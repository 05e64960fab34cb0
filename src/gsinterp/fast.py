"""Divide-and-conquer interpolation with recorded transforms.

The inner loop never touches full-degree basis elements: per point it works
on the basis reduced mod (x - x_i)^{s_i}, manipulates only Hasse matrices,
and records every row operation in an (ell+1) x (ell+1) transform matrix
over F[x]. A binary tree over the points keeps every intermediate basis
reduced mod the subtree modulus; transforms compose by polynomial matrix
multiplication, which is where the fast univariate arithmetic pays off.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bipoly import BiPoly
from .field import PrimeField
from .classic import TrackedBasis, eliminate_point
from .problem import InterpolationInstance
from .unipoly import NEWTON_REM_MIN, UniPoly, _newton_divmod, _series_inv


@dataclass
class ReducedBasis:
    """Basis elements reduced mod the subtree modulus, with exact bookkeeping."""

    elems: list[BiPoly]
    deltas: list[int]
    positions: list[int]


class TransformMatrix:
    """(ell+1) x (ell+1) matrix over F[x] recording basis row operations."""

    __slots__ = ("field", "ell", "entries")

    def __init__(self, field: PrimeField, ell: int, entries: list[list[UniPoly]]):
        self.field = field
        self.ell = ell
        self.entries = entries

    @classmethod
    def identity(cls, field: PrimeField, ell: int) -> "TransformMatrix":
        n = ell + 1
        return cls(
            field, ell,
            [[UniPoly.one(field) if i == j else UniPoly.zero(field) for j in range(n)]
             for i in range(n)],
        )

    @property
    def degree(self):
        return max(e.degree for row in self.entries for e in row)

    def __matmul__(self, other: "TransformMatrix") -> "TransformMatrix":
        if self.field != other.field or self.ell != other.ell:
            raise ValueError("transform dimensions do not match")
        return TransformMatrix(
            self.field, self.ell, _poly_matmul(self.field, self.entries, other.entries)
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TransformMatrix)
            and other.field == self.field
            and other.entries == self.entries
        )

    def basis_elements(self) -> list[BiPoly]:
        """Rows read as elements of F[x,y]_ell (valid when the transform acts
        on the standard basis {1, y, ..., y^ell})."""
        return [BiPoly(self.field, self.ell, list(row)) for row in self.entries]


# ---------------------------------------------------------------------------
# polynomial matrix product (classical cubic schedule; the list size is tiny,
# so entry degree is what matters and the fast scalar multiply carries it)
# ---------------------------------------------------------------------------


def _poly_matmul(
    field: PrimeField, A: list[list[UniPoly]], B: list[list[UniPoly]]
) -> list[list[UniPoly]]:
    m, k, r = len(A), len(B), len(B[0])
    out = []
    for i in range(m):
        orow = []
        for j in range(r):
            acc = UniPoly.zero(field)
            for l in range(k):
                e = A[i][l]
                f = B[l][j]
                if e.coeffs and f.coeffs:
                    acc = acc + e * f
            orow.append(acc)
        out.append(orow)
    return out


# ---------------------------------------------------------------------------
# subproduct tree of moduli with cached series inverses
# ---------------------------------------------------------------------------


class _ModNode:
    __slots__ = ("lo", "hi", "modulus", "left", "right", "_inv", "_inv_prec")

    def __init__(self, lo, hi, modulus, left=None, right=None):
        self.lo = lo
        self.hi = hi
        self.modulus = modulus
        self.left = left
        self.right = right
        self._inv = None
        self._inv_prec = 0

    def rem(self, f: UniPoly) -> UniPoly:
        m = self.modulus
        dm = len(m.coeffs) - 1
        df = len(f.coeffs) - 1
        if df < dm:
            return f
        qlen = df - dm + 1
        if dm < NEWTON_REM_MIN or qlen < 32:
            return f % m
        field = f.field
        if self._inv_prec < qlen:
            prec = max(qlen, dm + 1)
            self._inv = _series_inv(m.coeffs[::-1], prec, field)
            self._inv_prec = prec
        _, r = _newton_divmod(f.coeffs, m.coeffs, self._inv, field)
        return UniPoly(field, r, normalized=True)


def build_modulus_tree(field: PrimeField, points, mults, lo=0, hi=None) -> _ModNode:
    if hi is None:
        hi = len(points) - 1
    if lo == hi:
        base = UniPoly.x_minus(field, points[lo][0]).pow(mults[lo])
        return _ModNode(lo, hi, base)
    mid = (lo + hi) // 2
    left = build_modulus_tree(field, points, mults, lo, mid)
    right = build_modulus_tree(field, points, mults, mid + 1, hi)
    return _ModNode(lo, hi, left.modulus * right.modulus, left, right)


# ---------------------------------------------------------------------------
# the two interpolation routines
# ---------------------------------------------------------------------------


def interpolate_point(
    point: tuple[int, int],
    s: int,
    w: int,
    reduced: ReducedBasis,
    pivot_log: list | None = None,
    point_index: int = 0,
) -> tuple[TransformMatrix, list[int], list[int]]:
    """Process one point on a reduced basis; returns the recorded transform
    and updated bookkeeping. The basis elements themselves are not touched."""
    if not reduced.elems:
        raise ValueError("empty basis")
    field = reduced.elems[0].field
    ell = reduced.elems[0].ell
    if not (len(reduced.elems) == len(reduced.deltas) == len(reduced.positions) == ell + 1):
        raise ValueError("basis bookkeeping has inconsistent dimensions")
    xi, yi = point
    matrices = [e.hasse_matrix(xi, yi, s) for e in reduced.elems]
    T = TransformMatrix.identity(field, ell)
    deltas = list(reduced.deltas)
    positions = list(reduced.positions)
    eliminate_point(T.entries, matrices, deltas, positions, xi, s, pivot_log, point_index)
    return T, deltas, positions


def apply_transform(T: TransformMatrix, basis: list[BiPoly]) -> list[BiPoly]:
    """Matrix action over F[x]: result_j = sum_k T[j][k] * basis_k."""
    if not basis or basis[0].ell != T.ell:
        raise ValueError("basis does not match transform dimensions")
    field = T.field
    B = [[e.rows[r] for r in range(T.ell + 1)] for e in basis]
    C = _poly_matmul(field, T.entries, B)
    return [BiPoly(field, T.ell, row) for row in C]


def _apply_reduced(T: TransformMatrix, basis: list[BiPoly], node: _ModNode) -> list[BiPoly]:
    """apply_transform followed by reduction mod the node modulus, with both
    factors pre-reduced first; same value, smaller multiplications."""
    field = T.field
    dm = len(node.modulus.coeffs) - 1
    B = [[node.rem(e.rows[r]) for r in range(T.ell + 1)] for e in basis]
    A = [[node.rem(e) if len(e.coeffs) - 1 >= dm + 16 else e for e in row] for row in T.entries]
    C = _poly_matmul(field, A, B)
    return [BiPoly(field, T.ell, [node.rem(e) for e in row]) for row in C]


def interpolate_tree(
    points,
    mults,
    w: int,
    reduced: ReducedBasis,
    pivot_log: list | None = None,
    _node: _ModNode | None = None,
) -> tuple[TransformMatrix, list[int], list[int]]:
    """Recursively interpolate a run of points given the basis reduced mod the
    run's modulus. Returns the composed transform and final bookkeeping."""
    if not points:
        raise ValueError("empty point range")
    if len(points) != len(mults):
        raise ValueError("points and multiplicities differ in length")
    field = reduced.elems[0].field
    if _node is None:
        _node = build_modulus_tree(field, points, mults)
    lo, hi = _node.lo, _node.hi
    if lo == hi:
        return interpolate_point(
            points[0], mults[0], w, reduced, pivot_log=pivot_log, point_index=lo
        )
    left, right = _node.left, _node.right
    cut = left.hi - lo + 1
    b1 = ReducedBasis(
        [BiPoly(field, e.ell, [left.rem(r) for r in e.rows]) for e in reduced.elems],
        reduced.deltas,
        reduced.positions,
    )
    T1, deltas, positions = interpolate_tree(
        points[:cut], mults[:cut], w, b1, pivot_log=pivot_log, _node=left
    )
    b2 = ReducedBasis(_apply_reduced(T1, reduced.elems, right), deltas, positions)
    T2, deltas, positions = interpolate_tree(
        points[cut:], mults[cut:], w, b2, pivot_log=pivot_log, _node=right
    )
    return T2 @ T1, deltas, positions


def solve_basis(
    inst: InterpolationInstance, pivot_log: list | None = None
) -> tuple[TransformMatrix, TrackedBasis]:
    """Run the full divide-and-conquer pass from the standard basis; returns
    the final transform and the materialized basis it encodes."""
    field, ell, w = inst.field, inst.ell, inst.w
    tree = build_modulus_tree(field, inst.points, inst.mults)
    start = [BiPoly.y_power(field, ell, j) for j in range(ell + 1)]
    # the standard basis has x-degree 0, so it is already reduced
    reduced = ReducedBasis(start, [w * j for j in range(ell + 1)], list(range(ell + 1)))
    T, deltas, positions = interpolate_tree(
        inst.points, inst.mults, w, reduced, pivot_log=pivot_log, _node=tree
    )
    return T, TrackedBasis(T.basis_elements(), deltas, positions)


def solve(inst: InterpolationInstance) -> tuple[BiPoly, list[int]]:
    """Minimal-weighted-degree solution of the instance plus the delta vector."""
    _, basis = solve_basis(inst)
    best = min(
        range(inst.ell + 1), key=lambda j: (basis.deltas[j], -basis.positions[j])
    )
    return basis.elems[best], basis.deltas
