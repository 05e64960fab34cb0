"""Divide-and-conquer interpolation with recorded transforms.

A binary tree over the points keeps every intermediate basis reduced mod the
subtree modulus. A run of at most LEAF_MAX points is eliminated point by
point on that reduced basis. The run unwraps its rows into plain coefficient
lists once: each row is an identity transform row ([1] or [] entries) joined
to the y-power rows of the reduced element. Per point it takes the Hasse
matrices of the element parts in one batched pass and runs the shared
elimination step, so the transform records every row operation; at the end
of the run the (ell+1) x (ell+1) transform over F[x] is wrapped back into
UniPoly entries. Hasse values of order < s at x_i depend only on the residue
mod (x - x_i)^s, so the reduced basis picks the same pivots and ratios as the
full one. Transforms compose by polynomial matrix multiplication, which packs
each entry into one integer so that CPython's big-integer multiply carries
the degree. Started from {1, y, ..., y^ell}, the final transform's rows are
the y-power rows of the basis elements.
"""

from __future__ import annotations

from .bipoly import BiPoly, hasse_matrices
from .field import PrimeField
from .classic import TrackedBasis, eliminate_point
from .problem import InterpolationInstance
from .unipoly import UniPoly, _newton_divmod, _pack, _series_inv, _slot_width, _unpack

LEAF_MAX = 8  # runs of at most this many points are eliminated without recursing
NEWTON_REM_MIN = 48  # from this modulus degree, _ModNode.rem divides by a cached inverse


# ---------------------------------------------------------------------------
# polynomial matrix product: ell + 1 is tiny, so the entry degree is what
# matters; each entry is packed once and CPython's big-integer multiply
# does the convolutions
# ---------------------------------------------------------------------------


def _poly_matmul(
    field: PrimeField, A: list[list[UniPoly]], B: list[list[UniPoly]]
) -> list[list[UniPoly]]:
    """A * B over F[x]. Each entry of A and of B is packed into one integer
    once, with slots wide enough for a k-term sum of products; each output
    entry is the sum of the packed products, unpacked and reduced once."""
    p, k = field.p, len(B)
    la = max(len(e.coeffs) for row in A for e in row)
    lb = max(len(e.coeffs) for row in B for e in row)
    width = _slot_width(k * max(1, min(la, lb)), p)
    PA = [[(_pack(e.coeffs, width), len(e.coeffs)) for e in row] for row in A]
    PB = [[(_pack(e.coeffs, width), len(e.coeffs)) for e in row] for row in B]
    cols = list(zip(*PB))
    out = []
    for arow in PA:
        orow = []
        for col in cols:
            acc = nterms = 0
            for (x, nx), (y, ny) in zip(arow, col):
                if x and y:
                    acc += x * y
                    if nx + ny > nterms:
                        nterms = nx + ny
            coeffs = _unpack(acc, nterms - 1, width, p) if nterms else []
            orow.append(UniPoly(field, coeffs, normalized=True))
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
# interpolation: runs of points at the bottom, the tree above them
# ---------------------------------------------------------------------------


def _interpolate_run(
    points, mults, basis: TrackedBasis, pivot_log: list | None, first_index: int
) -> tuple[list[list[UniPoly]], list[int]]:
    """Process a run of points in order on the basis reduced mod the run's
    modulus; returns the recorded transform and the updated deltas."""
    field, ell = basis.elems[0].field, basis.elems[0].ell
    n = ell + 1
    # row j is identity transform row j followed by the y-power rows of
    # element j, so each row operation updates the transform and the explicit
    # basis together
    rows = [
        [[1] if k == j else [] for k in range(n)] + [r.coeffs for r in e.rows]
        for j, e in enumerate(basis.elems)
    ]
    deltas = list(basis.deltas)
    last = len(points) - 1
    for i, ((xi, yi), s) in enumerate(zip(points, mults)):
        matrices = hasse_matrices(field, ell, [r[n:] for r in rows], xi, yi, s)
        if i == last:  # the explicit basis is not needed past the last point
            rows = [r[:n] for r in rows]
        eliminate_point(field, rows, matrices, deltas, xi, s, pivot_log, first_index + i)
    return [[UniPoly(field, c, normalized=True) for c in r] for r in rows], deltas


def _apply_reduced(
    T: list[list[UniPoly]], basis: list[BiPoly], node: _ModNode
) -> list[BiPoly]:
    """Matrix action result_j = sum_k T[j][k] * basis_k over F[x], reduced mod
    the node modulus, with both factors pre-reduced first; same value,
    smaller multiplications."""
    field, ell = basis[0].field, basis[0].ell
    dm = len(node.modulus.coeffs) - 1
    B = [[node.rem(r) for r in e.rows] for e in basis]
    A = [[node.rem(e) if len(e.coeffs) - 1 >= dm + 16 else e for e in row] for row in T]
    C = _poly_matmul(field, A, B)
    return [BiPoly(field, ell, [node.rem(e) for e in row]) for row in C]


def interpolate_tree(
    points,
    mults,
    basis: TrackedBasis,
    pivot_log: list | None = None,
    _node: _ModNode | None = None,
) -> tuple[list[list[UniPoly]], list[int]]:
    """Recursively interpolate a run of points given the basis reduced mod the
    run's modulus; a run of at most LEAF_MAX points is eliminated directly.
    Returns the composed transform and the final deltas."""
    if not points:
        raise ValueError("empty point range")
    if len(points) != len(mults):
        raise ValueError("points and multiplicities differ in length")
    if not basis.elems:
        raise ValueError("empty basis")
    if not (len(basis.elems) == len(basis.deltas) == basis.elems[0].ell + 1):
        raise ValueError("basis bookkeeping has inconsistent dimensions")
    field = basis.elems[0].field
    if _node is None:
        _node = build_modulus_tree(field, points, mults)
    lo, hi = _node.lo, _node.hi
    if hi - lo < LEAF_MAX:
        return _interpolate_run(points, mults, basis, pivot_log, lo)
    left, right = _node.left, _node.right
    cut = left.hi - lo + 1
    b1 = TrackedBasis(
        [BiPoly(field, e.ell, [left.rem(r) for r in e.rows]) for e in basis.elems],
        basis.deltas,
    )
    T1, deltas = interpolate_tree(
        points[:cut], mults[:cut], b1, pivot_log=pivot_log, _node=left
    )
    b2 = TrackedBasis(_apply_reduced(T1, basis.elems, right), deltas)
    T2, deltas = interpolate_tree(
        points[cut:], mults[cut:], b2, pivot_log=pivot_log, _node=right
    )
    return _poly_matmul(field, T2, T1), deltas


def solve_basis(inst: InterpolationInstance, pivot_log: list | None = None) -> TrackedBasis:
    """Run the full divide-and-conquer pass from the standard basis; returns
    the basis that the final transform encodes."""
    field, ell = inst.field, inst.ell
    # built here rather than by interpolate_tree, so that timing the top-level
    # interpolate_tree call measures interpolation alone
    tree = build_modulus_tree(field, inst.points, inst.mults)
    # the standard basis has x-degree 0, so it is already reduced
    T, deltas = interpolate_tree(
        inst.points, inst.mults, TrackedBasis.standard(field, ell, inst.w),
        pivot_log=pivot_log, _node=tree,
    )
    return TrackedBasis([BiPoly(field, ell, row) for row in T], deltas)


def solve(inst: InterpolationInstance) -> tuple[BiPoly, list[int]]:
    """Minimal-weighted-degree solution of the instance plus the delta vector."""
    basis = solve_basis(inst)
    return basis.minimal(), basis.deltas
