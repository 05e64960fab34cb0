"""Divide-and-conquer interpolation with recorded transforms: classic cached's
run driver at the leaves of a tree.

Classic cached eliminates the points one run of classic.LEAF_MAX after
another on the full basis. This solver eliminates runs of at most LEAF_MAX
points through the same driver, classic.eliminate_run, at the leaves of a
binary tree over the points (its splits set the run boundaries): every
intermediate basis is kept reduced mod the subtree modulus, by packed
synthetic division for short quotients and by Newton division with a
per-node cached inverse for long ones. At a leaf the driver reads the Hasse
values off the reduced basis, and its rows are an (ell+1) x (ell+1)
transform over F[x] from the identity, which records every row operation;
the reduced basis itself is never updated. Hasse values of order < s at x_i
depend only on the residue mod (x - x_i)^s, so the reduced basis gives the
same pivots and ratios as the full one. Transforms compose up the tree by
polynomial matrix multiplication, which packs each entry into one integer so
that CPython's big-integer multiply carries the degree. Started from
{1, y, ..., y^ell}, the final transform's rows are the y-power rows of the
basis elements.

One format runs from the root to the leaves, trimmed list[int] coefficient
lists: a node's modulus is one, a basis element is its ell + 1 y-power rows,
and a transform is its rows of entries. solve_basis wraps the final
transform into BiPoly elements once, at exit.

The pass has an x-side and a y-side. The x-side depends only on the field,
the x's, the multiplicities and LEAF_MAX: the modulus tree with its lazily
cached Newton inverses, and at each leaf a classic.Run with the run's shift
plans and each point's Taylor vectors in x. A Schedule holds all of it; the
y-side (the received word) only ever reads it. solve_basis builds one per
call unless it is handed one, and decoder.decode_list keeps one per code and
multiplicity, so a decoder builds the x-side once per code and multiplicity.
"""

from __future__ import annotations

from . import classic
from .bipoly import BiPoly
from .classic import Rows, Run, TrackedBasis, eliminate_run, identity
from .field import PrimeField
from .problem import InterpolationInstance
from .unipoly import (
    _divmod_raw, _mul_raw, _newton_divmod, _pack, _pow_raw, _series_inv, _slot_width, _unpack,
)

NEWTON_REM_MIN = 48  # from this modulus degree, _ModNode.reduce divides by a cached inverse


# ---------------------------------------------------------------------------
# polynomial matrix product: ell + 1 is tiny, so the entry degree is what
# matters; each entry is packed once and CPython's big-integer multiply
# does the convolutions
# ---------------------------------------------------------------------------


def _poly_matmul(field: PrimeField, A: Rows, B: Rows) -> Rows:
    """A * B over F[x], entries as trimmed coefficient lists. Each entry of A
    and of B is packed into one integer once, with slots wide enough for a
    k-term sum of products; each output entry is the sum of the packed
    products, unpacked and reduced once."""
    p, k = field.p, len(B)
    la = max(len(e) for row in A for e in row)
    lb = max(len(e) for row in B for e in row)
    width = _slot_width(k * min(la, lb), p)
    PA = [[(_pack(e, width), len(e)) for e in row] for row in A]
    PB = [[(_pack(e, width), len(e)) for e in row] for row in B]
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
            orow.append(_unpack(acc, nterms - 1, width, p) if nterms else [])
        out.append(orow)
    return out


# ---------------------------------------------------------------------------
# subproduct tree of moduli with cached series inverses
# ---------------------------------------------------------------------------


class _ModNode:
    __slots__ = ("lo", "hi", "modulus", "left", "right", "run", "_inv", "_inv_prec")

    def __init__(self, lo, hi, modulus, left=None, right=None):
        self.lo = lo
        self.hi = hi
        self.modulus = modulus
        self.left = left
        self.right = right
        self.run: Run | None = None  # set by Schedule on the tree's leaves
        self._inv = None
        self._inv_prec = 0

    def reduce(self, f: list[int], field: PrimeField) -> list[int]:
        """f mod the node's modulus: synthetic division for short quotients
        and small moduli, Newton division by the cached inverse otherwise."""
        m = self.modulus
        dm = len(m) - 1
        qlen = len(f) - dm
        if dm < NEWTON_REM_MIN or qlen < 32:
            return _divmod_raw(f, m, field)[1]
        if self._inv_prec < qlen:
            prec = max(qlen, dm + 1)
            self._inv = _series_inv(m[::-1], prec, field)
            self._inv_prec = prec
        return _newton_divmod(f, m, self._inv, field)[1]


def build_modulus_tree(field: PrimeField, points, mults, lo=0, hi=None) -> _ModNode:
    if hi is None:
        hi = len(points) - 1
    if lo == hi:
        return _ModNode(lo, hi, _pow_raw([-points[lo][0] % field.p, 1], mults[lo], field))
    mid = (lo + hi) // 2
    left = build_modulus_tree(field, points, mults, lo, mid)
    right = build_modulus_tree(field, points, mults, mid + 1, hi)
    return _ModNode(lo, hi, _mul_raw(left.modulus, right.modulus, field), left, right)


class Schedule:
    """The x-side of a solve over the given points' x's: the modulus tree, and
    a classic.Run on each of its leaves, the highest nodes of at most
    classic.LEAF_MAX points. The nodes cache their Newton inverses as a solve
    first needs them, the runs their plans and Taylor vectors from their
    second use on (classic.Run.xside), and any later solve on the same x's
    and multiplicities reuses them; only instances it fits may use it."""

    __slots__ = ("p", "xs", "mults", "leaf_max", "tree")

    def __init__(self, field: PrimeField, points, mults):
        self.p = field.p
        self.xs = [x for x, _ in points]
        self.mults = list(mults)
        self.leaf_max = classic.LEAF_MAX
        self.tree = build_modulus_tree(field, points, mults)
        todo = [self.tree]
        while todo:
            node = todo.pop()
            if node.hi - node.lo < self.leaf_max:
                run = slice(node.lo, node.hi + 1)
                node.run = Run(self.xs[run], self.mults[run], self.p)
                node.left = node.right = None  # the run's modulus is all the solve reads of it
            else:
                todo += (node.left, node.right)

    def fits(self, inst: InterpolationInstance) -> bool:
        """True iff the schedule was built for the instance's field, x's and
        multiplicities under today's classic.LEAF_MAX."""
        return (
            inst.field.p == self.p and inst.mults == self.mults
            and classic.LEAF_MAX == self.leaf_max and [x for x, _ in inst.points] == self.xs
        )


# ---------------------------------------------------------------------------
# interpolation: runs of points at the bottom, the tree above them
# ---------------------------------------------------------------------------


def interpolate_tree(
    points, mults, field: PrimeField, elems: Rows, deltas: list[int],
    pivot_log: list | None = None, _node: _ModNode | None = None,
) -> tuple[Rows, list[int]]:
    """Recursively interpolate a run of points given the basis reduced mod the
    run's modulus, each element as its y-power rows of coefficient lists and
    deltas[j] the weighted degree of the unreduced element j. _node is the
    run's node of a Schedule over the points, built here when None; a leaf,
    a node carrying a classic.Run, is eliminated by classic.eliminate_run.
    Returns the composed transform and the final deltas."""
    if not points:
        raise ValueError("empty point range")
    if len(points) != len(mults):
        raise ValueError("points and multiplicities differ in length")
    if not elems:
        raise ValueError("empty basis")
    if len(elems) != len(deltas) or any(len(e) != len(deltas) for e in elems):
        raise ValueError("basis bookkeeping has inconsistent dimensions")
    if _node is None:
        _node = Schedule(field, points, mults).tree
    if _node.run is not None:
        deltas = list(deltas)
        return eliminate_run(field, _node.run, [y for _, y in points], elems,
                             identity(len(elems)), deltas, pivot_log, _node.lo), deltas
    left, right = _node.left, _node.right
    cut = left.hi - _node.lo + 1
    b1 = [[left.reduce(r, field) for r in e] for e in elems]
    T1, deltas = interpolate_tree(points[:cut], mults[:cut], field, b1, deltas, pivot_log, left)
    # T1 times the basis pre-reduced mod the right modulus (T1 is seldom longer)
    B = [[right.reduce(r, field) for r in e] for e in elems]
    b2 = [[right.reduce(e, field) for e in row] for row in _poly_matmul(field, T1, B)]
    del B  # peak memory is reached inside the recursion below
    T2, deltas = interpolate_tree(points[cut:], mults[cut:], field, b2, deltas, pivot_log, right)
    return _poly_matmul(field, T2, T1), deltas


def solve_basis(
    inst: InterpolationInstance, pivot_log: list | None = None, schedule: Schedule | None = None,
) -> TrackedBasis:
    """Run the full divide-and-conquer pass from the standard basis on the
    schedule's x-side, built here when None; returns the basis that the
    final transform encodes. A schedule that does not fit the instance is
    refused."""
    field, ell = inst.field, inst.ell
    # built here rather than by interpolate_tree, so that timing the top-level
    # interpolate_tree call measures interpolation alone
    if schedule is None:
        schedule = Schedule(field, inst.points, inst.mults)
    elif not schedule.fits(inst):
        raise ValueError("schedule built for other x's, multiplicities, field or LEAF_MAX")
    # the standard basis {1, y, ..., y^ell} has x-degree 0, so it is already
    # reduced, and its rows are those of the identity
    T, deltas = interpolate_tree(
        inst.points, inst.mults, field, identity(ell + 1), [inst.w * j for j in range(ell + 1)],
        pivot_log=pivot_log, _node=schedule.tree,
    )
    return TrackedBasis.from_rows(field, T, deltas)


def solve(
    inst: InterpolationInstance, schedule: Schedule | None = None,
) -> tuple[BiPoly, list[int]]:
    """Minimal-weighted-degree solution of the instance plus the delta vector,
    on the given schedule (see solve_basis)."""
    basis = solve_basis(inst, schedule=schedule)
    return basis.minimal(), basis.deltas
