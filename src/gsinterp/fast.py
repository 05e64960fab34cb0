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
the x's and the multiplicities: the modulus tree with its lazily cached
Newton inverses, built down to its runs and no further, and at each leaf a
classic.Run with the run's first point index, shift plans and each point's
Taylor vectors in x. A Schedule holds all of it and checks the points; the
y-side (the received word) only ever reads it. solve_basis builds one per
call unless it is handed one, and decoder.decode_list keeps one per code and
multiplicity, so a decoder builds the x-side once per code and multiplicity.
interpolate_tree walks a Schedule's node on the node's y's. Pivot rounds are
logged by unipoly.count_scalar_mults(pivots=True), numbered by each run's
first point index.
"""

from __future__ import annotations

from . import classic
from .bipoly import BiPoly
from .classic import Rows, Run, TrackedBasis, eliminate_run, identity
from .field import PrimeField
from .problem import InterpolationInstance
from .unipoly import (
    _divmod_raw, _mul_kron, _newton_divmod, _pack, _series_inv, _slot_width, _unpack,
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

    def __init__(self, lo, hi, modulus, left=None, right=None, run=None):
        self.lo = lo
        self.hi = hi
        self.modulus = modulus
        self.left = left
        self.right = right
        self.run: Run | None = run  # set on the tree's leaves
        self._inv = None
        self._inv_prec = 0

    def reduce(self, f: list[int], field: PrimeField) -> list[int]:
        """f mod the node's modulus: synthetic division for short quotients
        and small moduli (Newton division there too took 1.05x on
        interp_small), Newton division by the cached inverse otherwise."""
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


def _subproduct(field: PrimeField, xs, mults, lo, hi) -> list[int]:
    """The product of (x - xs[i])^mults[i] over lo <= i <= hi, split at the
    midpoint as build_modulus_tree splits; a point's own factor is built by
    s multiplications by x - xs[i], uncounted like taylor_vectors."""
    if lo == hi:
        x0, p, out = xs[lo], field.p, [1]
        for _ in range(mults[lo]):
            out = [(u - x0 * v) % p for u, v in zip([0] + out, out + [0])]
        return out
    mid = (lo + hi) // 2
    return _mul_kron(_subproduct(field, xs, mults, lo, mid),
                     _subproduct(field, xs, mults, mid + 1, hi), field.p)


def build_modulus_tree(field: PrimeField, xs, mults, lo, hi) -> _ModNode:
    """The node of the modulus tree over points lo..hi and the nodes below it
    down to the runs, the highest nodes of at most classic.LEAF_MAX points,
    which carry a classic.Run and no children: a solve reads only a run's
    modulus, formed from the same products in the same split order."""
    if hi - lo < classic.LEAF_MAX:
        run = Run(xs[lo : hi + 1], mults[lo : hi + 1], field.p, lo)
        return _ModNode(lo, hi, _subproduct(field, xs, mults, lo, hi), run=run)
    mid = (lo + hi) // 2
    left = build_modulus_tree(field, xs, mults, lo, mid)
    right = build_modulus_tree(field, xs, mults, mid + 1, hi)
    return _ModNode(lo, hi, _mul_kron(left.modulus, right.modulus, field.p), left, right)


class Schedule:
    """The x-side of a solve over the given points' x's: the modulus tree down
    to its runs, each carrying a classic.Run. The nodes cache their Newton
    inverses as a solve first needs them, the runs their plans and Taylor
    vectors from their second use on (classic.Run.xside), and any later
    solve on the same x's and multiplicities reuses them; only instances it
    fits may use it. Refuses an empty point list and a multiplicity list of
    another length."""

    __slots__ = ("p", "xs", "mults", "tree")

    def __init__(self, field: PrimeField, points, mults):
        if not points:
            raise ValueError("empty point range")
        if len(points) != len(mults):
            raise ValueError("points and multiplicities differ in length")
        self.p = field.p
        self.xs = [x for x, _ in points]
        self.mults = list(mults)
        self.tree = build_modulus_tree(field, self.xs, self.mults, 0, len(points) - 1)

    def fits(self, inst: InterpolationInstance) -> bool:
        """True iff the schedule was built for the instance's field, x's and
        multiplicities."""
        return (
            inst.field.p == self.p and inst.mults == self.mults
            and [x for x, _ in inst.points] == self.xs
        )


# ---------------------------------------------------------------------------
# interpolation: runs of points at the bottom, the tree above them
# ---------------------------------------------------------------------------


def interpolate_tree(
    ys: list[int], node: _ModNode, field: PrimeField, elems: Rows, deltas: list[int],
) -> tuple[Rows, list[int]]:
    """Recursively interpolate the points of a Schedule's node, whose y's are
    ys, given the basis reduced mod the node's modulus, each element as its
    y-power rows of coefficient lists and deltas[j] the weighted degree of
    the unreduced element j. A leaf, a node carrying a classic.Run, is
    eliminated by classic.eliminate_run. Returns the composed transform and
    the final deltas."""
    if not elems:
        raise ValueError("empty basis")
    if len(elems) != len(deltas) or any(len(e) != len(deltas) for e in elems):
        raise ValueError("basis bookkeeping has inconsistent dimensions")
    if node.run is not None:
        deltas = list(deltas)
        return eliminate_run(field, node.run, ys, elems, identity(len(elems)), deltas), deltas
    left, right = node.left, node.right
    cut = left.hi - node.lo + 1
    b1 = [[left.reduce(r, field) for r in e] for e in elems]
    T1, deltas = interpolate_tree(ys[:cut], left, field, b1, deltas)
    # T1 times the basis pre-reduced mod the right modulus (T1 is seldom longer)
    B = [[right.reduce(r, field) for r in e] for e in elems]
    b2 = [[right.reduce(e, field) for e in row] for row in _poly_matmul(field, T1, B)]
    del B  # peak memory is reached inside the recursion below
    T2, deltas = interpolate_tree(ys[cut:], right, field, b2, deltas)
    return _poly_matmul(field, T2, T1), deltas


def solve_basis(inst: InterpolationInstance, schedule: Schedule | None = None) -> TrackedBasis:
    """Run the full divide-and-conquer pass from the standard basis on the
    schedule's x-side, built here when None; returns the basis that the
    final transform encodes. A schedule that does not fit the instance is
    refused. Under count_scalar_mults(pivots=True) every inner round that
    found a pivot is logged."""
    field, ell = inst.field, inst.ell
    if schedule is None:
        schedule = Schedule(field, inst.points, inst.mults)
    elif not schedule.fits(inst):
        raise ValueError("schedule built for other x's, multiplicities or field")
    # the standard basis {1, y, ..., y^ell} has x-degree 0, so it is already
    # reduced, and its rows are those of the identity
    T, deltas = interpolate_tree(
        [y for _, y in inst.points], schedule.tree, field, identity(ell + 1),
        [inst.w * j for j in range(ell + 1)],
    )
    return TrackedBasis.from_rows(field, T, deltas)


def solve(
    inst: InterpolationInstance, schedule: Schedule | None = None,
) -> tuple[BiPoly, list[int]]:
    """Minimal-weighted-degree solution of the instance plus the delta vector,
    on the given schedule (see solve_basis)."""
    basis = solve_basis(inst, schedule=schedule)
    return basis.minimal(), basis.deltas
