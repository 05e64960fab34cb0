"""Divide-and-conquer interpolation with recorded transforms: classic cached's
run driver at the leaves of a tree.

Classic cached eliminates the points one run of classic.LEAF_MAX after
another on the full basis. This solver eliminates runs of at most LEAF_MAX
points through the same driver, classic.eliminate_run, at the leaves of a
binary tree over the points (its splits set the run boundaries): every
intermediate basis is kept reduced mod the subtree modulus, which each node
packs once (unipoly.PackedModulus): synthetic division for short quotients,
Newton division by the node's cached packed inverse for long ones. At a
leaf eliminate_run reads the Hasse values off the reduced basis, and its rows
are an (ell+1) x (ell+1) transform over F[x] from the identity, which
records every row operation; the reduced basis itself is never updated.
Hasse values of order < s at x_i depend only on the residue mod
(x - x_i)^s, so the reduced basis gives the same pivots and ratios as the
full one. Transforms compose by polynomial matrix multiplication, which
packs each nonempty entry into one integer so that CPython's big-integer
multiply carries the degree, and multiplies only pairs of nonempty entries.
A left child's transform is composed where the tree needs it, to carry the
basis over to the right child, and that product reduces each entry mod the
right modulus while it is still packed; the transforms down the right spine
are returned as a list, and compose forms their product in the order the
tree used to form it node by node. solve_basis composes every row of it;
solve composes only the row of least final delta, so each product on the
spine is one row by ell + 1, not ell + 1 by ell + 1.

A pass starts from {1, y, ..., y^ell}, whose rows are the identity's, or
from a start basis of a module that the instance's points cut down, given as
its elements' rows and deltas (decoder.decode_list passes the re-encoded
basis). A start basis is reduced mod the root modulus on entry, and its
rows are the spine's first transform, so compose multiplies them back once,
at the end. The final product's rows are the y-power rows of the basis
elements.

One format runs from the root to the leaves, trimmed list[int] coefficient
lists: a node's modulus is one, a basis element is its ell + 1 y-power rows,
and a transform is its rows of entries. solve_basis and solve wrap the
composed rows into BiPoly elements once, at exit.

The pass has an x-side and a y-side. The x-side depends only on the field,
the x's and the multiplicities: the modulus tree with its lazily packed
moduli and Newton inverses, built down to its runs and no further, and at
each leaf a classic.Run with the run's first point index, shift plans and
each point's Taylor vectors in x. A Schedule holds all of it and checks
the points; the y-side (the received word) only ever reads it.
solve_basis builds one per call unless it is handed one, and
decoder.decode_list keeps one per code and multiplicity, over the points it
does not re-encode, so a decoder builds the x-side once per code and
multiplicity.
interpolate_tree walks a Schedule's node on the node's y's. Pivot rounds are
logged by unipoly.count_scalar_mults(pivots=True), numbered by each run's
first point index.
"""

from __future__ import annotations

from . import classic
from .bipoly import BiPoly
from .classic import Rows, Run, TrackedBasis, _pick_pivot, eliminate_run, identity
from .field import PrimeField
from .problem import InterpolationInstance
from .unipoly import PackedModulus, UniPoly, _mul_kron, _pack, _slot_width, _unpack

NEWTON_REM_MIN = 48  # from this modulus degree, _ModNode.reduce divides by a cached inverse


# ---------------------------------------------------------------------------
# polynomial matrix product: ell + 1 is tiny, so the entry degree is what
# matters; each entry is packed once and CPython's big-integer multiply
# does the convolutions
# ---------------------------------------------------------------------------


def _poly_matmul(field: PrimeField, A: Rows, B: Rows, node: _ModNode | None = None) -> Rows:
    """A * B over F[x], entries as trimmed coefficient lists, with every
    entry reduced mod the node's modulus when a node is given. Each
    nonempty entry of A and of B is packed into one integer once, with
    slots wide enough for a k-term sum of products plus the min(qlen, dm)
    products a remainder by the node adds (qlen <= la + lb - 1 - dm, so
    none where no entry is as long as the modulus), and only the pairs of
    nonempty entries are multiplied: row i of A adds A[i][l] * B[l][j] into
    output entry (i, j) for each nonempty B[l][j]. Each output entry is the
    sum of its packed products, unpacked and reduced once, or reduced by
    the node while it is still packed (_ModNode.reduce_packed). Widening by
    dm for every node put 201 of interp_small's 252 products T1 * B in
    slots past 8 bytes, against 118 by min(qlen, dm), and its solves took
    1.014x the time without the fused remainder, against 0.994x."""
    p, k = field.p, len(B)
    la = max(len(e) for row in A for e in row)
    lb = max(len(e) for row in B for e in row)
    dm = len(node.modulus) - 1 if node is not None else 0
    width = _slot_width(k * min(la, lb) + max(0, min(dm, la + lb - 1 - dm)), p)
    PB = [[(j, _pack(e, width), len(e)) for j, e in enumerate(row) if e] for row in B]
    r = len(B[0])
    out = []
    for arow in A:
        acc, nterms = [0] * r, [0] * r
        for e, brow in zip(arow, PB):
            if e and brow:
                x, nx = _pack(e, width), len(e)
                for j, y, ny in brow:
                    acc[j] += x * y
                    if nx + ny > nterms[j]:
                        nterms[j] = nx + ny
        if node is None:
            out.append([_unpack(a, t - 1, width, p) if t else [] for a, t in zip(acc, nterms)])
        else:
            out.append([node.reduce_packed(a, t - 1, width, field) if t else []
                        for a, t in zip(acc, nterms)])
    return out


# ---------------------------------------------------------------------------
# subproduct tree of moduli, each packed once with its series inverse
# ---------------------------------------------------------------------------


class _ModNode:
    __slots__ = ("lo", "hi", "modulus", "left", "right", "run", "_mod")

    def __init__(self, lo, hi, modulus, left=None, right=None, run=None):
        self.lo = lo
        self.hi = hi
        self.modulus = modulus
        self.left = left
        self.right = right
        self.run: Run | None = run  # set on the tree's leaves
        self._mod: PackedModulus | None = None  # packed at the first remainder

    def reduce(self, f: list[int], field: PrimeField) -> list[int]:
        """f mod the node's modulus, packed once per node: synthetic division
        for short quotients and small moduli, Newton division by the node's
        cached series inverse otherwise. Timed by the CPU time of each
        benchmark workload's counted pass, in alternating rounds: moving
        NEWTON_REM_MIN to 32, 64 or 96, or the quotient rule to 16 or 48,
        stayed within the rounds' spread on interp_small, interp_large and
        decode, and synthetic division throughout took 1.04x on
        interp_large."""
        qlen = len(f) - len(self.modulus) + 1
        if qlen <= 0:
            return f
        mod = self._packed(field)
        return (mod.newton(f) if self._by_newton(qlen) else mod.divmod(f))[1]

    def reduce_packed(self, acc: int, nterms: int, width: int, field: PrimeField) -> list[int]:
        """The packed dividend acc of nterms slots of the width, which need
        not be reduced, mod the node's modulus by reduce's rule, unpacked
        once: the width must hold one slot plus min(qlen, dm) products
        (p - 1)^2."""
        qlen = nterms - len(self.modulus) + 1
        if qlen <= 0:
            return _unpack(acc, nterms, width, field.p)
        mod = self._packed(field)
        if self._by_newton(qlen):
            return mod.newton_packed(acc, nterms, width)[1]
        return mod.synthetic(acc, nterms, width)[1]

    def _by_newton(self, qlen: int) -> bool:
        return len(self.modulus) - 1 >= NEWTON_REM_MIN and qlen >= 32

    def _packed(self, field: PrimeField) -> PackedModulus:
        mod = self._mod
        if mod is None:
            mod = self._mod = PackedModulus(self.modulus, field)
        return mod


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
    to its runs, each carrying a classic.Run. The nodes pack their moduli
    and Newton inverses as a solve first needs them, the runs their plans
    and Taylor vectors from their second use on (classic.Run.xside), and
    any later solve on the same x's and multiplicities reuses them; only
    instances it fits may use it. Refuses an empty point list and a multiplicity list of
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
) -> tuple[list[Rows], list[int]]:
    """Recursively interpolate the points of a Schedule's node, whose y's are
    ys, given the basis reduced mod the node's modulus, each element as its
    y-power rows of coefficient lists and deltas[j] the weighted degree of
    the unreduced element j. A leaf, a node carrying a classic.Run, is
    eliminated by classic.eliminate_run. Returns the node's right spine, the
    transforms in the order they apply (the left child's, composed, then the
    right child's spine; a leaf's one transform), whose product compose
    forms, and the final deltas."""
    if not elems:
        raise ValueError("empty basis")
    if len(elems) != len(deltas) or any(len(e) != len(deltas) for e in elems):
        raise ValueError("basis bookkeeping has inconsistent dimensions")
    if node.run is not None:
        deltas = list(deltas)
        return [eliminate_run(field, node.run, ys, elems, identity(len(elems)), deltas)], deltas
    left, right = node.left, node.right
    cut = left.hi - node.lo + 1
    b1 = [[left.reduce(r, field) for r in e] for e in elems]
    spine, deltas = interpolate_tree(ys[:cut], left, field, b1, deltas)
    T1 = compose(field, spine)
    # T1 times the basis pre-reduced mod the right modulus (T1 is seldom
    # longer), each product reduced while it is still packed
    B = [[right.reduce(r, field) for r in e] for e in elems]
    b2 = _poly_matmul(field, T1, B, right)
    del B  # peak memory is reached inside the recursion below
    spine, deltas = interpolate_tree(ys[cut:], right, field, b2, deltas)
    return [T1] + spine, deltas


def compose(field: PrimeField, spine: list[Rows], rows: list[int] | None = None) -> Rows:
    """The product spine[-1] * ... * spine[0] of a spine as interpolate_tree
    returns it, formed from the left: the last transform times the one before
    it, and so on, the products the tree formed when it composed at every
    node. With rows, only those rows of the product: the same rows of
    spine[-1] go through the same products. The spine is emptied as it is
    used, so each transform is freed once multiplied in."""
    acc = spine.pop()
    if rows is not None:
        acc = [acc[t] for t in rows]
    while spine:
        acc = _poly_matmul(field, acc, spine.pop())
    return acc


Start = tuple[Rows, list[int]]  # a start basis: its elements' y-power rows, and their deltas


def _solve_spine(
    inst: InterpolationInstance, schedule: Schedule | None, start: Start | None,
) -> tuple[list[Rows], list[int]]:
    """The spine and final deltas of a pass over the instance's points from
    the start basis, the standard one when None, on the schedule's x-side,
    built here when None; the start basis's elements are the spine's first
    transform, so compose multiplies them back once, last."""
    field, ell = inst.field, inst.ell
    if schedule is None:
        schedule = Schedule(field, inst.points, inst.mults)
    elif not schedule.fits(inst):
        raise ValueError("schedule built for other x's, multiplicities or field")
    ys = [y for _, y in inst.points]
    if start is None:
        # the standard basis {1, y, ..., y^ell} has x-degree 0, so it is
        # already reduced, and its rows are those of the identity
        return interpolate_tree(ys, schedule.tree, field, identity(ell + 1),
                                [inst.w * j for j in range(ell + 1)])
    G, deltas = start
    if len(G) != ell + 1 or len(deltas) != ell + 1 or any(len(e) != ell + 1 for e in G):
        raise ValueError(f"start basis must be {ell + 1} elements of {ell + 1} rows, one delta each")
    root = schedule.tree
    spine, deltas = interpolate_tree(ys, root, field, [[root.reduce(r, field) for r in e] for e in G],
                                     deltas)
    return [G] + spine, deltas


def solve_basis(
    inst: InterpolationInstance, schedule: Schedule | None = None, start: Start | None = None,
) -> TrackedBasis:
    """Run the full divide-and-conquer pass on the schedule's x-side, built
    here when None, and return the basis that the composed spine encodes. A
    schedule that does not fit the instance is refused. The pass starts from
    {1, y, ..., y^ell} unless given a start basis (elements' y-power rows
    plus deltas, element j of weighted degree deltas[j] and leading
    y-position j) of a module that the instance's constraints cut down: it
    is reduced mod the root modulus on entry and multiplied back once at the
    end, and one of another shape is refused with ValueError. Under
    count_scalar_mults(pivots=True) every inner round that found a pivot is
    logged."""
    spine, deltas = _solve_spine(inst, schedule, start)
    return TrackedBasis.from_rows(inst.field, compose(inst.field, spine), deltas)


def solve(
    inst: InterpolationInstance, schedule: Schedule | None = None, start: Start | None = None,
) -> tuple[BiPoly, list[int]]:
    """Minimal-weighted-degree solution of the instance plus the delta vector,
    on the given schedule and from the given start basis (see solve_basis):
    the spine composes only the row of least delta, ties to the larger
    position, which is solve_basis' minimal element."""
    field = inst.field
    spine, deltas = _solve_spine(inst, schedule, start)
    (row,) = compose(field, spine, [_pick_pivot([1] * len(deltas), deltas)])
    return BiPoly(field, inst.ell, [UniPoly(field, c, normalized=True) for c in row]), deltas
