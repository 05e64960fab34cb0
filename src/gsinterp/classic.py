"""Classic iterative interpolation over the basis {1, y, ..., y^ell}.

Runs over points in order; for each derivative order (dx, dy) it picks the
eligible basis element with the smallest weighted degree as pivot (ties go to
the larger index), cancels the derivative from everyone else, and multiplies
the pivot by (x - x_i). Element j starts as y^j, and this pivot rule keeps
its leading y-position at j throughout, so the index is the position.

Two modes produce bit-identical output:
  * "naive"  — every Hasse value is recomputed from the full-degree element
               via the direct formula, and the row operations run on BiPoly.
  * "cached" — the basis, as rows of plain coefficient lists, goes through
               eliminate_run one run of LEAF_MAX points after another. This
               is the fast solver's leaf without the tree: fast runs the
               same driver at its leaves, runs of at most LEAF_MAX points,
               on the basis reduced mod the run's modulus and with
               transform rows riding along.

eliminate_run is the one run driver of both solvers. A Run holds the run's
x-side, which no y depends on: its first point's index, and each point's
shift_plan and Taylor vectors in x. Classic cached builds one per run; a
fast.Schedule keeps its leaves' Runs, so a decoder reuses them for every
word it decodes, and a Run keeps what it builds from its second use on.
The driver packs each row with its element's Hasse values at every run
point into one integer of lanes, runs each point's rounds on those integers
and unpacks once; its docstring gives the row layout.

LEAF_MAX = 16: against it, fast.solve took 1.24x the time with runs of 8 on
many small instances (s <= 3), 1.03x at n = 1024 (s = 2), 1.08x decoding and
1.17x at n = 128, s = 4, ell = 8; with runs of 32, 0.98x, 0.99x, 1.13x, 0.88x.
Classic cached took 1.00-1.02x with runs of 8 and 1.00-1.16x with runs of 32
(small instances, n = 512 at s = 2, n = 128 at s = 4, ell = 8).
"""

from __future__ import annotations

from . import unipoly
from .bipoly import BiPoly, derivative_orders, hasse_matrices, taylor_vectors
from .field import PrimeField
from .problem import InterpolationInstance
from .unipoly import UniPoly, _pack, _slot_width, _trim, _unpack

Rows = list[list[list[int]]]  # a transform, or a basis by elements: rows of coefficient lists

LEAF_MAX = 16  # points per run of eliminate_run, in both solvers


def identity(n: int) -> Rows:
    """The n x n identity transform; also the rows of {1, y, ..., y^(n-1)}."""
    return [[[1] if k == j else [] for k in range(n)] for j in range(n)]


class TrackedBasis:
    """Basis elements with their weighted degrees: deltas[j] is the (1, w)-weighted
    degree of elems[j], whose leading y-position is j."""

    __slots__ = ("elems", "deltas")

    def __init__(self, elems: list[BiPoly], deltas: list[int]):
        self.elems = elems
        self.deltas = deltas

    @classmethod
    def from_rows(cls, field: PrimeField, rows: Rows, deltas: list[int]) -> "TrackedBasis":
        """The elements whose y-power rows are rows, as trimmed coefficient lists."""
        ell = len(rows[0]) - 1
        return cls(
            [BiPoly(field, ell, [UniPoly(field, c, normalized=True) for c in r]) for r in rows],
            deltas,
        )

    def minimal(self) -> BiPoly:
        """The element of least weighted degree, ties to the larger y-position."""
        return self.elems[_pick_pivot([1] * len(self.deltas), self.deltas)]


def multiplicity_holds(inst: InterpolationInstance, elems: list[BiPoly]) -> bool:
    """True when every element vanishes to order s_i at every point: all its
    Hasse values of order < s_i are 0, by one hasse_matrices call."""
    rows = [[r.coeffs for r in e.rows] for e in elems]
    return not any(map(any, hasse_matrices(inst.field, rows, inst.points, inst.mults)))


CONDITIONS = ("multiplicity", "positions", "colength")  # certify's, in its order


def certify(inst: InterpolationInstance, basis: TrackedBasis) -> list[str]:
    """The CONDITIONS the basis fails, [] when it passes all three:
      multiplicity - every element vanishes to order s_i at every point;
      positions    - element j's leading y-position under the (1, w) order,
                     ties to the larger x power, is j;
      colength     - sum_j (delta_j - w*j) equals the colength of the
                     interpolation module, C_eff = sum_i sum_{b <= min(s_i - 1,
                     ell)} (s_i - b), its constraints with dy <= ell.
    The delta_j are the elements' weighted degrees, never basis.deltas, and
    C_eff comes from the instance alone. Together the three prove that the
    elements generate the module and that the least of them is minimal: the
    matrix of their y-power rows, column j shifted by w*j, is in weak Popov
    form, so its determinant has degree sum_j (delta_j - w*j), the colength of
    the module the rows span; that span lies in the interpolation module,
    whose colength is C_eff, so the two are equal, and a weak Popov basis
    holds an element of least weighted degree (Mulders and Storjohann, JSC
    2003; Beelen and Brander, JSC 2010)."""
    w = inst.w
    deltas = [e.weighted_degree(w) for e in basis.elems]
    positions = [
        next((j for j, r in enumerate(e.rows) if r.coeffs and r.degree + w * j == d), None)
        for e, d in zip(basis.elems, deltas)
    ]
    c_eff = sum(s - b for s in inst.mults for b in range(min(s - 1, inst.ell) + 1))
    passed = (
        multiplicity_holds(inst, basis.elems),
        positions == list(range(inst.ell + 1)),
        sum(d - w * j for j, d in enumerate(deltas)) == c_eff,
    )
    return [c for c, ok in zip(CONDITIONS, passed) if not ok]


def _pick_pivot(values: list[int], deltas: list[int]) -> int | None:
    """Index j minimizing (delta, -j) among nonzero values; None if all zero."""
    live = [j for j, v in enumerate(values) if v]
    return min(live, key=lambda j: (deltas[j], -j)) if live else None


Plan = tuple[list[int], list[int]]  # shift_plan's (src, d)


def shift_plan(xs: list[int], mults: list[int], xi: int, p: int) -> Plan:
    """Gather plan of the pivot shift by (x - xi) over the flat values at the
    points xs: src holds the index of entry (dx-1, dy) of the same point, or
    -1 (an appended 0) for dx = 0, and d holds x_k - xi."""
    src, d = [], []
    for xk, s in zip(xs, mults):
        above = -1  # where row dx - 1 of this point starts in the vector
        for dx in range(s):
            row = len(src)
            src += range(above, above + s - dx) if dx else [-1] * s
            above = row
        d += [(xk - xi) % p] * (len(src) - len(d))
    return src, d


class Run:
    """The x-side of a run of points, which no y depends on: lo, the index of
    its first point in the instance, each point's shift_plan over the points
    from it on, and its Taylor vectors in x (taylor_vectors, the x-side of
    hasse_matrices). A longer vector gives the same values, since
    hasse_matrices' dot products stop at the coefficients' length, so one Run
    serves every received word on the same points (see fast.Schedule)."""

    __slots__ = ("xs", "mults", "p", "lo", "_plans", "_xvecs", "_len", "_used")

    def __init__(self, xs: list[int], mults: list[int], p: int, lo: int):
        self.xs, self.mults, self.p, self.lo = xs, mults, p, lo
        self._plans: list[Plan] | None = None
        self._xvecs: list[list[list[int]]] = []
        self._len = -1  # the kept vectors' length; -1 while none are kept
        self._used = False

    def xside(self, n: int) -> tuple[list[Plan], list[list[list[int]]]]:
        """Each point's shift plan and its Taylor vectors v_dx in its x, dx < s,
        at least n long. The first use keeps nothing: a fresh solve uses each
        run once, and keeping every run's x-side until the solve ends raised
        its peak memory from 2.8 to 6.4 MB at n = 1024, s = 2. From the second
        use on both are kept, the vectors rebuilt only for a longer n."""
        xs, mults, p = self.xs, self.mults, self.p
        plans, xvecs = self._plans, self._xvecs
        if plans is None:
            plans = [shift_plan(xs[i:], mults[i:], x, p) for i, x in enumerate(xs)]
        if self._len < n:
            xvecs = [taylor_vectors(x, s, n, p) for x, s in zip(xs, mults)]
        if self._used:
            self._plans, self._xvecs, self._len = plans, xvecs, max(n, self._len)
        self._used = True
        return plans, xvecs


def _reduce(row: int, width: int, p: int) -> list[int]:
    """Every lane of a packed row mod p, trimmed."""
    return _unpack(row, -(-row.bit_length() // (8 * width)), width, p)


def eliminate_run(
    field: PrimeField, run: Run, ys: list[int], elems: Rows, rows: Rows, deltas: list[int],
) -> Rows:
    """Eliminate the points (run.xs[i], ys[i]) of a run, in order, from rows of
    trimmed coefficient lists; row j carries the Hasse values of elems[j] (its
    y-power rows) at every run point. Returns the rows; deltas is updated in
    place, point i of the run is point run.lo + i of a pivot log, and no
    argument's entry is mutated.

    The values come from one bipoly.hasse_matrices call on the Run's Taylor
    vectors. Row j is then packed once into one integer of W-byte lanes,
    W = _slot_width(32, p), at least 8: first the element's flat Hasse values
    (for each point still to do, its s(s+1)/2 values in derivative_orders
    order, the current point's first), then its k entries interleaved by
    x-degree, the x^d coefficient of entry l in lane V + d*k + l after V
    value lanes. Every lane is below 2^(8W) and congruent to its value mod p,
    and lanes are not reduced between row operations. The values are linear
    in the element, so row_j -= c*row_t is one big-integer multiply-add,
    row_j += (p - c)*row_t. With row_t reduced it adds at most (p - 1)^2 to a
    lane, so a row is reduced (unpacked mod p, repacked) before its addition
    tmax + 1, tmax = (2^(8W) - p) // (p - 1)^2: 32 at the 30-bit bench prime,
    256 at 4294967291 and 2^64 - 59 (W = 9 and 17), 64 at 2^61 - 1, and never
    below 31, as 2^(8W) > 32 (p - 1)^2: W has room for the bench prime's 32
    additions, so no prime reduces rows much more often. The pivot is always
    reduced before it multiplies, or a lane times (p - c) could carry into the
    next one without any sign. The pivot's (x - x_i) turns its entry lanes T into
    (T << 8W*k) + (-x_i mod p)*T. For its values write
    x - x_i = (x - x_k) + (x_k - x_i): the coefficient of
    (x - x_k)^dx (y - y_k)^dy in (x - x_i)*b is H[dx-1][dy] + (x_k - x_i)*H[dx][dy]
    of b at (x_k, y_k), with H[-1][dy] = 0. The point's shift_plan turns that
    rule into one gather over the points still to do. A finished point's
    lanes are shifted out of every row, and the rows are unpacked once."""
    p, k = field.p, len(rows[0])
    counter = unipoly._COUNTER
    width = _slot_width(32, p)
    bits = 8 * width
    mask = (1 << bits) - 1
    tmax = ((1 << bits) - p) // (p - 1) ** 2  # additions a reduced row can take
    plans, xvecs = run.xside(max((len(e) for elem in elems for e in elem), default=0))
    vecs = hasse_matrices(field, elems, list(zip(run.xs, ys)), run.mults, xvecs)
    packed = []
    for vec, row in zip(vecs, rows):
        nv = len(vec)
        lanes = vec + [0] * (k * max(map(len, row)))
        for l, e in enumerate(row):
            lanes[nv + l : nv + l + k * len(e) : k] = e
        packed.append(_pack(lanes, width))
    adds = [0] * len(packed)  # the unreduced additions into each row
    for i, (xi, s, (src, d)) in enumerate(zip(run.xs, run.mults, plans)):
        nv = len(src)
        low = (1 << bits * nv) - 1
        m = -xi % p
        for r, (dx, dy) in enumerate(derivative_orders(s)):  # the rounds of one point
            values = [(row >> bits * r & mask) % p for row in packed]
            t = _pick_pivot(values, deltas)
            if t is None:
                continue  # constraint already satisfied by every element
            inv_vt = field.inv(values[t])
            pivot = packed[t]
            lanes = _reduce(pivot if adds[t] else pivot & low, width, p)
            if adds[t]:  # unreduced lanes would carry into each other when multiplied
                pivot = _pack(lanes, width)
            ext = lanes[:nv]
            nops = 0
            for j, v in enumerate(values):
                if j == t or v == 0:
                    continue
                if adds[j] == tmax:
                    packed[j] = _pack(_reduce(packed[j], width, p), width)
                    adds[j] = 0
                packed[j] += (p - v * inv_vt % p) * pivot
                adds[j] += 1
                nops += 1
            ext += [0] * (nv + 1 - len(ext))
            T = pivot >> bits * nv
            packed[t] = _pack([(ext[a] + c * b) % p for a, c, b in zip(src, d, ext)], width) + (
                (T << bits * k) + m * T << bits * nv
            )
            adds[t] = 1  # the entries' lanes are below p + (p - 1)^2
            deltas[t] += 1
            if counter is not None:
                # the pivot's lanes, once per row operation and once for the shift
                counter.mults += (nops + 1) * -(-pivot.bit_length() // bits)
                if counter.pivots is not None:
                    counter.pivots.append((run.lo + i, dx, dy, t))
        packed = [row >> bits * (s * (s + 1) // 2) for row in packed]  # the point is done
    return [[_trim(lanes[l::k]) for l in range(k)] for lanes in (_reduce(r, width, p) for r in packed)]


def interpolate(inst: InterpolationInstance, mode: str = "cached") -> tuple[BiPoly, TrackedBasis]:
    """Solve the instance; returns the minimal element and the full basis.
    Under count_scalar_mults(pivots=True) every inner round that found a
    pivot is logged."""
    if mode not in ("naive", "cached"):
        raise ValueError(f"unknown mode {mode!r}")
    field, p = inst.field, inst.field.p
    ell = inst.ell
    rows, deltas = identity(ell + 1), [inst.w * j for j in range(ell + 1)]  # {1, y, ..., y^ell}
    if mode == "cached":
        xs, ys = zip(*inst.points)
        for i in range(0, inst.n, LEAF_MAX):
            run = slice(i, i + LEAF_MAX)
            rows = eliminate_run(field, Run(list(xs[run]), inst.mults[run], p, i), list(ys[run]),
                                 rows, rows, deltas)
    basis = TrackedBasis.from_rows(field, rows, deltas)
    if mode == "naive":
        elems = basis.elems
        counter = unipoly._COUNTER
        for i, ((xi, yi), s) in enumerate(zip(inst.points, inst.mults)):
            for dx, dy in derivative_orders(s):
                values = [e.hasse_derivative(xi, yi, dx, dy) for e in elems]
                t = _pick_pivot(values, deltas)
                if t is None:
                    continue  # constraint already satisfied by every element
                if counter is not None and counter.pivots is not None:
                    counter.pivots.append((i, dx, dy, t))
                inv_vt = field.inv(values[t])
                pivot_elem = elems[t]
                for j in range(ell + 1):
                    if j == t or values[j] == 0:
                        continue
                    c = values[j] * inv_vt % p
                    elems[j] = elems[j].sub_scaled(c, pivot_elem)
                elems[t] = pivot_elem.mul_linear(xi)
                deltas[t] += 1
    return basis.minimal(), basis
