"""Classic iterative interpolation over the basis {1, y, ..., y^ell}.

Runs over points in order; for each derivative order (dx, dy) it picks the
eligible basis element with the smallest weighted degree as pivot (ties go to
the larger index), cancels the derivative from everyone else, and multiplies
the pivot by (x - x_i). Element j starts as y^j, and this pivot rule keeps
its leading y-position at j throughout, so the index is the position.

Two modes produce bit-identical output:
  * "naive"  — every Hasse value is recomputed from the full-degree element
               via the direct formula, and the row operations run on BiPoly.
  * "cached" — the basis is unwrapped once per solve into rows of plain
               coefficient lists; per point, bipoly.hasse_matrices takes
               every element's Hasse values in one batched pass.

eliminate_point is the one elimination step of cached classic and of the
fast solver's leaf runs. Beside each row it carries one flat vector of its
element's Hasse values: for each point still to do, its s(s+1)/2 values in
derivative_orders order, the current point's block first. The values are
linear in the element, so row_j -= c*row_t is vec_j -= c*vec_t entrywise.
For the pivot's (x - x_i), write x - x_i = (x - x_k) + (x_k - x_i): the
coefficient of (x - x_k)^dx (y - y_k)^dy in (x - x_i)*b is then
H[dx-1][dy] + (x_k - x_i)*H[dx][dy] of b at (x_k, y_k), with H[-1][dy] = 0;
at x_k = x_i every dx row moves down one. shift_plan turns that rule into
one gather per point. Cached classic is the one-point case: its plan has
x_k = x_i, depends on s alone and is kept per s.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import unipoly
from .bipoly import BiPoly, derivative_orders, hasse_matrices
from .field import PrimeField
from .problem import InterpolationInstance
from .unipoly import UniPoly


@dataclass
class TrackedBasis:
    """Basis elements with their weighted degrees: deltas[j] is the (1, w)-weighted
    degree of elems[j], whose leading y-position is j."""

    elems: list[BiPoly]
    deltas: list[int]

    @classmethod
    def standard(cls, field: PrimeField, ell: int, w: int) -> "TrackedBasis":
        """The starting basis {1, y, ..., y^ell}."""
        return cls(
            [BiPoly.y_power(field, ell, j) for j in range(ell + 1)],
            [w * j for j in range(ell + 1)],
        )

    def minimal(self) -> BiPoly:
        """The element of least weighted degree, ties to the larger y-position."""
        return self.elems[min(range(len(self.deltas)), key=lambda j: (self.deltas[j], -j))]


def _pick_pivot(values: list[int], deltas: list[int]) -> int | None:
    """Index j minimizing (delta, -j) among nonzero values; None if all zero."""
    best = None
    best_key = None
    for j, v in enumerate(values):
        if v == 0:
            continue
        key = (deltas[j], -j)
        if best is None or key < best_key:
            best, best_key = j, key
    return best


def _add_multiple(
    row_a: list[list[int]], c: int, row_b: list[list[int]], p: int
) -> list[list[int]]:
    """Entrywise a + c*b over two rows of trimmed coefficient lists, c != 0.
    Only entries of equal length can cancel at the top, so only they are trimmed."""
    out = []
    for a, b in zip(row_a, row_b):
        if b:
            e = [(u + c * v) % p for u, v in zip(a, b)]
            if len(a) > len(b):
                e += a[len(b):]
            elif len(a) < len(b):
                e += [c * v % p for v in b[len(a):]]
            else:
                while e and e[-1] == 0:
                    e.pop()
            a = e
        out.append(a)
    return out


def _mul_linear(row: list[list[int]], m: int, p: int) -> list[list[int]]:
    """Entrywise (x + m)*b over a row of trimmed coefficient lists; each
    product keeps b's top coefficient, so none needs trimming."""
    out = []
    for b in row:
        if b:
            e = [(u + m * v) % p for u, v in zip([0] + b, b)]
            e.append(b[-1])
            b = e
        out.append(b)
    return out


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
            src += [above + dy if dx else -1 for dy in range(s - dx)]
            above = row
        d += [(xk - xi) % p] * (len(src) - len(d))
    return src, d


def shift_values(vec: list[int], plan: Plan, p: int) -> list[int]:
    """The flat Hasse values of (x - xi)*b from those of b, by shift_plan."""
    src, d = plan
    ext = vec + [0]
    return [(ext[a] + k * b) % p for a, k, b in zip(src, d, vec)]


def eliminate_point(
    field: PrimeField,
    rows: list[list[list[int]]],
    vecs: list[list[int]],
    deltas: list[int],
    xi: int,
    s: int,
    plan: Plan,
    pivot_log: list | None = None,
    point_index: int = 0,
) -> None:
    """Run the inner rounds of one point in place on the flat Hasse values.

    vecs[j] holds element j's values at this point, then at any later
    points, and plan is shift_plan over the same points. Each round that
    finds a pivot t applies row_j -= ratio_j * row_t to rows[j] and vecs[j]
    for every other j with a nonzero value, then multiplies row t by
    (x - xi), shifts vecs[t] and bumps deltas[t]. Row j holds element j's
    y-power rows or its transform row over F[x], each entry a trimmed
    coefficient list; entries are replaced, never mutated, so rows may
    share them with their caller.
    """
    p = field.p
    m = -xi % p
    for r, (dx, dy) in enumerate(derivative_orders(s)):
        values = [v[r] for v in vecs]
        t = _pick_pivot(values, deltas)
        if t is None:
            continue  # constraint already satisfied by every element
        if pivot_log is not None:
            pivot_log.append((point_index, dx, dy, t))
        inv_vt = field.inv(values[t])
        pivot_row, pivot_vec = rows[t], vecs[t]
        nops = 1
        for j, v in enumerate(values):
            if j == t or v == 0:
                continue
            c = v * inv_vt % p
            rows[j] = _add_multiple(rows[j], p - c, pivot_row, p)
            vecs[j] = [(a - c * b) % p for a, b in zip(vecs[j], pivot_vec)]
            nops += 1
        rows[t] = _mul_linear(pivot_row, m, p)
        vecs[t] = shift_values(pivot_vec, plan, p)
        deltas[t] += 1
        if unipoly._COUNTER is not None:
            # one unit per pivot-row coefficient and per vector entry, per operation
            unipoly._COUNTER.mults += nops * (sum(map(len, pivot_row)) + len(pivot_vec))


def interpolate(
    inst: InterpolationInstance,
    mode: str = "cached",
    pivot_log: list | None = None,
) -> tuple[BiPoly, TrackedBasis]:
    """Solve the instance; returns the minimal element and the full basis.

    pivot_log, if given, receives one (point_index, dx, dy, pivot_index)
    tuple per inner round that found a pivot.
    """
    if mode not in ("naive", "cached"):
        raise ValueError(f"unknown mode {mode!r}")
    field, p = inst.field, inst.field.p
    ell = inst.ell

    basis = TrackedBasis.standard(field, ell, inst.w)
    elems, deltas = basis.elems, basis.deltas

    if mode == "cached":
        rows = [[r.coeffs for r in e.rows] for e in elems]
        # the one-point plan has x_k = x_i, so it depends on s alone
        plans = {s: shift_plan([0], [s], 0, p) for s in set(inst.mults)}
        for i, ((xi, yi), s) in enumerate(zip(inst.points, inst.mults)):
            # one batched Taylor pass over every row: the once-per-point cost
            vecs = hasse_matrices(field, ell, rows, xi, yi, s)
            eliminate_point(field, rows, vecs, deltas, xi, s, plans[s], pivot_log, i)
        basis.elems = [
            BiPoly(field, ell, [UniPoly(field, c, normalized=True) for c in r]) for r in rows
        ]
    else:
        for i, ((xi, yi), s) in enumerate(zip(inst.points, inst.mults)):
            for dx, dy in derivative_orders(s):
                values = [e.hasse_derivative(xi, yi, dx, dy) for e in elems]
                t = _pick_pivot(values, deltas)
                if t is None:
                    continue  # constraint already satisfied by every element
                if pivot_log is not None:
                    pivot_log.append((i, dx, dy, t))
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
