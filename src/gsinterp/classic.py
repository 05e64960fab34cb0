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
               coefficient lists. Per point, bipoly.hasse_matrices takes all
               Hasse matrices in one batched pass, and eliminate_point keeps
               them current through the inner loop by the same linear
               combinations / row shifts it applies to the rows, each a list
               comprehension over coefficients. The fast solver runs the same
               eliminate_point on short runs of points, over its transform
               rows joined to the reduced basis.
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


def hasse_shift_down(H: list[list[int]], s: int) -> list[list[int]]:
    """Hasse matrix of (x - x0)*b from the one of b: rows move down one,
    new top row zero, entries outside the anti-triangle zeroed."""
    out = [[0] * s for _ in range(s)]
    for dx in range(1, s):
        src = H[dx - 1]
        dst = out[dx]
        for dy in range(s - dx):
            dst[dy] = src[dy]
    return out


def hasse_combine(Hj: list[list[int]], Ht: list[list[int]], c: int, p: int) -> list[list[int]]:
    """Entrywise Hj - c*Ht."""
    return [[(a - c * b) % p for a, b in zip(ra, rb)] for ra, rb in zip(Hj, Ht)]


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


def eliminate_point(
    field: PrimeField,
    rows: list[list[list[int]]],
    matrices: list[list[list[int]]],
    deltas: list[int],
    xi: int,
    s: int,
    pivot_log: list | None = None,
    point_index: int = 0,
) -> None:
    """Run the inner rounds of one point in place on the cached Hasse matrices.

    matrices[j] is the s x s Hasse matrix of basis element j at the point.
    Each round that finds a pivot t cancels the (dx, dy) derivative from every
    other element j, applying row_j -= ratio_j * row_t to rows[j] and
    matrices[j], then multiplies row t by (x - xi) and bumps deltas[t]. Row j
    of `rows` holds the coefficients of whatever element j is expressed in:
    the y-power rows of the element itself, or a transform's row over F[x],
    each entry a trimmed coefficient list. Entries are never mutated, only
    replaced, so rows may share them with their caller.
    """
    p = field.p
    m = -xi % p
    for dx, dy in derivative_orders(s):
        values = [H[dx][dy] for H in matrices]
        t = _pick_pivot(values, deltas)
        if t is None:
            continue  # constraint already satisfied by every element
        if pivot_log is not None:
            pivot_log.append((point_index, dx, dy, t))
        inv_vt = field.inv(values[t])
        pivot_row = rows[t]
        nops = 1
        for j, v in enumerate(values):
            if j == t or v == 0:
                continue
            c = v * inv_vt % p
            rows[j] = _add_multiple(rows[j], p - c, pivot_row, p)
            matrices[j] = hasse_combine(matrices[j], matrices[t], c, p)
            nops += 1
        rows[t] = _mul_linear(pivot_row, m, p)
        matrices[t] = hasse_shift_down(matrices[t], s)
        deltas[t] += 1
        if unipoly._COUNTER is not None:  # one unit per pivot-row coefficient per operation
            unipoly._COUNTER.mults += nops * sum(map(len, pivot_row))


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
        for i, ((xi, yi), s) in enumerate(zip(inst.points, inst.mults)):
            # one batched Taylor pass over every row: the once-per-point cost
            matrices = hasse_matrices(field, ell, rows, xi, yi, s)
            eliminate_point(field, rows, matrices, deltas, xi, s, pivot_log, i)
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
