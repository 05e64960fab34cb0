"""Brute-force minimal interpolation by explicit linear algebra.

Columns, one per monomial, are appended one at a time in increasing
weighted order while a column echelon factorization is maintained; the
first column that is linearly dependent on its predecessors closes a kernel
vector whose leading monomial is that column, so the returned solution has
provably minimal weighted degree. Desk scale only: the work grows with the
cube of the constraint count, which problem.check_work weighs before any
column.
"""

from __future__ import annotations

from math import comb
from typing import Iterator

from .bipoly import BiPoly, derivative_orders
from .problem import InterpolationInstance, check_work


def _monomials_ascending(ell: int, w: int) -> Iterator[tuple[int, int]]:
    """(xdeg, ydeg) pairs in increasing (wdeg, xdeg) order, without end."""
    d = 0
    while True:
        for j in range(min(ell, d // w), -1, -1):
            yield d - w * j, j
        d += 1


def _constraint_column(inst: InterpolationInstance, a: int, j: int) -> list[int]:
    """Column of Hasse-derivative coefficients of the monomial x^a y^j."""
    p = inst.field.p
    col = []
    for (x, y), s in zip(inst.points, inst.mults):
        for dx, dy in derivative_orders(s):
            if a < dx or j < dy:
                col.append(0)
                continue
            v = comb(a, dx) * comb(j, dy) % p
            v = v * pow(x, a - dx, p) % p
            v = v * pow(y, j - dy, p) % p
            col.append(v)
    return col


def minimal_solution(inst: InterpolationInstance) -> tuple[BiPoly, int]:
    """Solve the instance by brute force; returns (q, weighted degree of q)."""
    field, p = inst.field, inst.field.p
    pivots: list[tuple[int, list[int], dict]] = []  # (pivot_row, column, combination)
    nrows = inst.constraint_count()
    check_work(inst.n, nrows, inst.ell, "oracle")
    for a, j in _monomials_ascending(inst.ell, inst.w):
        col = _constraint_column(inst, a, j)
        combo = {(a, j): 1}
        for prow, pcol, pcombo in pivots:
            if col[prow] == 0:
                continue
            c = col[prow] * field.inv(pcol[prow]) % p
            col = [(u - c * v) % p for u, v in zip(col, pcol)]
            for m, cv in pcombo.items():
                combo[m] = (combo.get(m, 0) - c * cv) % p
        nz = next((r for r in range(nrows) if col[r]), None)
        if nz is None:
            q = BiPoly.from_monomials(field, inst.ell, ((xa, yj, c) for (xa, yj), c in combo.items()))
            return q, a + inst.w * j
        pivots.append((nz, col, combo))
