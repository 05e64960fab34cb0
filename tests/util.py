"""Shared test helpers."""

import random

from gsinterp.bipoly import BiPoly
from gsinterp.field import PrimeField
from gsinterp.unipoly import UniPoly


def rand_unipoly(field: PrimeField, rng: random.Random, deg: int) -> UniPoly:
    coeffs = [field.rand(rng) for _ in range(deg)] + [field.rand_nonzero(rng)]
    return UniPoly(field, coeffs)


def rand_bipoly(field: PrimeField, rng: random.Random, ell: int, xdeg: int) -> BiPoly:
    rows = []
    for _ in range(ell + 1):
        if rng.random() < 0.2:
            rows.append(UniPoly.zero(field))
        else:
            rows.append(rand_unipoly(field, rng, rng.randint(0, xdeg)))
    q = BiPoly(field, ell, rows)
    if q.is_zero():
        rows[0] = UniPoly.one(field)
        q = BiPoly(field, ell, rows)
    return q


def proportional(q1: BiPoly, q2: BiPoly) -> bool:
    """True iff q1 = c*q2 for a nonzero scalar c."""
    if q1.is_zero() or q2.is_zero():
        return q1.is_zero() and q2.is_zero()
    field = q1.field
    m1, m2 = q1.monomials(), q2.monomials()
    if [(a, j) for a, j, _ in m1] != [(a, j) for a, j, _ in m2]:
        return False
    c = m1[0][2] * field.inv(m2[0][2]) % field.p
    return all(c1 == c * c2 % field.p for (_, _, c1), (_, _, c2) in zip(m1, m2))


def schoolbook_product(a: UniPoly, b: UniPoly) -> UniPoly:
    """Independent quadratic reference multiply."""
    if a.is_zero() or b.is_zero():
        return UniPoly.zero(a.field)
    p = a.field.p
    out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, ai in enumerate(a.coeffs):
        for j, bj in enumerate(b.coeffs):
            out[i + j] = (out[i + j] + ai * bj) % p
    return UniPoly(a.field, out)


SCAN_MAX_P = 1 << 16


def scan_roots(f: UniPoly) -> list[int]:
    """Independent root oracle: evaluate f at every element of GF(p)."""
    p = f.field.p
    if p > SCAN_MAX_P:
        raise ValueError(f"scanning GF({p}) is too slow for a test oracle")
    return [v for v in range(p) if f.eval(v) == 0]
