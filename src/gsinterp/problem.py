"""Interpolation problem instances: points, per-point multiplicities, list size, weight."""

from __future__ import annotations

import random
import sys

from .field import PrimeField


class InterpolationInstance:
    """Points (x_i, y_i) with x_i pairwise distinct, multiplicities s_i, y-degree
    cap ell and weight w. The target is a nonzero Q with y-deg <= ell, minimal
    (1,w)-weighted degree, and a zero of multiplicity >= s_i at every point."""

    __slots__ = ("field", "points", "mults", "ell", "w")

    def __init__(self, field: PrimeField, points, mults, ell: int, w: int):
        points = [(x % field.p, y % field.p) for x, y in points]
        mults = list(mults)
        if not points:
            raise ValueError("instance needs at least one point")
        if len(points) != len(mults):
            raise ValueError("points and multiplicities differ in length")
        xs = [x for x, _ in points]
        if len(set(xs)) != len(xs):
            raise ValueError("x coordinates must be pairwise distinct")
        if any(s < 1 for s in mults):
            raise ValueError("multiplicities must be positive")
        if ell < 0:
            raise ValueError("list size must be nonnegative")
        if w < 1:
            raise ValueError("weight must be positive")
        self.field = field
        self.points = points
        self.mults = mults
        self.ell = ell
        self.w = w

    @property
    def n(self) -> int:
        return len(self.points)

    def constraint_count(self) -> int:
        return sum(s * (s + 1) // 2 for s in self.mults)

    def __repr__(self) -> str:
        return (
            f"InterpolationInstance(GF({self.field.p}), n={self.n}, "
            f"mults={self.mults}, ell={self.ell}, w={self.w})"
        )


def random_instance(
    field: PrimeField,
    rng: random.Random,
    n: int,
    ell: int,
    w: int,
    smax: int = 1,
    smin: int = 1,
    uniform_s: int | None = None,
) -> InterpolationInstance:
    """Random instance with n distinct x's; either uniform multiplicity or
    per-point multiplicities drawn from [smin, smax]."""
    if n > field.p:
        raise ValueError("cannot pick that many distinct x coordinates")
    if field.p <= sys.maxsize:
        xs = rng.sample(range(field.p), n)
    else:  # range(p) has no len: draw, skipping repeats
        xs = {}
        while len(xs) < n:
            xs[rng.randrange(field.p)] = None
    points = [(x, field.rand(rng)) for x in xs]
    if uniform_s is not None:
        mults = [uniform_s] * n
    else:
        mults = [rng.randint(smin, smax) for _ in range(n)]
    return InterpolationInstance(field, points, mults, ell, w)
