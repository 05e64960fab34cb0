"""Interpolation problem instances: points, per-point multiplicities, list size, weight."""

from __future__ import annotations

import random
import sys
from math import isqrt

from .field import PrimeField

# check_work's one budget, in nanoseconds: three minutes of process time on
# the host its rates were fitted on
WORK_BUDGET = 180 * 10**9


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


def check_work(n: int, constraints: int, ell: int, solver: str) -> None:
    """Raise ValueError when a solve of n points with the given number of
    constraints C (InterpolationInstance.constraint_count) and list size ell
    is estimated to take longer than WORK_BUDGET, or solver is none of
    "naive", "cached" (classic's modes), "fast" and "oracle". The arithmetic
    is on integers, so an input of any size gets an answer, never overflow.

    The estimate, in nanoseconds, with L = ell + 1:
        every solver   (7000 n + 300 C + 3 L) L^2
        naive        + 400 C^2 L
        cached       + 300 C^2
        fast         + C^1.5 (6000 + 250 L^1.5) + 30 n L^3
        oracle       + 200 C^3 + 6000 C^2
    The first line is the work on L elements of L rows each at every point
    and constraint; it alone bounds a few points at a large ell. The second
    is each solver's growth: quadratic in C for the classic solvers, and
    C^1.5 for fast, whose top tree levels multiply L x L matrices of
    polynomials of degree about C / L with CPython's Karatsuba big-integer
    multiply; its n L^3 is the L^3 entry pairs each of its about n / 8
    matrix products walks. The terms and exponents come from a
    least-squares fit of the process times of 106 solves over the 30-bit
    bench prime on a 2-vCPU guest under Python 3.11: n from 1 to 16384, s
    from 1 to 32, ell from 0 to 2048, w = 1, and w = k - 1 at decoder shapes
    up to n = 1214, s = 8, ell = 16. The rates are about twice the fitted
    ones, so that every one of those solves took at most 0.91 of its
    estimate, and the nine that took over a minute 0.39 to 0.75. The
    estimate is loosest, up to 17-fold, at a large ell with few points.
    Without n the fit spreads 11-fold: at equal C and ell, s = 1 costs more
    than a few points of high multiplicity.

    The oracle reduces up to C + 1 columns of C entries by up to C pivots.
    37 of its solves of 1 ms or more on that host (C 24 to 800, s 1 to 8,
    ell to 1024, p 2 to 2^64 - 59) fit 76 C^3 + 1700 C^2 at the bench prime,
    about twice that above 2^60, and took at most 0.84 of their estimates,
    0.25 to 0.41 at the bench prime and ell <= 12. The first line stays,
    though ell adds only L answer rows: a rate linear in L would admit 10^8.

    WORK_BUDGET is three minutes of that host's process time. Weighed as its
    n - kappa solved points, a first decode took 0.40 to 0.50 of its estimate:
    RS [255, 64] at tau = 125 and 126 13.8 and 53.9 s (32.3 and 134 s), and
    RS [1024, 256] at tau = 497 and 499 54.1 and 87.6 s (112 and 176 s)."""
    c, l = constraints, ell + 1
    work = (7000 * n + 300 * c + 3 * l) * l * l
    if solver == "naive":
        work += 400 * c * c * l
    elif solver == "cached":
        work += 300 * c * c
    elif solver == "oracle":
        work += (200 * c + 6000) * c * c
    elif solver == "fast":
        work += isqrt(c**3) * (6000 + 250 * isqrt(l**3)) + 30 * n * l**3
    else:
        raise ValueError(f"no work rate for solver {solver!r}: naive, cached, fast or oracle")
    if work > WORK_BUDGET:
        from decimal import Decimal  # exact at any size, where float() overflows

        raise ValueError(
            f"{solver} solve estimated at {Decimal(work) / 10**9:.3g} s, over the work "
            f"budget of {WORK_BUDGET // 10**9} s"
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
