"""Timing harness comparing the three interpolation routes on random instances."""

from __future__ import annotations

import random
import statistics
import time

from . import classic, fast
from .field import PrimeField
from .problem import random_instance

# 30-bit prime; the default modulus for scaling runs
BENCH_PRIME = 754974721


def time_passes(
    p: int, s: int, ell: int, sizes, seed: int = 0, runs: int = 3
) -> list[list[tuple[int, float, float, float]]]:
    """`runs` passes, each one row (n, classic_ms, classic_hasse_ms, fast_ms)
    per requested size, timed on one fixed instance per size with weight w = 1.
    All instances are built first, then each pass times every cell once, one
    solver's sizes back to back: a cell's timings lie a whole pass apart, and
    two sizes of one solver in one pass meet nearly the same host speed."""
    field = PrimeField(p)
    rng = random.Random(seed)
    insts = [random_instance(field, rng, n, ell, 1, uniform_s=s) for n in sizes]
    solvers = (
        lambda inst: classic.interpolate(inst, "naive"),
        lambda inst: classic.interpolate(inst, "cached"),
        lambda inst: fast.solve(inst),
    )
    passes = []
    for _ in range(runs):
        cols = [[] for _ in solvers]
        for solver, col in zip(solvers, cols):
            for inst in insts:
                t0 = time.perf_counter()
                solver(inst)
                col.append((time.perf_counter() - t0) * 1000.0)
        passes.append([(n, *cells) for n, cells in zip(sizes, zip(*cols))])
    return passes


def run_bench(p: int, s: int, ell: int, sizes, seed: int = 0, runs: int = 3) -> list[tuple]:
    """time_passes' rows with each cell the median over the passes."""
    by_size = zip(*time_passes(p, s, ell, sizes, seed, runs))
    return [(n, *map(statistics.median, list(zip(*rows))[1:])) for n, rows in zip(sizes, by_size)]


def format_csv(rows) -> str:
    lines = ["n,classic_ms,classic_hasse_ms,fast_ms"]
    for n, a, b, c in rows:
        lines.append(f"{n},{a:.3f},{b:.3f},{c:.3f}")
    return "\n".join(lines)
