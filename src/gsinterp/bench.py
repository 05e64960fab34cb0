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


def run_bench(
    p: int, s: int, ell: int, sizes, seed: int = 0, runs: int = 3
) -> list[tuple[int, float, float, float]]:
    """One row (n, classic_ms, classic_hasse_ms, fast_ms) per requested size;
    each cell is the median of `runs` wall-clock timings on one fixed instance
    with weight w = 1.
    All instances are built first, then each repetition times every
    (n, solver) cell once. The timings of one cell lie a whole pass apart, so
    a slow spell of the host shorter than a pass spoils at most one of them,
    which the median drops."""
    field = PrimeField(p)
    rng = random.Random(seed)
    insts = [random_instance(field, rng, n, ell, 1, uniform_s=s) for n in sizes]
    solvers = (
        lambda inst: classic.interpolate(inst, "naive"),
        lambda inst: classic.interpolate(inst, "cached"),
        lambda inst: fast.solve(inst),
    )
    times = [[[] for _ in solvers] for _ in insts]
    for _ in range(runs):
        for inst, cells in zip(insts, times):
            for solver, cell in zip(solvers, cells):
                t0 = time.perf_counter()
                solver(inst)
                cell.append((time.perf_counter() - t0) * 1000.0)
    return [(n, *map(statistics.median, cells)) for n, cells in zip(sizes, times)]


def format_csv(rows) -> str:
    lines = ["n,classic_ms,classic_hasse_ms,fast_ms"]
    for n, a, b, c in rows:
        lines.append(f"{n},{a:.3f},{b:.3f},{c:.3f}")
    return "\n".join(lines)
