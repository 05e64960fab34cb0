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


def _median_ms(fn, runs: int) -> float:
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1000.0)
    return statistics.median(times)


def run_bench(
    p: int, s: int, ell: int, sizes, seed: int = 0, runs: int = 3, w: int = 1
) -> list[tuple[int, float, float, float]]:
    """One row (n, classic_ms, classic_hasse_ms, fast_ms) per requested size;
    each cell is the median of `runs` wall-clock timings on one fixed instance."""
    field = PrimeField(p)
    rng = random.Random(seed)
    rows = []
    for n in sizes:
        inst = random_instance(field, rng, n, ell, w, uniform_s=s)
        t_classic = _median_ms(lambda: classic.interpolate(inst, "naive"), runs)
        t_cached = _median_ms(lambda: classic.interpolate(inst, "cached"), runs)
        t_fast = _median_ms(lambda: fast.solve(inst), runs)
        rows.append((n, t_classic, t_cached, t_fast))
    return rows


def format_csv(rows) -> str:
    lines = ["n,classic_ms,classic_hasse_ms,fast_ms"]
    for n, a, b, c in rows:
        lines.append(f"{n},{a:.3f},{b:.3f},{c:.3f}")
    return "\n".join(lines)
