"""A fixed reference kernel that tracks how fast the host runs right now.

The benchmark runs on a few cores of a shared host whose speed swings by
±20-25% over seconds to minutes (other tenants on the same physical cores),
while CPU time still equals wall time. A fixed 30-second window then lands
on different mixes of fast and slow phases from run to run, so the median
wall time of one op spreads by more than its regression bound across runs
of the same code.

The benchmark therefore runs `kernel()` right before and right after every
item (and every set-up repetition) and rescales each op's wall time by
REF_S / (mean of the two kernel times): the op's time as it would read on
the host at its reference speed. The kernel does the kinds of work gsinterp
spends its time on: bytecode loops of modular arithmetic on small ints,
list building, and multi-word integer products. It calls nothing in
gsinterp, so a change to the package moves the rescaled times exactly as
it moves the wall times, while a host-wide slowdown moves the kernel with
them. In 30-second windows on a 2-vCPU 2.1 GHz Xeon guest, the quartile
spread of the median of `fast.solve` wall times was 27%, and 2-3% once
rescaled this way.
"""

from __future__ import annotations

import random
import time

# kernel() wall time on a 2-vCPU 2.1 GHz Xeon guest (Python 3.11) in its
# faster phases: the reference speed the rescaled times are expressed at.
REF_S = 0.014

_P = 754974721
_BIG = random.Random(0).getrandbits(40000) | 1


def kernel() -> int:
    acc = 0
    for i in range(80000):
        acc = (acc * 31 + i * i) % _P
    v = [(i * 7 + acc) % 65521 for i in range(25000)]
    x = _BIG
    for _ in range(10):
        x = (x * _BIG) >> 40000
    return acc + sum(v) + (x & 0xFFFF)


def measure() -> float:
    """Wall time of one kernel() call, in seconds."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def rescale(t: float, before: float, after: float) -> float:
    """Wall time `t` at the reference speed, given the kernel times measured
    right before and right after it."""
    return t * 2 * REF_S / (before + after)
