"""The benchmark's workloads: inputs made from a seed, the timed ops, and
the checks of every op's output.

Every workload builds its inputs with its own `random.Random` seeded from
`--seed` and hands gsinterp only the finished instances, so a change to the
package's own generators cannot change what is measured. Inputs form a pool
that the closed loop cycles through (see run.py); sizes that drive the
cost are stratified over their range, so every seed sees the same mix.
"""

from __future__ import annotations

import random

BENCH_PRIME = 754974721  # the package's 30-bit bench prime, 2-adicity 24
DECODE_PRIME = 65521  # the largest field the decoder's root scan accepts today


class OpFailed(Exception):
    """An op raised; it is already counted as failed."""


def _distinct_points(rng: random.Random, p: int, n: int) -> list[tuple[int, int]]:
    return [(x, rng.randrange(p)) for x in rng.sample(range(p), n)]


def _all_vanish(q, inst) -> bool:
    return all(q.has_multiplicity(x, y, s) for (x, y), s in zip(inst.points, inst.mults))


class Workload:
    name: str
    main: str  # label of the op the end-to-end metrics follow
    labels: tuple[str, ...]  # labels of every timed op
    # The first `counted` inputs are the counted pass: every run does at least
    # these, and a traced run takes its exact op counts from them.
    counted: int

    def prepare(self, g, items) -> None:
        """Reference outputs, computed outside set-up and the timed loop."""

    def warmup_item(self, items):
        return items[0]

    def key(self, item):
        """The input's data, for the digest that shows what a seed produced."""
        return item


class InterpSmall(Workload):
    """Many small instances, each solved by `fast.solve` and by
    `classic.interpolate(inst, "cached")`; each checks the other.

    Why: the modulus tree is shallow and every operand tiny, so the work is
    the per-point step (`interpolate_point`, `hasse_matrix`) and the
    transform products and remainders on schoolbook multiplies and
    synthetic division; the Kronecker multiply and the Newton remainder are
    barely reached. Classic and fast share the elimination step here, so a
    change to it that slows either solver shows on this workload.
    """

    name = "interp_small"
    main = "solve"
    labels = ("solve", "classic")
    ells = range(1, 5)
    n_levels = [16 + 80 * i // 15 for i in range(16)]  # 16..96
    w_levels = range(1, 9)
    pool = counted = len(ells) * len(n_levels)

    def make_inputs(self, g, seed: int) -> list:
        rng = random.Random(f"{self.name}:{seed}")
        field = g.field.PrimeField(BENCH_PRIME)
        # Every (n, ell) pair of the grid once: ell sets the transform size,
        # n the tree depth, and together they spread op time over 30x. The
        # weight w and the multiplicities also drive the cost, so they are
        # stratified too: for each ell, every w in 1..8 goes with one n in
        # the lower half of the range and one in the upper half, and every
        # instance has its multiplicities 1, 2, 3 in equal shares (in a
        # seeded order). So every seed has the same mix of op costs, and a
        # seed changes only the points, which order the multiplicities take
        # and the order of the instances.
        nw = len(self.w_levels)
        shapes = [
            (n, ell, self.w_levels[(i + 2 * j) % nw])
            for i, n in enumerate(self.n_levels)
            for j, ell in enumerate(self.ells)
        ]
        rng.shuffle(shapes)
        out = []
        for n, ell, w in shapes:
            points = _distinct_points(rng, BENCH_PRIME, n)
            mults = [1 + k % 3 for k in range(n)]
            rng.shuffle(mults)
            out.append(g.problem.InterpolationInstance(field, points, mults, ell, w))
        return out

    def warmup_item(self, items):
        # the same mid-sized shape for every seed, so set-up time does not
        # hang on where the shuffle put a large one
        mid = self.n_levels[len(self.n_levels) // 2]
        return next(inst for inst in items if inst.n == mid and inst.ell == 2)

    def points(self, inst) -> int:
        return inst.n

    def key(self, inst):
        return inst.points, inst.mults, inst.ell, inst.w

    def run(self, g, inst, timed, fail, deep: bool) -> None:
        q, deltas = timed("solve", lambda: g.fast.solve(inst))
        qc, basis = timed("classic", lambda: g.classic.interpolate(inst, "cached"))
        if q != qc or deltas != basis.deltas or (deep and not _all_vanish(q, inst)):
            fail("solve")


class InterpLarge(Workload):
    """`fast.solve` on a few instances with n = 1024, s = 2, ell = 2, w = 1,
    the shape profiled for the fast solver's open performance work.

    Why: the time goes to the top levels of the modulus tree, in
    `_poly_matmul` (Kronecker multiply) and `_ModNode.rem` (Newton remainder
    with the cached inverse). It uses the same univariate layer as
    interp_small with large operands instead of tiny ones, so a multiply or
    remainder change that helps one operand size and hurts the other shows
    as a win on one workload and a loss on the other. Classic is quadratic
    here (seconds per op) and only computes each instance's reference once,
    outside the timed loop and outside set-up.
    """

    name = "interp_large"
    main = "solve"
    labels = ("solve",)
    pool = counted = 2
    n, s, ell, w = 1024, 2, 2, 1

    def make_inputs(self, g, seed: int) -> list:
        rng = random.Random(f"{self.name}:{seed}")
        field = g.field.PrimeField(BENCH_PRIME)
        return [
            [g.problem.InterpolationInstance(
                field, _distinct_points(rng, BENCH_PRIME, self.n), [self.s] * self.n,
                self.ell, self.w,
            ), None]
            for _ in range(self.pool)
        ]

    def prepare(self, g, items) -> None:
        for item in items:
            q, basis = g.classic.interpolate(item[0], "cached")
            item[1] = (q, basis.deltas)

    def points(self, item) -> int:
        return item[0].n

    def key(self, item):
        return InterpSmall.key(self, item[0])

    def run(self, g, item, timed, fail, deep: bool) -> None:
        inst, ref = item
        q, deltas = timed("solve", lambda: g.fast.solve(inst))
        if (q, deltas) != ref or (deep and not _all_vanish(q, inst)):
            fail("solve")


class Decode(Workload):
    """`gs_params` plus `decode_list` for RS [n=64, k=16] over GF(65521),
    tau cycling over 25..30 (one past half the minimum distance up to
    multiplicity 3), each with a seeded message and exactly tau errors.

    Why: the whole-field root scan inside `y_roots` takes most of each op,
    interpolation the rest. A root-finding change shows here and must move
    nothing on the interpolation workloads; a fast-solver change should
    barely move this one.
    """

    name = "decode"
    main = "decode"
    labels = ("decode",)
    n, k = 64, 16
    taus = range(25, 31)
    # A decode's cost hangs on how many spurious roots the scan meets, so a
    # run sees as many distinct messages as it has time for.
    rounds = 8  # messages per tau
    counted = 2 * len(taus)

    def make_inputs(self, g, seed: int) -> list:
        rng = random.Random(f"{self.name}:{seed}")
        field = g.field.PrimeField(DECODE_PRIME)
        code = g.decoder.RSCode(field, self.n, self.k)
        out = []
        for _ in range(self.rounds):
            for tau in self.taus:
                msg = [rng.randrange(DECODE_PRIME) for _ in range(self.k)]
                received = _encode(msg, code.evalpoints, DECODE_PRIME)
                for i in rng.sample(range(self.n), tau):
                    received[i] = (received[i] + rng.randrange(1, DECODE_PRIME)) % DECODE_PRIME
                out.append((code, tau, msg, received))
        return out

    def points(self, item) -> int:
        return item[0].n

    def key(self, item):
        return item[1:]

    def run(self, g, item, timed, fail, deep: bool) -> None:
        code, tau, msg, received = item

        def op():
            return g.decoder.decode_list(code, received, g.decoder.gs_params(code, tau))

        found = timed("decode", op)
        xs, p = code.evalpoints, DECODE_PRIME
        ok = msg in found and all(
            sum(a != b for a, b in zip(_encode(m, xs, p), received)) <= tau for m in found
        )
        if ok and deep:
            # the interpolation decode_list runs, redone outside the timed op
            prm = g.decoder.gs_params(code, tau)
            inst = g.problem.InterpolationInstance(
                code.field, list(zip(xs, received)), [prm.s] * code.n, prm.ell, prm.w
            )
            ok = _all_vanish(g.fast.solve(inst)[0], inst)
        if not ok:
            fail("decode")


def _encode(msg, xs, p) -> list[int]:
    """Codeword of `msg` by Horner's rule; independent of RSCode.encode."""
    out = []
    for x in xs:
        acc = 0
        for c in reversed(msg):
            acc = (acc * x + c) % p
        out.append(acc)
    return out


WORKLOADS = {w.name: w for w in (InterpSmall(), InterpLarge(), Decode())}
