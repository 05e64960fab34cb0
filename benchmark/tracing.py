"""Span tracing of gsinterp's layers from outside the package.

`Tracer.install` replaces the functions the layers call each other through
with thin wrappers, rebinding every gsinterp module namespace (and class)
that holds the original object, so e.g. `fast`'s own reference to
`_series_inv` is traced too. Nothing under `src/` changes. `uninstall`
puts every original back.

A span records its name, start, end, parent span and op id; spans are
appended to flat in-memory arrays and only analysed (and written) once the
run is over. Wrappers outside an op pass straight through, so the
benchmark's own checks never show up as layer time. A name that the
package no longer has is skipped: its metrics read 0 and the report lists
it as missing.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array

# (span name, module, attribute path, what the wrapper records)
#   "span"  - a timed span
#   "count" - a call count only, keyed by the innermost open span; used for
#             tiny hot functions where a span would cost more than the call
LAYERS = [
    ("unipoly.mul.school", "unipoly", "_mul_school", "span"),
    ("unipoly.mul.kron", "unipoly", "_mul_kron", "span"),
    ("unipoly.divmod", "unipoly", "UniPoly.divmod", "span"),
    ("unipoly.series_inv", "unipoly", "_series_inv", "span"),
    ("unipoly.eval", "unipoly", "UniPoly.eval", "count"),
    ("field.inv", "field", "PrimeField.inv", "count"),
    ("field.binom", "field", "PrimeField.binom", "count"),
    ("bipoly.hasse_matrix", "bipoly", "BiPoly.hasse_matrix", "span"),
    ("bipoly.sub_scaled", "bipoly", "BiPoly.sub_scaled", "span"),
    ("bipoly.mul_linear", "bipoly", "BiPoly.mul_linear", "span"),
    ("classic.interpolate", "classic", "interpolate", "span"),
    ("fast.solve", "fast", "solve", "span"),
    ("fast.build_modulus_tree", "fast", "build_modulus_tree", "span"),
    ("fast.tree", "fast", "interpolate_tree", "span"),
    ("fast.interpolate_point", "fast", "interpolate_point", "span"),
    ("fast.rem", "fast", "_ModNode.rem", "span"),
    ("fast.poly_matmul", "fast", "_poly_matmul", "span"),
    ("decoder.gs_params", "decoder", "gs_params", "span"),
    ("decoder.decode_list", "decoder", "decode_list", "span"),
    ("decoder.y_roots", "decoder", "y_roots", "span"),
    ("decoder.poly_roots", "decoder", "_poly_roots", "span"),
    ("decoder.filter", "decoder", "RSCode.encode", "span"),
    ("decoder.filter", "decoder", "hamming", "span"),
]

OP = "bench.op"
MAX_NAMES = 64

# one integer per span, read from the call's arguments or result
_SPAN_ARG = {
    "unipoly.mul.school": lambda args, r: len(args[0]) + len(args[1]) - 1 if args[0] and args[1] else 0,
    "unipoly.mul.kron": lambda args, r: len(args[0]) + len(args[1]) - 1,
    # 1 when there is a quotient to compute, 0 when the input is returned as is
    "unipoly.divmod": lambda args, r: int(len(args[0].coeffs) >= len(args[1].coeffs)),
    "fast.rem": lambda args, r: int(len(args[1].coeffs) >= len(args[0].modulus.coeffs)),
    "fast.tree": lambda args, r: len(args[0]),
    "decoder.decode_list": lambda args, r: len(r),
    "decoder.y_roots": lambda args, r: len(r),
    "decoder.poly_roots": lambda args, r: len(r),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("B")
        self.depth = array("B")  # open spans of the same name at open time
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.arg = array("i")
        # count-only tallies: name id -> calls by innermost open span id, the
        # last slot taking the calls made outside any op
        self.counts: dict[int, list[int]] = {}
        self.missing: list[str] = []
        self._active: list[int] = []
        self._cur = -1
        self._cur_name = -1
        self._op = -1
        self._nops = 0
        self._restore: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return self._ids[name]

    # -- spans -------------------------------------------------------------------

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.depth.append(min(self._active[nid], 255))
        self.parent.append(self._cur)
        self.op.append(self._op)
        self.arg.append(0)
        self.end.append(0)
        self._active[nid] += 1
        self._cur = i
        self._cur_name = nid
        self.start.append(time.perf_counter_ns())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        nid = self.name[i]
        self._active[nid] -= 1
        self._cur = p = self.parent[i]
        self._cur_name = self.name[p] if p >= 0 else -1

    def begin_op(self) -> None:
        self._op = self._nops
        self._nops += 1
        self._open(self._id(OP))

    def end_op(self) -> None:
        self._close(self._cur)
        self._op = -1

    @property
    def ops_done(self) -> int:
        return self._nops

    # -- wrappers ------------------------------------------------------------------

    def _span_wrapper(self, orig, name: str):
        nid = self._id(name)
        argfn = _SPAN_ARG.get(name)
        tr = self

        def traced(*args, **kwargs):
            if tr._op < 0:
                return orig(*args, **kwargs)
            i = tr._open(nid)
            try:
                result = orig(*args, **kwargs)
            finally:
                tr._close(i)
            if argfn is not None:
                tr.arg[i] = argfn(args, result)
            return result

        return traced

    def _count_wrapper(self, orig, name: str):
        row = self.counts.setdefault(self._id(name), [0] * (MAX_NAMES + 1))
        tr = self

        # the scan in decoder._poly_roots calls UniPoly.eval millions of times,
        # so this stays as lean as a counting wrapper gets
        def counted(obj, x, *more):
            row[tr._cur_name] += 1
            return orig(obj, x, *more)

        return counted

    def snapshot_counts(self) -> dict[int, list[int]]:
        return {k: list(v) for k, v in self.counts.items()}

    def install(self, package: str = "gsinterp") -> None:
        self._id(OP)
        modules = [
            m for k, m in list(sys.modules.items())
            if m is not None and (k == package or k.startswith(package + "."))
        ]
        for name, modname, path, kind in LAYERS:
            mod = sys.modules.get(f"{package}.{modname}")
            owner, _, attr = path.rpartition(".")
            holder = getattr(mod, owner, None) if owner else mod
            orig = holder.__dict__.get(attr) if holder is not None else None
            if orig is None:
                self.missing.append(f"{modname}.{path}")
                continue
            make = self._span_wrapper if kind == "span" else self._count_wrapper
            wrapper = make(orig, name)
            if owner:
                self._rebind(holder, attr, wrapper)
            else:
                for m in modules:
                    for k, v in list(vars(m).items()):
                        if v is orig:
                            self._rebind(m, k, wrapper)

    def _rebind(self, holder, attr: str, wrapper) -> None:
        self._restore.append((holder, attr, holder.__dict__[attr]))
        setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, orig in reversed(self._restore):
            setattr(holder, attr, orig)
        self._restore.clear()

    # -- output ------------------------------------------------------------------

    def write(self, path) -> None:
        """All spans as gzipped TSV: id, name, start_ns, end_ns, parent, op, arg."""
        t0 = self.start[0] if self.start else 0
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("id\tname\tstart_ns\tend_ns\tparent\top\targ\n")
            names = self.names
            for i in range(len(self.start)):
                f.write(
                    f"{i}\t{names[self.name[i]]}\t{self.start[i] - t0}\t{self.end[i] - t0}"
                    f"\t{self.parent[i]}\t{self.op[i]}\t{self.arg[i]}\n"
                )


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

TREE_LEVELS = 11  # depths 0..10; a 1024-point tree has 11 levels
SMALL_SUBTREE = 16

# Every metric below is reported on every workload; a layer a workload never
# reaches reads 0. Counts are exact and cover the first traced pass over the
# workload's inputs; `_s` metrics are mean seconds per traced op, inclusive
# of the layer's callees unless marked "self".
PER_LAYER = [
    ("unipoly.mul.school.calls", "count"),
    ("unipoly.mul.school_s", "s/op"),  # self
    ("unipoly.mul.kron.calls", "count"),
    ("unipoly.mul.kron_s", "s/op"),  # self
    ("unipoly.mul.coeffs", "count"),  # output slots of the dispatched multiplies
    ("unipoly.scalar_mults", "count"),  # gsinterp's own count_scalar_mults()
    ("unipoly.divmod.synthetic.calls", "count"),
    ("unipoly.divmod.newton.calls", "count"),
    ("unipoly.divmod_s", "s/op"),
    ("unipoly.series_inv.calls", "count"),
    ("unipoly.series_inv_s", "s/op"),
    ("fast.rem.calls", "count"),
    ("fast.rem.newton_frac", "ratio"),  # of the calls that have a quotient
    ("fast.rem_s", "s/op"),
    ("fast.poly_matmul.calls", "count"),
    ("fast.poly_matmul_s", "s/op"),
    ("fast.build_modulus_tree_s", "s/op"),
] + [
    (f"fast.tree.level{d}_s", "s/op")  # self: minus the nested tree frames only
    for d in range(TREE_LEVELS)
] + [
    ("fast.tree.le16_frac", "ratio"),  # of fast.solve time
    ("fast.interpolate_point.calls", "count"),
    ("fast.interpolate_point_s", "s/op"),
    ("bipoly.hasse_matrix.calls", "count"),
    ("bipoly.hasse_matrix_s", "s/op"),
    ("bipoly.sub_scaled_s", "s/op"),
    ("bipoly.mul_linear_s", "s/op"),
    ("classic.interpolate_s", "s/op"),
    ("field.inv.calls", "count"),
    ("field.binom.calls", "count"),
    ("decoder.gs_params_s", "s/op"),
    ("decoder.solve_s", "s/op"),  # fast.solve inside decode_list
    ("decoder.y_roots_s", "s/op"),
    ("decoder.poly_roots.calls", "count"),
    ("decoder.poly_roots.evals", "count"),
    ("decoder.poly_roots.found", "count"),
    ("decoder.filter_s", "s/op"),  # RSCode.encode and hamming
    ("decoder.list_useful_frac", "ratio"),  # messages kept / roots returned
    ("trace.op_s", "s/op"),  # traced op time, the base of every share
    ("trace.overhead_ms", "ms"),  # traced minus untraced ref p50 of the main op
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),  # spans recorded in the counted pass
]

# span names whose shares of op time the report lists
SHARE_LAYERS = [
    "fast.solve", "classic.interpolate", "decoder.decode_list", "decoder.gs_params",
    "fast.build_modulus_tree", "fast.tree", "fast.interpolate_point", "fast.rem",
    "fast.poly_matmul", "bipoly.hasse_matrix", "bipoly.sub_scaled", "bipoly.mul_linear",
    "unipoly.divmod", "unipoly.series_inv", "unipoly.mul.school", "unipoly.mul.kron",
    "decoder.y_roots", "decoder.poly_roots", "decoder.filter",
]


def analyse(tr: Tracer, counted_ops: int, counts: dict, scalar_mults: int) -> dict:
    """Per-layer metrics from the recorded spans.

    counted_ops: ops 0..counted_ops-1 form the counted pass; counts: the
    tracer's snapshot_counts() at the end of that pass; scalar_mults: the
    package's own scalar multiply count over the same pass."""
    names = tr.names
    ids = {n: i for i, n in enumerate(names)}
    nn = len(names)
    n = len(tr.start)
    start, end, parent, name, op, arg, depth = (
        tr.start, tr.end, tr.parent, tr.name, tr.op, tr.arg, tr.depth
    )
    nid = lambda s: ids.get(s, -1)  # noqa: E731
    SOLVE, TREE, DIVMOD, SERIES, REM, DECODE = (
        nid("fast.solve"), nid("fast.tree"), nid("unipoly.divmod"),
        nid("unipoly.series_inv"), nid("fast.rem"), nid("decoder.decode_list"),
    )

    child = array("q", bytes(8 * n))  # time covered by direct children
    tree_child = array("q", bytes(8 * n))  # time covered by nested tree frames
    with_series = set()  # divmod spans that ran Newton (called _series_inv)
    with_divmod = set()  # rem spans that fell back to UniPoly.divmod
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        d = end[i] - start[i]
        child[p] += d
        k = name[i]
        if k == TREE and name[p] == TREE:
            tree_child[p] += d
        elif k == SERIES:
            with_series.add(p)
        elif k == DIVMOD:
            with_divmod.add(p)

    incl = [0] * nn  # outermost spans of each name
    self_ = [0] * nn
    calls = [0] * nn  # counted pass only
    argsum = [0] * nn  # counted pass only
    levels = [0] * TREE_LEVELS
    le16 = solve_ns = decoder_solve = 0
    divmod_newton = divmod_synth = rem_div = rem_newton = 0
    for i in range(n):
        k = name[i]
        d = end[i] - start[i]
        self_[k] += d - child[i]
        if depth[i] == 0:
            incl[k] += d
        counted = op[i] < counted_ops
        if counted:
            calls[k] += 1
            argsum[k] += arg[i]
        if k == TREE:
            if depth[i] < TREE_LEVELS:
                levels[depth[i]] += d - tree_child[i]
            p = parent[i]
            if arg[i] <= SMALL_SUBTREE and not (
                p >= 0 and name[p] == TREE and arg[p] <= SMALL_SUBTREE
            ):
                le16 += d
        elif k == SOLVE:
            solve_ns += d
            if parent[i] >= 0 and name[parent[i]] == DECODE:
                decoder_solve += d
        elif counted and k == DIVMOD:
            if i in with_series:
                divmod_newton += 1
            elif arg[i]:
                divmod_synth += 1
        elif counted and k == REM and arg[i]:
            rem_div += 1
            rem_newton += i not in with_divmod

    ops = max(tr.ops_done, 1)
    per_op = lambda ns: ns / 1e9 / ops  # noqa: E731

    def get(lst, span):
        j = nid(span)
        return lst[j] if j >= 0 else 0

    def tally(span, inside=None):
        row = counts.get(nid(span))
        if row is None:
            return 0
        return row[nid(inside)] if inside else sum(row[:-1])

    kept, roots = get(argsum, "decoder.decode_list"), get(argsum, "decoder.y_roots")
    m = {
        "unipoly.mul.school.calls": get(calls, "unipoly.mul.school"),
        "unipoly.mul.school_s": per_op(get(self_, "unipoly.mul.school")),
        "unipoly.mul.kron.calls": get(calls, "unipoly.mul.kron"),
        "unipoly.mul.kron_s": per_op(get(self_, "unipoly.mul.kron")),
        "unipoly.mul.coeffs": get(argsum, "unipoly.mul.school") + get(argsum, "unipoly.mul.kron"),
        "unipoly.scalar_mults": scalar_mults,
        "unipoly.divmod.synthetic.calls": divmod_synth,
        "unipoly.divmod.newton.calls": divmod_newton,
        "unipoly.divmod_s": per_op(get(incl, "unipoly.divmod")),
        "unipoly.series_inv.calls": get(calls, "unipoly.series_inv"),
        "unipoly.series_inv_s": per_op(get(incl, "unipoly.series_inv")),
        "fast.rem.calls": get(calls, "fast.rem"),
        "fast.rem.newton_frac": rem_newton / rem_div if rem_div else 0.0,
        "fast.rem_s": per_op(get(incl, "fast.rem")),
        "fast.poly_matmul.calls": get(calls, "fast.poly_matmul"),
        "fast.poly_matmul_s": per_op(get(incl, "fast.poly_matmul")),
        "fast.build_modulus_tree_s": per_op(get(incl, "fast.build_modulus_tree")),
        **{f"fast.tree.level{d}_s": per_op(levels[d]) for d in range(TREE_LEVELS)},
        "fast.tree.le16_frac": le16 / solve_ns if solve_ns else 0.0,
        "fast.interpolate_point.calls": get(calls, "fast.interpolate_point"),
        "fast.interpolate_point_s": per_op(get(incl, "fast.interpolate_point")),
        "bipoly.hasse_matrix.calls": get(calls, "bipoly.hasse_matrix"),
        "bipoly.hasse_matrix_s": per_op(get(incl, "bipoly.hasse_matrix")),
        "bipoly.sub_scaled_s": per_op(get(incl, "bipoly.sub_scaled")),
        "bipoly.mul_linear_s": per_op(get(incl, "bipoly.mul_linear")),
        "classic.interpolate_s": per_op(get(incl, "classic.interpolate")),
        "field.inv.calls": tally("field.inv"),
        "field.binom.calls": tally("field.binom"),
        "decoder.gs_params_s": per_op(get(incl, "decoder.gs_params")),
        "decoder.solve_s": per_op(decoder_solve),
        "decoder.y_roots_s": per_op(get(incl, "decoder.y_roots")),
        "decoder.poly_roots.calls": get(calls, "decoder.poly_roots"),
        "decoder.poly_roots.evals": tally("unipoly.eval", "decoder.poly_roots"),
        "decoder.poly_roots.found": get(argsum, "decoder.poly_roots"),
        "decoder.filter_s": per_op(get(incl, "decoder.filter")),
        "decoder.list_useful_frac": kept / roots if roots else 0.0,
        "trace.op_s": per_op(get(incl, OP)),
        "trace.spans": sum(calls),
    }
    op_ns = get(incl, OP) or 1
    shares = {
        s: {
            "calls": get(calls, s),
            "incl_share": get(incl, s) / op_ns,
            "self_share": get(self_, s) / op_ns,
        }
        for s in SHARE_LAYERS if nid(s) >= 0
    }
    # what no traced layer covers: the benchmark's op span minus its children
    shares["(untraced)"] = {"calls": 0, "incl_share": get(self_, OP) / op_ns,
                            "self_share": get(self_, OP) / op_ns}
    return {"metrics": m, "shares": shares}
