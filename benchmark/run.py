"""gsinterp benchmark: end-to-end metrics, or a traced per-layer breakdown.

    python3 benchmark/run.py --workload {interp_small,interp_large,decode,all}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the package is imported from its `src/`.
Design: a closed loop with one client, in one process with no threads, as
gsinterp itself is single-threaded: the next op starts only when the
previous one has returned and its output has been checked. An op that
raises or answers wrongly counts as failed.

Host speed: the shared host's speed swings by ±20-25% over seconds to
minutes, so a fixed reference kernel (hostspeed.py) runs right before and
right after every item and every set-up repetition, and each op's wall
time is rescaled to the host's reference speed by the two kernel times
around it. The gated end-to-end times are these rescaled times; the raw
wall times are reported beside them.

--trace 0 prints the end-to-end metrics; --trace 1 first runs the counted
pass untraced, then traces every layer from the same first input for the
rest of the time, and prints the per-layer metrics, the tracing overhead
and each layer's share of op time. The program is one thread, so no layer
waits on another: waiting-time metrics are omitted.

The report goes to stdout, the last line being one JSON object with keys
correct, attempted, failed and metrics; the full record (environment,
sample counts, min/median/max, layer shares) is written to
benchmark/out/<workload>-seed<seed>-trace<t>.json, and with --trace 1 the
spans to <workload>-seed<seed>.spans.tsv.gz beside it.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
from tracing import PER_LAYER, Tracer, analyse  # noqa: E402
from workloads import WORKLOADS, OpFailed  # noqa: E402

DEFAULT_SEED = 1
# Never used while the benchmark was written: re-check a claim on it.
HELD_OUT_SEED = 4242
SETUP_REPS = 5
PACKAGE_MODULES = ("field", "unipoly", "bipoly", "problem", "classic", "fast", "decoder")

# the metrics BENCHMARK.json gates on, with their units; "ref" times are
# wall times rescaled to the host's reference speed (see hostspeed.py)
END_TO_END = {
    "op_ref_ms_p50": "ms",  # median rescaled time of the main op
    "ref_points_per_s": "1/s",  # input points per second of rescaled main-op time
    "setup_s": "s",  # median rescaled time of the set-up repetitions
    "peak_rss_mb": "MB",  # peak resident memory of the process
}


# ---------------------------------------------------------------------------
# loading the package from the checkout
# ---------------------------------------------------------------------------


def fresh_import() -> types.SimpleNamespace:
    """Import gsinterp from scratch (dropping any earlier copy), so that each
    set-up repetition pays the import again."""
    for k in [k for k in sys.modules if k == "gsinterp" or k.startswith("gsinterp.")]:
        del sys.modules[k]
    pkg = importlib.import_module("gsinterp")
    if SRC.resolve() not in Path(pkg.__file__).resolve().parents:
        raise ImportError(f"gsinterp was imported from {pkg.__file__}, not from {SRC}")
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"gsinterp.{m}") for m in PACKAGE_MODULES}
    )


def environment() -> dict:
    digest = hashlib.sha256()
    for f in sorted((SRC / "gsinterp").glob("*.py")):
        digest.update(f.name.encode() + b"\0" + f.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def _git_commit() -> str | None:
    """HEAD of the checkout, or None when the checkout is not a git work tree."""
    if not (ROOT / ".git").exists():
        return None  # git would search the directories above the checkout
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


class Recorder:
    """Wall time of every op by label, the reference-kernel times around
    the items, and the op and failure counts."""

    def __init__(self, labels, tracer: Tracer | None = None):
        self.samples = {label: [] for label in labels}
        # kernel times; an op timed after the k-th of them has slot k and
        # is rescaled by kernel times k and k + 1
        self.kernel: list[float] = []
        self.slots = {label: [] for label in labels}
        self.attempted = 0
        self.failed = 0
        self.points: list[int] = []  # input points of each main-op sample
        self.errors: list[str] = []
        self.tracer = tracer

    def timed(self, label: str, fn):
        self.attempted += 1
        tr = self.tracer
        if tr is not None:
            tr.begin_op()
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as e:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(traceback.format_exc())
            raise OpFailed(label) from e
        finally:
            dt = time.perf_counter() - t0
            if tr is not None:
                tr.end_op()
        self.samples[label].append(dt)
        self.slots[label].append(len(self.kernel) - 1)
        return result

    def measure_host(self) -> None:
        self.kernel.append(hostspeed.measure())

    def rescaled(self, label: str) -> list[float]:
        """Each op's wall time at the host's reference speed."""
        k = self.kernel
        return [hostspeed.rescale(dt, k[i], k[i + 1])
                for dt, i in zip(self.samples[label], self.slots[label])]

    def fail(self, label: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{label}: wrong output")


def loop(g, wl, items, rec: Recorder, seconds: float, min_items: int,
         deep_first: bool = False, after_item=None) -> None:
    """Cycle through the items until `seconds` have passed and at least
    `min_items` items have run, with the reference kernel before the first
    item and after every item; `after_item(k)` runs after the k-th item."""
    deadline = time.perf_counter() + seconds
    k = 0
    rec.measure_host()
    while k < min_items or time.perf_counter() < deadline:
        item = items[k % len(items)]
        before = len(rec.samples[wl.main])
        try:
            wl.run(g, item, rec.timed, rec.fail, deep=deep_first and k == 0)
        except OpFailed:
            pass
        if len(rec.samples[wl.main]) > before:
            rec.points.append(wl.points(item))
        rec.measure_host()
        k += 1
        if after_item is not None:
            after_item(k)


def setup(wl, seed: int):
    """Import, field construction, input generation and one warm-up op,
    SETUP_REPS times, each between two runs of the reference kernel;
    returns the last repetition's modules and inputs, and the wall time and
    rescaled time of each repetition."""
    times = []
    kernel = [hostspeed.measure()]
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        g = fresh_import()
        items = wl.make_inputs(g, seed)
        warm = Recorder(wl.labels)
        try:
            wl.run(g, wl.warmup_item(items), warm.timed, warm.fail, deep=False)
        except OpFailed:
            pass  # the timed loop meets the same input again and counts it
        times.append(time.perf_counter() - t0)
        kernel.append(hostspeed.measure())
    rescaled = [hostspeed.rescale(t, a, b) for t, a, b in zip(times, kernel, kernel[1:])]
    return g, items, times, rescaled


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def summary(values, unit: str, value=None) -> dict:
    """value (the median unless given), unit, sample count and min/median/max."""
    if not values:
        return {"value": value, "unit": unit, "n": 0}
    med = statistics.median(values)
    return {
        "value": med if value is None else value,
        "unit": unit,
        "n": len(values),
        "min": min(values),
        "median": med,
        "max": max(values),
    }


def p90(values):
    """The 90th percentile when at least ten samples lie beyond it, else None."""
    if len(values) < 100:
        return None
    return statistics.quantiles(values, n=10)[8]


def latency_metrics(prefix: str, secs: list[float]) -> dict:
    ms = [s * 1000.0 for s in secs]
    out = {f"{prefix}_ms_p50": summary(ms, "ms")}
    hi = p90(ms)
    if hi is not None:
        out[f"{prefix}_ms_p90"] = summary(ms, "ms", hi)
    return out


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name]
    g, items, setup_wall, setup_times = setup(wl, seed)
    t0 = time.perf_counter()
    wl.prepare(g, items)  # reference outputs: outside set-up and the timed loop
    reference_s = time.perf_counter() - t0

    if not trace:
        rec = Recorder(wl.labels)
        loop(g, wl, items, rec, seconds, min_items=wl.counted, deep_first=True)
        recorders = [rec]
    else:
        # the counted pass untraced, then traced from the same first input:
        # the traced counted pass gives the exact counts and, against the
        # untraced one, the tracing overhead
        t0 = time.perf_counter()
        base = Recorder(wl.labels)
        loop(g, wl, items, base, 0, min_items=wl.counted, deep_first=True)
        tracer = Tracer()
        rec = Recorder(wl.labels, tracer)
        counted = {}

        def close_counted_pass(k):
            if k == wl.counted:
                counted.update(ops=tracer.ops_done, counts=tracer.snapshot_counts(),
                               mults=mults.mults, main=len(rec.samples[wl.main]))

        tracer.install()
        try:
            with g.unipoly.count_scalar_mults() as mults:
                loop(g, wl, items, rec, seconds - (time.perf_counter() - t0),
                     min_items=wl.counted, after_item=close_counted_pass)
        finally:
            tracer.uninstall()
        recorders = [base, rec]

    # end-to-end figures come from untraced ops only
    untraced = recorders[0]
    main = untraced.samples[wl.main]
    main_ref = untraced.rescaled(wl.main)
    result = {
        "workload": name,
        "why": " ".join((wl.__doc__ or "").split()),
        "seed": seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": seconds,
        "trace": int(trace),
        "design": "closed loop, 1 client, 1 process, no threads",
        "waiting_metrics": "omitted: one thread, so no layer waits on another",
        "attempted": sum(r.attempted for r in recorders),
        "failed": sum(r.failed for r in recorders),
        "errors": [e for r in recorders for e in r.errors],
        "inputs": len(items),
        "inputs_sha256": hashlib.sha256(repr([wl.key(i) for i in items]).encode()).hexdigest(),
        "reference_s": reference_s,
    }
    # every timing twice: as wall time, and "ref", rescaled to the host's
    # reference speed by the kernel times around it
    m = {}
    for label in wl.labels:
        m.update(latency_metrics(label, untraced.samples[label]))
        m.update(latency_metrics(f"{label}_ref", untraced.rescaled(label)))
    for tag, secs in (("", main), ("_ref", main_ref)):
        if wl.main == "solve":
            m[f"solve{tag}_points_per_s"] = summary(
                [k / t for k, t in zip(untraced.points, secs)], "1/s",
                sum(untraced.points) / sum(secs),
            )
        else:
            m[f"decodes{tag}_per_s"] = summary([1 / t for t in secs], "1/s", len(secs) / sum(secs))
    m["setup_wall_s"] = summary(setup_wall, "s")
    m["setup_s"] = summary(setup_times, "s")
    kernel = untraced.kernel
    m["host_kernel_ms"] = summary([t * 1000.0 for t in kernel], "ms")
    m["host_speed"] = summary([], "ratio", hostspeed.REF_S / statistics.median(kernel))
    m["peak_rss_mb"] = summary([], "MB", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    m["fail_frac"] = summary([], "ratio", result["failed"] / max(result["attempted"], 1))
    result["metrics"] = m
    result["main_op_ms"] = [t * 1000.0 for t in main]  # every sample, in run order
    result["host_kernel_ms"] = [t * 1000.0 for t in kernel]  # before the first item, after each

    e2e = {
        "op_ref_ms_p50": statistics.median(main_ref) * 1000.0,
        "ref_points_per_s": sum(untraced.points) / sum(main_ref),
        "setup_s": m["setup_s"]["value"],
        "peak_rss_mb": m["peak_rss_mb"]["value"],
    }
    result["end_to_end"] = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}

    if trace:
        layers = analyse(tracer, counted["ops"], counted["counts"], counted["mults"])
        plain = statistics.median(main_ref)
        traced = statistics.median(rec.rescaled(wl.main)[:counted["main"]])
        lm = layers["metrics"]
        lm["trace.overhead_ms"] = (traced - plain) * 1000.0
        lm["trace.overhead_frac"] = traced / plain - 1.0
        units = dict(PER_LAYER)
        result["per_layer"] = {k: {"value": lm[k], "unit": units[k]} for k, _ in PER_LAYER}
        result["shares"] = layers["shares"]
        result["missing_layers"] = tracer.missing
        result["traced_main_ref_ms_p50"] = traced * 1000.0
        result["counted_ops"] = counted["ops"]
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"{name}-seed{seed}.spans.tsv.gz")
    result["env"] = environment()
    return result


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def report(r: dict) -> None:
    """Print the human-readable report and save the full record."""
    env = r["env"]
    print(f"== gsinterp benchmark: {r['workload']}  seed={r['seed']} "
          f"(default {r['default_seed']}, held-out {r['held_out_seed']})  "
          f"seconds={r['seconds']}  trace={r['trace']}")
    print(f"   why: {r['why']}")
    print(f"   {r['design']}; {r['waiting_metrics']}")
    print(f"   python {env['python']}  nproc {env['nproc']}  {env['platform']}  "
          f"commit {env['git_commit']}  src {env['src_sha256'][:12]}")
    print(f"   ops attempted {r['attempted']}, failed {r['failed']}; "
          f"{r['inputs']} inputs (sha256 {r['inputs_sha256'][:12]}); "
          f"reference outputs took {r['reference_s']:.3f} s")
    for err in r["errors"]:
        print("   error:", err.strip().splitlines()[-1])
    for k, s in r["metrics"].items():
        spread = (f"  n={s['n']} min={_fmt(s['min'])} median={_fmt(s['median'])} "
                  f"max={_fmt(s['max'])}" if s["n"] else "")
        print(f"   {k:24s} {_fmt(s['value']):>14s} {s['unit']:6s}{spread}")
    if r["trace"]:
        print(f"   end-to-end figures above are from the untraced counted pass; traced "
              f"main-op ref p50 {r['traced_main_ref_ms_p50']:.3f} ms over the traced counted pass "
              f"(the first {r['counted_ops']} traced ops)")
        if r["missing_layers"]:
            print("   not in this package (metrics read 0):", ", ".join(r["missing_layers"]))
        print(f"   {'layer':26s} {'calls':>9s} {'incl share':>11s} {'self share':>11s}")
        for k, s in sorted(r["shares"].items(), key=lambda kv: -kv[1]["incl_share"]):
            print(f"   {k:26s} {s['calls']:9d} {s['incl_share']:11.3f} {s['self_share']:11.3f}")
        for k, s in r["per_layer"].items():
            print(f"   {k:34s} {_fmt(s['value']):>14s} {s['unit']}")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{r['workload']}-seed{r['seed']}-trace{r['trace']}.json"
    path.write_text(json.dumps(r, indent=1) + "\n")


def contract_line(results: list[dict], trace: bool) -> dict:
    key = "per_layer" if trace else "end_to_end"
    if len(results) == 1:
        metrics = results[0][key]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in results for k, v in r[key].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "gsinterp" / "__init__.py").is_file():
        print(f"error: no gsinterp package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        fresh_import()
    except ImportError as e:
        print(f"error: cannot import gsinterp: {e}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        r = run_workload(name, args.seed, args.seconds, bool(args.trace))
        report(r)
        results.append(r)
    print(json.dumps(contract_line(results, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
