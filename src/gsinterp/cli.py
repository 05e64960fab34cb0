"""Command-line front end.

Subcommands: interpolate (run one algorithm on an instance file), verify
(the three solvers' one basis against the brute-force reference and
classic.certify), decode (Reed-Solomon list decoding), bench (CSV timing
table).

Exit codes: 0 success, 2 usage or parse error, 3 infeasible decode
parameters, 4 empty decode list.

Before any solver runs, any bench instance is drawn or any schedule is
built, every command weighs the work its input asks for with
problem.check_work, which refuses with exit 2 a solve estimated to take
longer than problem.WORK_BUDGET, three minutes on the host the estimate was
fitted on: interpolate as the solver --algorithm names (classic is naive,
classic-hasse cached), verify as naive, then as the oracle, which it runs
first and which checks before its first column, bench's --sizes each as
naive, the slowest, and decode as fast once gs_params has picked s and ell
(decoder.decode_list); the same rule ends gs_params' search, with exit 3.
One cap stays beside it: an instance file over MAX_FILE_BYTES bytes is
refused before it is parsed, and bench refuses a size below 1.

Instance file grammar: '#' starts a comment; the first three non-comment
lines are 'p=<int>', 'w=<int>', 'ell=<int>'; every following line is a
point 'x,y' or 'x,y,s'.
"""

from __future__ import annotations

import argparse
import sys

from . import bench, classic, fast, oracle
from .bipoly import BiPoly
from .decoder import InfeasibleParameters, RSCode, decode_list, gs_params
from .field import PrimeField
from .problem import InterpolationInstance, check_work


MAX_FILE_BYTES = 1 << 24


class InstanceFileError(ValueError):
    pass


def parse_instance_text(text: str):
    """-> (p, w, ell, [(x, y, s-or-None)]); raises with line numbers."""
    headers = {}
    order = ["p", "w", "ell"]
    points = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if len(headers) < 3:
            key = order[len(headers)]
            if not line.startswith(key + "="):
                raise InstanceFileError(f"line {lineno}: expected '{key}=<int>', got {line!r}")
            try:
                headers[key] = int(line[len(key) + 1 :])
            except ValueError:
                raise InstanceFileError(f"line {lineno}: bad integer in {line!r}") from None
            continue
        parts = line.split(",")
        if len(parts) not in (2, 3):
            raise InstanceFileError(f"line {lineno}: expected 'x,y' or 'x,y,s', got {line!r}")
        try:
            nums = [int(v) for v in parts]
        except ValueError:
            raise InstanceFileError(f"line {lineno}: bad integer in {line!r}") from None
        points.append((nums[0], nums[1], nums[2] if len(nums) == 3 else None))
    if len(headers) < 3:
        raise InstanceFileError("file ends before the p=, w=, ell= header lines")
    if not points:
        raise InstanceFileError("file has no point lines")
    return headers["p"], headers["w"], headers["ell"], points


def load_instance(path: str, args, solver: str) -> InterpolationInstance:
    """The instance in the file, with the flags' overrides, once check_work
    admits it for the solver."""
    with open(path, "rb") as fh:
        raw = fh.read(MAX_FILE_BYTES + 1)
    if len(raw) > MAX_FILE_BYTES:
        raise InstanceFileError(f"{path}: instance file exceeds the cap of {MAX_FILE_BYTES} bytes")
    p, w, ell, points = parse_instance_text(raw.decode("utf-8"))
    # flags, when present, override the file header
    if args.modulus is not None:
        p = args.modulus
    if args.w is not None:
        w = args.w
    if args.ell is not None:
        ell = args.ell
    mults = [s if s is not None else args.s for _, _, s in points]
    inst = InterpolationInstance(PrimeField(p), [(x, y) for x, y, _ in points], mults, ell, w)
    check_work(inst.n, inst.constraint_count(), ell, solver)
    return inst


def format_monomials(q: BiPoly) -> str:
    return ";".join(f"{a},{j},{c}" for a, j, c in q.monomials())


def format_rows(q: BiPoly) -> str:
    parts = []
    for j, row in enumerate(q.rows):
        if row.coeffs:
            parts.append(f"{j}:" + ",".join(str(c) for c in row.coeffs))
    return "|".join(parts)


def _print_solution(inst: InterpolationInstance, algorithm: str, q: BiPoly, deltas) -> None:
    print(f"p: {inst.field.p}")
    print(f"w: {inst.w}")
    print(f"ell: {inst.ell}")
    print(f"algorithm: {algorithm}")
    print(f"q: {q.pretty()}")
    print(f"rows: {format_rows(q)}")
    print(f"monomials: {format_monomials(q)}")
    print(f"wdeg: {q.weighted_degree(inst.w)}")
    print("deltas: " + ",".join(str(d) for d in deltas))


def cmd_interpolate(args) -> int:
    solver = {"classic": "naive", "classic-hasse": "cached"}.get(args.algorithm, "fast")
    inst = load_instance(args.file, args, solver)
    if solver == "fast":
        q, deltas = fast.solve(inst)
    else:
        q, basis = classic.interpolate(inst, solver)
        deltas = basis.deltas
    _print_solution(inst, args.algorithm, q, deltas)
    return 0


def cmd_verify(args) -> int:
    inst = load_instance(args.file, args, "naive")
    # first, so that the oracle's check_work refusal comes before any solver runs
    q_oracle, mindeg = oracle.minimal_solution(inst)
    bases = [classic.interpolate(inst, mode)[1] for mode in ("naive", "cached")]
    basis = fast.solve_basis(inst)
    failed = classic.certify(inst, basis)
    checks = [
        ("solvers-identical",
         all(b.elems == basis.elems and b.deltas == basis.deltas for b in bases)),
        ("min-delta-vs-oracle", min(basis.deltas) == mindeg),
        ("q-wdeg-vs-oracle", basis.minimal().weighted_degree(inst.w) == mindeg),
        *((c, c not in failed) for c in classic.CONDITIONS),
        ("multiplicity-oracle", classic.multiplicity_holds(inst, [q_oracle])),
    ]
    ok = True
    for name, passed in checks:
        print(f"{name}: {'PASS' if passed else 'FAIL'}")
        ok = ok and passed
    return 0 if ok else 1


def cmd_decode(args) -> int:
    field = PrimeField(args.modulus)
    received = [int(v) for v in args.received.split(",")]
    if len(received) != args.n:
        raise ValueError(f"--received has {len(received)} symbols, not --n {args.n}")
    code = RSCode(field, args.n, args.k)
    params = gs_params(code, args.tau)
    messages = decode_list(code, received, params)
    print(f"params: s={params.s} ell={params.ell} tau={params.tau}")
    for msg in messages:
        print("message: " + ",".join(str(c) for c in msg))
    return 0 if messages else 4


def cmd_bench(args) -> int:
    sizes = [int(v) for v in args.sizes.split(",")]
    if min(sizes) < 1:
        raise ValueError(f"--sizes {args.sizes} has a size below 1")
    for n in sizes:
        check_work(n, n * args.s * (args.s + 1) // 2, args.ell, "naive")
    rows = bench.run_bench(args.modulus, args.s, args.ell, sizes, seed=args.seed)
    print(bench.format_csv(rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="gsinterp")
    sub = ap.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--modulus", type=int, default=None, help="override the file's p=")
    common.add_argument("--w", type=int, default=None, help="override the file's w=")
    common.add_argument("--ell", type=int, default=None, help="override the file's ell=")
    common.add_argument("--s", type=int, default=1, help="default multiplicity for points without one")

    p_int = sub.add_parser("interpolate", parents=[common])
    p_int.add_argument("--algorithm", choices=("classic", "classic-hasse", "fast"), default="fast")
    p_int.add_argument("file")
    p_int.set_defaults(fn=cmd_interpolate)

    p_ver = sub.add_parser("verify", parents=[common])
    p_ver.add_argument("file")
    p_ver.set_defaults(fn=cmd_verify)

    p_dec = sub.add_parser("decode")
    p_dec.add_argument("--modulus", type=int, required=True)
    p_dec.add_argument("--n", type=int, required=True)
    p_dec.add_argument("--k", type=int, required=True)
    p_dec.add_argument("--tau", type=int, required=True)
    p_dec.add_argument("--received", required=True, help="comma-separated residues")
    p_dec.set_defaults(fn=cmd_decode)

    p_ben = sub.add_parser("bench")
    p_ben.add_argument("--modulus", type=int, default=bench.BENCH_PRIME)
    p_ben.add_argument("--s", type=int, default=2)
    p_ben.add_argument("--ell", type=int, default=2)
    p_ben.add_argument("--sizes", default="64,128,256,512")
    p_ben.add_argument("--seed", type=int, default=0)
    p_ben.set_defaults(fn=cmd_bench)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, InfeasibleParameters) else 2


if __name__ == "__main__":
    sys.exit(main())
