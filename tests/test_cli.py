import glob
import os
import random
import time

import pytest

from gsinterp.bipoly import BiPoly
from gsinterp import cli
from gsinterp.cli import (
    MAX_FILE_BYTES,
    InstanceFileError,
    build_parser,
    format_monomials,
    load_instance,
    main,
    parse_instance_text,
)
from gsinterp.field import PrimeField
from gsinterp.problem import WORK_BUDGET, check_work
from util import bundled_instances, parse_monomials, rand_nonzero, standard_basis

HERE = os.path.dirname(__file__)
INSTANCES = sorted(glob.glob(os.path.join(HERE, "..", "instances", "*.txt")))
COLLINEAR = os.path.join(HERE, "..", "instances", "00_collinear_gf3.txt")


def test_bundled_instances_present():
    assert len(INSTANCES) == 20


def test_parse_instance_text():
    p, w, ell, points = parse_instance_text(
        "# demo\np=13\nw=2\nell=3\n1,2\n3,4,2  # trailing comment\n"
    )
    assert (p, w, ell) == (13, 2, 3)
    assert points == [(1, 2, None), (3, 4, 2)]


def test_parse_errors_carry_line_numbers():
    with pytest.raises(InstanceFileError, match="line 2"):
        parse_instance_text("p=13\nnope=1\nell=3\n1,2\n")
    with pytest.raises(InstanceFileError, match="line 4"):
        parse_instance_text("p=13\nw=1\nell=3\n1,2,3,4\n")
    with pytest.raises(InstanceFileError, match="header"):
        parse_instance_text("p=13\nw=1\n")
    with pytest.raises(InstanceFileError, match="point"):
        parse_instance_text("p=13\nw=1\nell=2\n")


def _instance_text(rng, p, w, ell, points):
    """An instance file for the given data, with comments, blank lines and
    spacing drawn from rng."""
    def junk():
        return rng.choice(("", "", "  ", "# note", "  # x,y,s"))

    lines = [junk()]
    for key, value in (("p", p), ("w", w), ("ell", ell)):
        lines.append(f"{key}={value}" + rng.choice(("", " ", "  # header")))
        lines.append(junk())
    for x, y, s in points:
        sep = rng.choice((",", ", "))
        fields = [x, y] if s is None else [x, y, s]
        lines.append(rng.choice(("", " ")) + sep.join(map(str, fields)) + junk())
    return "\n".join(lines) + rng.choice(("", "\n"))


def test_parse_instance_text_fuzz_round_trip():
    rng = random.Random(61)
    for _ in range(200):
        p = rng.choice((2, 3, 13, 101, 65521, 754974721, 2**61 - 1))
        w, ell = rng.randint(1, 9), rng.randint(0, 6)
        points = [
            (rng.randrange(p), rng.randrange(p), rng.choice((None, rng.randint(1, 4))))
            for _ in range(rng.randint(1, 12))
        ]
        assert parse_instance_text(_instance_text(rng, p, w, ell, points)) == (p, w, ell, points)


def test_parse_instance_text_fuzz_malformed():
    # each case breaks one line of a valid file: a header with a wrong or
    # misspelt key, a point line of the wrong arity or with a non-integer, a
    # missing header, or no point lines at all
    rng = random.Random(62)
    for _ in range(200):
        p, w, ell = 101, rng.randint(1, 9), rng.randint(0, 6)
        lines = [f"p={p}", f"w={w}", f"ell={ell}"] + [
            f"{rng.randrange(p)},{rng.randrange(p)}" for _ in range(rng.randint(1, 6))
        ]
        kind = rng.choice(("key", "arity", "integer", "missing", "no_points"))
        if kind == "key":
            h = rng.randrange(3)
            key, value = lines[h].split("=")
            bad = rng.choice([k for k in ("q", "P", "p", "w", "ell", "p ", "") if k != key])
            lines[h] = f"{bad}={value}"
        elif kind == "arity":
            i = rng.randrange(3, len(lines))
            lines[i] = ",".join(str(rng.randrange(p)) for _ in range(rng.choice((1, 4, 5))))
        elif kind == "integer":
            i = rng.randrange(len(lines))
            head, sep, tail = lines[i].rpartition("," if i >= 3 else "=")
            lines[i] = head + sep + rng.choice(("x", "1.5", "", "0x1f", "--1"))
        elif kind == "missing":
            del lines[rng.randrange(3)]
        else:
            lines = lines[:3]
        with pytest.raises(ValueError):
            parse_instance_text("\n".join(lines) + "\n")


def test_interpolate_collinear(capsys):
    for algorithm in ("classic", "classic-hasse", "fast"):
        rc = main(["interpolate", "--algorithm", algorithm, COLLINEAR])
        out = capsys.readouterr().out
        assert rc == 0
        fields = dict(line.split(": ", 1) for line in out.strip().splitlines())
        assert fields["wdeg"] == "1"
        assert fields["algorithm"] == algorithm
        # scalar multiple of y + 2x over GF(3)
        q = parse_monomials(PrimeField(3), 1, fields["monomials"])
        ref = BiPoly.from_monomials(PrimeField(3), 1, [(0, 1, 1), (1, 0, 2)])
        from util import proportional

        assert proportional(q, ref)


def test_monomial_list_round_trips(capsys):
    rc = main(["interpolate", "--algorithm", "fast", COLLINEAR])
    out = capsys.readouterr().out
    assert rc == 0
    fields = dict(line.split(": ", 1) for line in out.strip().splitlines())
    q = parse_monomials(PrimeField(int(fields["p"])), int(fields["ell"]), fields["monomials"])
    assert format_monomials(q) == fields["monomials"]


def test_flag_overrides_file_header(capsys):
    # widen the weight; the solution of minimal weighted degree changes degree
    rc = main(["interpolate", "--w", "3", "--algorithm", "fast", COLLINEAR])
    out = capsys.readouterr().out
    assert rc == 0
    fields = dict(line.split(": ", 1) for line in out.strip().splitlines())
    assert fields["w"] == "3"


VERIFY_LINES = [
    "solvers-identical", "min-delta-vs-oracle", "q-wdeg-vs-oracle",
    "multiplicity", "positions", "colength",
    "multiplicity-oracle",
]


def _verify_fails(capsys, failing):
    """verify on the collinear instance exits 1 and fails exactly the
    lines named."""
    assert main(["verify", COLLINEAR]) == 1
    out = capsys.readouterr().out
    assert out.splitlines() == [
        f"{name}: {'FAIL' if name in failing else 'PASS'}" for name in VERIFY_LINES
    ]


def test_verify_bundled_instances(capsys):
    for path in INSTANCES:
        rc = main(["verify", path])
        out = capsys.readouterr().out
        assert rc == 0, f"{path}:\n{out}"
        assert out.splitlines() == [f"{name}: PASS" for name in VERIFY_LINES]


def test_verify_exit_zero_iff_all_pass(capsys):
    rc = main(["verify", COLLINEAR])
    assert capsys.readouterr().out.splitlines() == [f"{name}: PASS" for name in VERIFY_LINES]
    assert rc == 0


def test_verify_reports_an_element_that_does_not_vanish(capsys, monkeypatch):
    # the fast basis swapped for the starting basis {1, y}, which vanishes at
    # no point and is not minimal; the oracle's solution still vanishes
    def standard(inst):
        return standard_basis(inst.field, inst.ell, inst.w)

    monkeypatch.setattr("gsinterp.fast.solve_basis", standard)
    _verify_fails(capsys, {"solvers-identical", "min-delta-vs-oracle", "q-wdeg-vs-oracle",
                           "multiplicity", "colength"})


def test_verify_reports_two_swapped_elements(capsys, monkeypatch):
    # the fast basis with its first two elements and deltas swapped: the
    # same elements and deltas, so only the identity and position checks
    # can tell
    solve_basis = cli.fast.solve_basis

    def swapped(inst):
        basis = solve_basis(inst)
        basis.elems[:2], basis.deltas[:2] = basis.elems[1::-1], basis.deltas[1::-1]
        return basis

    monkeypatch.setattr("gsinterp.fast.solve_basis", swapped)
    _verify_fails(capsys, {"solvers-identical", "positions"})


def test_verify_reports_a_naive_basis_that_moved(capsys, monkeypatch):
    # the naive basis's element 0 times x, its delta raised by one: the fast
    # basis still passes its certificate, so only the identity check fails,
    # and it names the reference as the basis that moved
    interpolate = cli.classic.interpolate

    def times_x(inst, mode):
        q, basis = interpolate(inst, mode)
        if mode == "naive":
            basis.elems[0] = basis.elems[0].mul_linear(0)
            basis.deltas[0] += 1
        return q, basis

    monkeypatch.setattr("gsinterp.classic.interpolate", times_x)
    _verify_fails(capsys, {"solvers-identical"})


def test_verify_refuses_instance_too_large_for_oracle(tmp_path, capsys, monkeypatch):
    # verify weighs the instance as naive, then the oracle, which runs first,
    # weighs it as its own solve before its first column. 40 points of
    # multiplicity 3 (240 constraints) reach the columns; 400 points of
    # multiplicity 2 (1200 constraints) pass as naive but are refused as the
    # oracle at once, before any column is built or any solver runs
    def reached(what):
        def stop(*args, **kwargs):
            raise AssertionError(f"reached {what}")
        return stop

    monkeypatch.setattr("gsinterp.oracle._constraint_column", reached("the oracle's columns"))
    for target in ("gsinterp.classic.interpolate", "gsinterp.fast.solve_basis"):
        monkeypatch.setattr(target, reached("a solver"))
    rng = random.Random(16)

    def instance_file(n, s):
        xs = rng.sample(range(754974721), n)
        points = [f"{x},{rng.randrange(754974721)},{s}" for x in xs]
        lines = ["p=754974721", "w=2", "ell=3"] + points
        path = tmp_path / f"n{n}.txt"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    with pytest.raises(AssertionError, match="oracle's columns"):
        main(["verify", instance_file(40, 3)])
    large = instance_file(400, 2)
    check_work(400, 1200, 3, "naive")
    t0 = time.process_time()
    rc = main(["verify", large])
    elapsed = time.process_time() - t0
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: oracle solve estimated at") and BUDGET in captured.err
    assert "PASS" not in captured.out
    assert elapsed < 1.0
    # every bundled instance is within the oracle's budget
    for inst in bundled_instances():
        check_work(inst.n, inst.constraint_count(), inst.ell, "oracle")


BUDGET = f"budget of {WORK_BUDGET // 10**9} s"  # in every refusal by problem.check_work


@pytest.fixture
def no_solvers(monkeypatch):
    """Make every solver and the bench harness fail the test if reached, so
    a refusal is seen to come before any large allocation."""
    def reached(*args, **kwargs):
        raise AssertionError("an over-budget input reached a solver")

    for target in ("gsinterp.fast.solve", "gsinterp.fast.solve_basis",
                   "gsinterp.classic.interpolate", "gsinterp.oracle.minimal_solution",
                   "gsinterp.bench.run_bench"):
        monkeypatch.setattr(target, reached)


def _points_file(path, n, p=65521):
    """An instance file of n simple points at ell = 1; returns its path."""
    path.write_text(f"p={p}\nw=1\nell=1\n" + "".join(f"{x},0\n" for x in range(n)))
    return str(path)


@pytest.mark.parametrize("command", ["interpolate", "verify"])
def test_multiplicity_above_cap_refused(tmp_path, capsys, no_solvers, command):
    # interpolate weighs the work as fast, verify as naive; a multiplicity of
    # a thousand digits gets an answer too, not an OverflowError
    path = tmp_path / "big_s.txt"
    path.write_text(f"p=101\nw=1\nell=1\n1,2\n3,4,{10**999 + 7}\n")
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and BUDGET in err
    # the default multiplicity of --s is weighed alike
    path.write_text("p=101\nw=1\nell=1\n1,2\n")
    assert main([command, "--s", str(10**9), str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    # n = 256, s = 64, ell = 256, and below the budget the input goes on
    big = _points_file(tmp_path / "n256.txt", 256)
    assert main([command, "--s", "64", "--ell", "256", big]) == 2
    assert BUDGET in capsys.readouterr().err
    with pytest.raises(AssertionError, match="reached a solver"):
        main([command, "--s", "2", big])


@pytest.mark.parametrize("command", ["interpolate", "verify"])
def test_list_size_above_cap_refused(tmp_path, capsys, no_solvers, command):
    # one point with ell = 10^7: tiny C, but (ell + 1)^2 work on the basis
    path = tmp_path / "big_ell.txt"
    path.write_text(f"p=101\nw=1\nell={10**7}\n1,2\n")
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and BUDGET in err
    path.write_text("p=101\nw=1\nell=1\n1,2\n")
    assert main([command, "--ell", str(10**7), str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    with pytest.raises(AssertionError, match="reached a solver"):
        main([command, "--ell", "256", str(path)])


def test_bench_caps_refused(capsys, no_solvers):
    assert main(["bench", "--s", str(10**9), "--sizes", "4"]) == 2
    assert main(["bench", "--ell", str(10**7), "--sizes", "4"]) == 2
    assert capsys.readouterr().err.count(BUDGET) == 2
    with pytest.raises(AssertionError, match="reached a solver"):
        main(["bench", "--s", "8", "--ell", "16", "--sizes", "4"])


@pytest.mark.parametrize("sizes", ["-3", "0", "4,0", "8,100000", str(10**18)])
def test_bench_sizes_outside_cap_refused(capsys, monkeypatch, no_solvers, sizes):
    # a size below 1, or one whose naive solve is over the budget, is refused
    # before any instance is built
    def built(*args, **kwargs):
        raise AssertionError("a refused size reached random_instance")

    monkeypatch.setattr("gsinterp.bench.random_instance", built)
    assert main(["bench", "--sizes", sizes]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and ("below 1" in err or BUDGET in err)


def test_instance_file_above_cap_refused(tmp_path, capsys, monkeypatch, no_solvers):
    # a sparse file one byte over the cap: the parser must never see it
    def parsed(text):
        raise AssertionError("an over-cap file reached the parser")

    monkeypatch.setattr(cli, "parse_instance_text", parsed)
    path = tmp_path / "huge.txt"
    with open(path, "wb") as fh:
        fh.truncate(MAX_FILE_BYTES + 1)
    assert main(["interpolate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(MAX_FILE_BYTES) in err


@pytest.mark.parametrize("algorithm", ["classic", "classic-hasse"])
def test_classic_points_above_cap_refused(tmp_path, capsys, no_solvers, algorithm):
    # the classic solvers' work grows with the square of the constraint
    # count: 30000 simple points are over the budget for them and go on to
    # fast; 4096 go on to them
    path = _points_file(tmp_path / "many.txt", 30000)
    assert main(["interpolate", "--algorithm", algorithm, path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and BUDGET in err
    with pytest.raises(AssertionError, match="reached a solver"):
        main(["interpolate", "--algorithm", "fast", path])
    path = _points_file(tmp_path / "many.txt", 4096)
    with pytest.raises(AssertionError, match="reached a solver"):
        main(["interpolate", "--algorithm", algorithm, path])


def test_fast_points_above_cap_refused(tmp_path, capsys, no_solvers):
    # fast's work grows as C^1.5: 120000 simple points are over the budget,
    # 16384 go on to it
    path = _points_file(tmp_path / "many.txt", 120000, p=754974721)
    assert main(["interpolate", "--algorithm", "fast", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and BUDGET in err
    path = _points_file(tmp_path / "many.txt", 16384, p=754974721)
    with pytest.raises(AssertionError, match="reached a solver"):
        main(["interpolate", "--algorithm", "fast", path])


def _decode_args(n, k, tau, word=None):
    word = ["1"] * n if word is None else word
    return ["decode", "--modulus", "754974721", "--n", str(n), "--k", str(k), "--tau", str(tau),
            "--received", ",".join(map(str, word))]


def _gs_params(n, k, tau):
    from gsinterp.decoder import RSCode, gs_params

    return gs_params(RSCode(PrimeField(754974721), n, k), tau)


def test_decode_length_above_cap_refused(capsys, monkeypatch):
    # decode weighs the decoder's interpolation of n - kappa points as fast
    # once gs_params has picked s and ell, before the code's schedule is
    # built: RS [255, 64] at tau = 127 (s = 26, ell = 51) is refused,
    # RS [1024, 256] at tau = 497 goes on to it. RS [16384, 4096] at
    # tau = 7952 first passes the counting bound at s = 8, but the rule
    # refuses its decode from s = 4 on, which ends the search: exit 3
    def built(*args, **kwargs):
        raise AssertionError("an over-budget code reached fast.Schedule")

    monkeypatch.setattr("gsinterp.fast.Schedule", built)
    assert main(_decode_args(255, 64, 127)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and BUDGET in err
    assert main(_decode_args(16384, 4096, 7952)) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "infeasible" in err and BUDGET in err
    with pytest.raises(AssertionError, match="reached fast.Schedule"):
        main(_decode_args(1024, 256, 497))


@pytest.mark.parametrize("tau, admitted", [
    (120, (4, 7)), (124, (8, 15)), (125, (10, 19)), (126, (14, 28)),
    (127, 2), (128, 3), (129, 3), (140, 3), (254, 3),
])
def test_decode_refusal_map_rs_255_64(capsys, monkeypatch, tau, admitted):
    # the radius n - sqrt(n(k - 1)) is 128.2; gs_params' s and ell reach the
    # schedule through tau = 126. At tau = 127 a pair exists (s = 26,
    # ell = 51) but is over the work budget: exit 2. From tau = 128 no s
    # passes below s = 31, the first the rule refuses even at ell = 1: exit 3
    def built(*args, **kwargs):
        raise AssertionError("reached fast.Schedule")

    monkeypatch.setattr("gsinterp.fast.Schedule", built)
    if isinstance(admitted, tuple):
        with pytest.raises(AssertionError, match="reached fast.Schedule"):
            main(_decode_args(255, 64, tau))
        assert _gs_params(255, 64, tau)[:2] == admitted
    else:
        assert main(_decode_args(255, 64, tau)) == admitted
        err = capsys.readouterr().err
        assert err.startswith("error:") and BUDGET in err


def test_decode_past_the_grid_exits_zero(capsys):
    # RS [30, 25] over GF(101) at tau = 3 needs s = 9, past the 8 x 32 grid
    # gs_params once searched, which made it exit 3
    from gsinterp.decoder import RSCode

    field = PrimeField(101)
    rng = random.Random(3)
    msg = [field.rand(rng) for _ in range(25)]
    word = RSCode(field, 30, 25).encode(msg)
    for pos in rng.sample(range(30), 3):
        word[pos] = (word[pos] + rand_nonzero(field, rng)) % field.p
    rc = main(["decode", "--modulus", "101", "--n", "30", "--k", "25", "--tau", "3",
               "--received", ",".join(map(str, word))])
    out = capsys.readouterr().out
    assert rc == 0
    assert "params: s=9 ell=10 tau=3" in out
    assert "message: " + ",".join(map(str, msg)) in out


def test_decode_word_of_wrong_length_refused(capsys, monkeypatch):
    # the length is checked before the code, whose size grows with n, is built
    def built(*args, **kwargs):
        raise AssertionError("a word of the wrong length reached RSCode")

    monkeypatch.setattr(cli, "RSCode", built)
    rc = main(["decode", "--modulus", "13", "--n", "1000000000", "--k", "3", "--tau", "1",
               "--received", "1,2"])
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("error:") and "1000000000" in err


def test_input_caps_admit_bundled_instances_and_decoder_search():
    # the largest s and ell gs_params picks for RS [255, 64] in the budget,
    # at tau = 126, are admitted on the 255 - 64 points decode_list solves
    assert _gs_params(255, 64, 126)[:2] == (14, 28)
    check_work(191, 191 * 14 * 15 // 2, 28, "fast")
    for path, inst in zip(INSTANCES, bundled_instances()):
        assert os.path.getsize(path) <= MAX_FILE_BYTES
        for solver in ("naive", "cached", "fast"):
            check_work(inst.n, inst.constraint_count(), inst.ell, solver)


def test_interpolate_over_mersenne_61(capsys):
    # p = 2^61 - 1: the prime check must not stall, and the answer must reach
    # the oracle's minimal weighted degree with every multiplicity met
    from gsinterp.oracle import minimal_solution

    path = os.path.join(HERE, "..", "instances", "07_random_02.txt")
    flags = ["--modulus", "2305843009213693951", "--s", "2"]
    inst = load_instance(path, build_parser().parse_args(["verify", *flags, path]), "naive")
    _, mindeg = minimal_solution(inst)
    for algorithm in ("classic", "classic-hasse", "fast"):
        rc = main(["interpolate", "--algorithm", algorithm, *flags, path])
        out = capsys.readouterr().out
        assert rc == 0
        fields = dict(line.split(": ", 1) for line in out.strip().splitlines())
        assert int(fields["wdeg"]) == mindeg
        q = parse_monomials(inst.field, inst.ell, fields["monomials"])
        assert all(q.has_multiplicity(x, y, s) for (x, y), s in zip(inst.points, inst.mults))
    assert main(["verify", *flags, path]) == 0
    assert "FAIL" not in capsys.readouterr().out
    # past word size the modulus is refused as a usage error
    assert main(["interpolate", "--modulus", str(2**64 + 13), path]) == 2
    assert "2^64" in capsys.readouterr().err


def test_decode_roundtrip(capsys):
    # [12,3] over GF(13), tau=4 (unique radius): derived params decode exactly
    from gsinterp.decoder import RSCode

    code = RSCode(PrimeField(13), 12, 3)
    word = code.encode([1, 2, 3])
    word[0] = (word[0] + 5) % 13
    word[4] = (word[4] + 1) % 13
    rc = main([
        "decode", "--modulus", "13", "--n", "12", "--k", "3", "--tau", "4",
        "--received", ",".join(str(v) for v in word),
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "message: 1,2,3" in out


def test_decode_over_bench_prime(capsys):
    # [64,16] over the 30-bit prime, 27 errors: past half the distance
    import random

    from gsinterp.decoder import RSCode

    field = PrimeField(754974721)
    rng = random.Random(27)
    code = RSCode(field, 64, 16)
    msg = [field.rand(rng) for _ in range(16)]
    word = code.encode(msg)
    for pos in rng.sample(range(64), 27):
        word[pos] = (word[pos] + rand_nonzero(field, rng)) % field.p
    rc = main([
        "decode", "--modulus", "754974721", "--n", "64", "--k", "16", "--tau", "27",
        "--received", ",".join(str(v) for v in word),
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "message: " + ",".join(str(v) for v in msg) in out


def test_decode_long_message(capsys):
    # [1100,1000] over the 30-bit prime, 10 errors: one root-extraction level
    # per message coefficient
    import random

    from gsinterp.decoder import RSCode

    field = PrimeField(754974721)
    rng = random.Random(1100)
    code = RSCode(field, 1100, 1000)
    msg = [field.rand(rng) for _ in range(1000)]
    word = code.encode(msg)
    for pos in rng.sample(range(1100), 10):
        word[pos] = (word[pos] + rand_nonzero(field, rng)) % field.p
    rc = main([
        "decode", "--modulus", "754974721", "--n", "1100", "--k", "1000", "--tau", "10",
        "--received", ",".join(str(v) for v in word),
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "message: " + ",".join(str(v) for v in msg) in out


def test_decode_empty_list_exit_code(capsys):
    # received word far from every codeword: found in test_decoder; here a
    # quick fixed one (checked against the exhaustive table when generated)
    import itertools

    from gsinterp.decoder import RSCode, hamming

    code = RSCode(PrimeField(13), 12, 3)
    recv = None
    import random

    rng = random.Random(11)
    words = [code.encode(list(m)) for m in itertools.product(range(13), repeat=3)]
    while recv is None:
        cand = [rng.randrange(13) for _ in range(12)]
        if all(hamming(w, cand) > 4 for w in words):
            recv = cand
    rc = main([
        "decode", "--modulus", "13", "--n", "12", "--k", "3", "--tau", "4",
        "--received", ",".join(str(v) for v in recv),
    ])
    capsys.readouterr()
    assert rc == 4


def test_decode_infeasible_exit_code(capsys):
    rc = main([
        "decode", "--modulus", "13", "--n", "12", "--k", "3", "--tau", "11",
        "--received", ",".join(["0"] * 12),
    ])
    err = capsys.readouterr().err
    assert rc == 3
    assert "infeasible" in err


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("p=6\nw=1\nell=1\n0,0\n")  # 6 is not prime
    rc = main(["interpolate", str(bad)])
    assert rc == 2
    bad.write_text("w=1\np=5\nell=1\n0,0\n")  # headers out of order
    rc = main(["interpolate", str(bad)])
    assert rc == 2
    rc = main(["interpolate", str(tmp_path / "missing.txt")])
    assert rc == 2
    capsys.readouterr()


def test_unreadable_instance_path_exit_code(tmp_path, capsys):
    rc = main(["interpolate", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_bench_csv_format(capsys):
    rc = main(["bench", "--modulus", "101", "--s", "1", "--ell", "1",
               "--sizes", "4,8", "--seed", "5"])
    out = capsys.readouterr().out.strip().splitlines()
    assert rc == 0
    assert out[0] == "n,classic_ms,classic_hasse_ms,fast_ms"
    assert len(out) == 3
    assert out[1].startswith("4,") and out[2].startswith("8,")


@pytest.mark.parametrize("p", [2**64 - 59, 9223372036854775837])
def test_bench_above_sys_maxsize(capsys, p):
    rc = main(["bench", "--modulus", str(p), "--sizes", "4", "--s", "1", "--ell", "1"])
    out = capsys.readouterr().out.strip().splitlines()
    assert rc == 0
    assert out[0] == "n,classic_ms,classic_hasse_ms,fast_ms" and out[1].startswith("4,")


def test_bench_seed_determinism(monkeypatch):
    # identical seeds must generate identical instances (timings aside)
    import gsinterp.bench as bench_mod

    captured = []
    orig = bench_mod.random_instance

    def capture(*args, **kwargs):
        inst = orig(*args, **kwargs)
        captured.append((inst.points, inst.mults))
        return inst

    monkeypatch.setattr(bench_mod, "random_instance", capture)
    bench_mod.run_bench(101, 1, 1, [4, 8], seed=9, runs=1)
    first = list(captured)
    captured.clear()
    bench_mod.run_bench(101, 1, 1, [4, 8], seed=9, runs=1)
    assert captured == first
