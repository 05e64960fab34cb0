import glob
import os

import pytest

from gsinterp.bipoly import BiPoly
from gsinterp.cli import (
    InstanceFileError,
    format_monomials,
    main,
    parse_instance_text,
    parse_monomials,
)
from gsinterp.field import PrimeField

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


def test_verify_bundled_instances(capsys):
    for path in INSTANCES:
        rc = main(["verify", path])
        out = capsys.readouterr().out
        assert rc == 0, f"{path}:\n{out}"
        assert "FAIL" not in out
        assert out.count("PASS") >= 8


def test_verify_exit_zero_iff_all_pass(capsys):
    rc = main(["verify", COLLINEAR])
    capsys.readouterr()
    assert rc == 0


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
        word[pos] = (word[pos] + field.rand_nonzero(rng)) % field.p
    rc = main([
        "decode", "--modulus", "754974721", "--n", "64", "--k", "16", "--tau", "27",
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


def test_bench_csv_format(capsys):
    rc = main(["bench", "--modulus", "101", "--s", "1", "--ell", "1",
               "--sizes", "4,8", "--seed", "5"])
    out = capsys.readouterr().out.strip().splitlines()
    assert rc == 0
    assert out[0] == "n,classic_ms,classic_hasse_ms,fast_ms"
    assert len(out) == 3
    assert out[1].startswith("4,") and out[2].startswith("8,")


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
