"""Golden output: a sha256 over the exact output of every solver, and one
over the decoder's lists.

For each instance it hashes q, the basis rows, the deltas and the pivot log
of classic naive, classic cached and the fast solver. Any refactor that
changes a single coefficient, delta or pivot choice changes the digest; a
deliberate change of output must re-record it and say why. The decode
digest hashes gs_params' choice and decode_list's list for seeded words.
"""

import hashlib
import random

from gsinterp import classic, fast
from gsinterp.decoder import RSCode, decode_list, gs_params
from gsinterp.field import PrimeField
from util import BENCH_PRIME, golden_instances, logged

GOLDEN_SHA256 = "a7ec0b410af4eff1718f795abe5a6230c61ca9022c2d1fc5ba9ee940c6eb619a"
GOLDEN_DECODE_SHA256 = "e8e49da9ff9c30b325a212eabf6e2dbd3b8c293e96300976b510a367b68ddb91"


def _rows(q):
    return tuple(tuple(r.coeffs) for r in q.rows)


def _canonical(inst):
    out = []
    for mode in ("naive", "cached"):
        (q, basis), log = logged(classic.interpolate, inst, mode)
        out.append((mode, _rows(q), tuple(map(_rows, basis.elems)), tuple(basis.deltas), tuple(log)))
    basis, log = logged(fast.solve_basis, inst)
    q, deltas = fast.solve(inst)
    out.append(("fast", _rows(q), tuple(map(_rows, basis.elems)), tuple(deltas), tuple(log)))
    return (inst.field.p, inst.points, inst.mults, inst.ell, inst.w, tuple(out))


def test_golden_digest():
    dump = repr([_canonical(inst) for inst in golden_instances()])
    assert hashlib.sha256(dump.encode()).hexdigest() == GOLDEN_SHA256


def _decode_cases():
    """(code, tau, word): per code and radius, two codewords with tau errors
    and one uniformly random word."""
    rng = random.Random(20261019)
    cases = []
    for p, n, k, taus in (
        (101, 12, 3, range(7)),
        (65521, 64, 16, range(25, 31)),
        (BENCH_PRIME, 32, 8, (12, 15, 16)),
    ):
        code = RSCode(PrimeField(p), n, k)
        for tau in taus:
            for _ in range(2):
                word = code.encode([rng.randrange(p) for _ in range(k)])
                for i in rng.sample(range(n), tau):
                    word[i] = (word[i] + rng.randrange(1, p)) % p
                cases.append((code, tau, word))
            cases.append((code, tau, [rng.randrange(p) for _ in range(n)]))
    return cases


def test_golden_decode_digest():
    dump = []
    for code, tau, word in _decode_cases():
        params = gs_params(code, tau)
        messages = decode_list(code, word, params)
        dump.append((code.field.p, code.n, code.k, tuple(params), word, messages))
    assert hashlib.sha256(repr(dump).encode()).hexdigest() == GOLDEN_DECODE_SHA256
