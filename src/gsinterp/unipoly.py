"""Dense univariate polynomials over GF(p).

Coefficients are stored low-to-high as plain ints with no trailing zeros;
the zero polynomial has an empty coefficient list and degree NEG_INF.

Every product is one Kronecker substitution, `_mul_kron` (coefficients
packed into one big integer so CPython's C-level integer multiply does the
convolution), whatever the operands' lengths. Every remainder goes through
a PackedModulus, which packs its modulus once: synthetic division on the
packed dividend for short quotients, Newton division by the packed reversed
series inverse for long ones. The modulus tree in fast.py keeps one per
node, decoder._pow_mod makes one per power and reduces each square while it
is still packed, and decoder's gcd and root splitting make one per
division. Every kernel works on plain coefficient lists: UniPoly wraps them
as a value type, and the solvers call the kernels directly, reporting their
work to the same counter, which also takes the solvers' pivot rounds when
asked (count_scalar_mults).
"""

from __future__ import annotations

import sys
from array import array
from contextlib import contextmanager
from math import comb

from .field import PrimeField

NEG_INF = float("-inf")


class ScalarMultCounter:
    """Tallies the per-coefficient work of the executed kernels: per point and
    entry, sum over k < s of (len - k) for the Taylor coefficients of
    bipoly.hasse_matrices (its lane reads, by _lanes, are not counted); per
    row operation and per pivot shift of classic.eliminate_run, the lanes
    of its reduced pivot row, and per pivot the lanes read off it;
    unpacked result slots for every product (_mul_kron) and every _unpack,
    the elimination step's row reductions included; quotient slots read
    plus remainder slots unpacked for either division by a PackedModulus,
    plus the dividend's top slots that Newton division reads off a packed
    sum (PackedModulus.newton_packed). The modulus tree's leaf powers
    (x - x_i)^s (fast._subproduct) are not counted, and neither is any work
    of the independent references: classic naive, the oracle and the direct
    Hasse derivatives count nothing.

    pivots, when asked for, logs each round of classic naive's loop and of
    classic.eliminate_run (so of all three solvers) that found a pivot, as
    (point_index, dx, dy, pivot_index); it is None otherwise, so that a
    counter held open over many solves stays small."""

    __slots__ = ("mults", "pivots")

    def __init__(self, pivots: bool):
        self.mults = 0
        self.pivots: list[tuple[int, int, int, int]] | None = [] if pivots else None


_COUNTER: ScalarMultCounter | None = None


@contextmanager
def count_scalar_mults(pivots: bool = False):
    """A fresh ScalarMultCounter for the work done inside the block; a nested
    block counts on its own, and the outer counter resumes after it."""
    global _COUNTER
    prev = _COUNTER
    _COUNTER = counter = ScalarMultCounter(pivots)
    try:
        yield counter
    finally:
        _COUNTER = prev


# ---------------------------------------------------------------------------
# raw-list kernels
# ---------------------------------------------------------------------------


def _trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _add_raw(a: list[int], b: list[int], p: int) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, v in enumerate(b):
        out[i] = (out[i] + v) % p
    return out


def _slot_width(terms: int, p: int) -> int:
    """Bytes per slot of every packed integer, lanes too: a sum of `terms` products, at least 8."""
    return max(8, ((terms * (p - 1) * (p - 1)).bit_length() + 7) >> 3)


def _words(raw: bytes | bytearray) -> array:
    """Little-endian bytes as an array of unsigned 64-bit words."""
    words = array("Q", raw)
    if sys.byteorder != "little":
        words.byteswap()
    return words


def _pack(a: list[int], width: int) -> int:
    """Coefficients as one integer, one slot of width >= 8 bytes each, low slot
    first, through a word array (residues are below 2^64): the packed integer
    itself at width 8 (strided copies there too took 1.20x on interp_small),
    spread by strided byte copies otherwise."""
    words = array("Q", a)
    if sys.byteorder != "little":
        words.byteswap()
    if width == 8:
        return int.from_bytes(words, "little")
    raw = words.tobytes()
    buf = bytearray(width * len(a))
    for j in range(8):  # a residue fits a word; the slot's other bytes stay 0
        buf[j::width] = raw[j::8]
    return int.from_bytes(buf, "little")


def _lanes(packed: int, nterms: int, width: int, p: int) -> list[int]:
    """The first nterms slots of a packed integer mod p, untrimmed and uncounted:
    8-byte slots as one word array, 9 to 16 bytes split into low and high word
    arrays by strided copies (one by one took 1.07x on interp_large), wider
    ones one by one."""
    raw = packed.to_bytes(width * nterms, "little")
    if width == 8:
        return [v % p for v in _words(raw)]
    if width > 16:
        mv = memoryview(raw)
        from_bytes = int.from_bytes
        return [from_bytes(mv[i : i + width], "little") % p for i in range(0, len(raw), width)]
    lo = bytearray(8 * nterms)
    for j in range(8):
        lo[j::8] = raw[j::width]
    hi = bytearray(8 * nterms)
    for j in range(8, width):
        hi[j - 8 :: 8] = raw[j::width]
    return [(h << 64 | v) % p for v, h in zip(_words(lo), _words(hi))]


def _unpack(packed: int, nterms: int, width: int, p: int) -> list[int]:
    """The first nterms slots of a packed convolution (see _lanes), trimmed."""
    if _COUNTER is not None:
        _COUNTER.mults += nterms
    return _trim(_lanes(packed, nterms, width, p))


def _mul_kron(a: list[int], b: list[int], p: int, nterms: int | None = None) -> list[int]:
    """a * b, or its low nterms coefficients when nterms is given, [] for an
    empty operand: each coefficient gets a slot wide enough for the largest
    column sum, the two packed integers are multiplied once, and the slots
    are read back out."""
    if not a or not b:
        return []
    width = _slot_width(min(len(a), len(b)), p)
    prod = _pack(a, width) * _pack(b, width)
    full = len(a) + len(b) - 1
    if nterms is None or nterms >= full:
        return _unpack(prod, full, width, p)
    return _unpack(prod & ((1 << (8 * width * nterms)) - 1), nterms, width, p)


def _series_inv(f: list[int], n: int, field: PrimeField) -> list[int]:
    """Inverse of f mod x^n by Newton iteration; requires f[0] != 0."""
    p = field.p
    g = [field.inv(f[0])]
    prec = 1
    while prec < n:
        prec = min(2 * prec, n)
        fg = _mul_kron(f[:prec], g, p, prec)
        # g <- g*(2 - f*g) mod x^prec
        two_minus = [(-v) % p for v in fg] + [0] * (prec - len(fg))
        two_minus[0] = (two_minus[0] + 2) % p
        g = _mul_kron(g, _trim(two_minus), p, prec)
    return _trim(g)


class PackedModulus:
    """A nonzero modulus m packed once for every remainder by it: -m mod x^dm
    packed per slot width asked for, the inverse of its leading coefficient,
    and, from the first long quotient on, J, the inverse of reversed m mod
    x^prec, reversed over prec slots and packed. Short quotients go by
    synthetic division on one packed dividend (synthetic), long ones by
    Newton division (newton on a list, newton_packed on a packed dividend
    whose slots need not be reduced); either counts qlen + dm, its quotient
    slots read plus its remainder slots unpacked, and newton_packed also
    the qlen slots it reads off the dividend. fast._ModNode keeps one per
    node, so the modulus tree packs each modulus once."""

    __slots__ = ("m", "field", "dm", "lead_inv", "_neg", "_prec", "_width", "_J")

    def __init__(self, m: list[int], field: PrimeField):
        self.m = m
        self.field = field
        self.dm = len(m) - 1
        self.lead_inv = field.inv(m[-1])
        self._neg: dict[int, int] = {}  # by width: -m mod x^dm, packed
        self._prec = 0  # J's precision, 0 until a long quotient needs it
        self._width = 0  # J's slot width
        self._J = 0

    def neg(self, width: int) -> int:
        """-m mod x^dm packed at the width, packed once per width."""
        neg = self._neg.get(width)
        if neg is None:
            p = self.field.p
            neg = self._neg[width] = _pack([-v % p for v in self.m[:-1]], width)
        return neg

    def synthetic(self, acc: int, nterms: int, width: int) -> tuple[list[int], list[int]]:
        """Quotient and remainder by m of the packed dividend acc of nterms
        slots, by synthetic long division: each quotient coefficient is read
        off the top slot and one shifted multiple of -m is added, so the
        per-coefficient work runs in the big-integer kernels. The slots of
        acc need not be reduced, but the width must hold one of them plus
        min(qlen, dm) products (p - 1)^2: no slot is reduced until the
        remainder is unpacked, and a dividend shorter than m is unpacked."""
        dm, p = self.dm, self.field.p
        qlen = nterms - dm
        if qlen <= 0:
            return [], _unpack(acc, nterms, width, p)
        lead_inv, neg_m = self.lead_inv, self.neg(width)
        bits = 8 * width
        slot = (1 << bits) - 1
        q = [0] * qlen
        for i in range(qlen - 1, -1, -1):
            c = ((acc >> (bits * (i + dm))) & slot) % p * lead_inv % p
            if c:
                q[i] = c
                acc += (c * neg_m) << (bits * i)
        if _COUNTER is not None:
            _COUNTER.mults += qlen
        return _trim(q), _unpack(acc & ((1 << (bits * dm)) - 1), dm, width, p)

    def divmod(self, a: list[int]) -> tuple[list[int], list[int]]:
        """Quotient and remainder of a by m by synthetic division, a packed
        at the narrowest width it needs; a shorter than m is its own
        remainder."""
        qlen = len(a) - self.dm
        if qlen <= 0:
            return [], a
        width = _slot_width(min(qlen, self.dm) + 1, self.field.p)
        return self.synthetic(_pack(a, width), len(a), width)

    def newton(self, a: list[int]) -> tuple[list[int], list[int]]:
        """Quotient and remainder of a by m, len(a) > dm, by Newton division,
        a packed once at J's width (see _newton)."""
        qlen = len(a) - self.dm
        width = self._inverse(qlen)
        acc = _pack(a, width)
        return self._newton(acc, acc >> (8 * width * self.dm), qlen, width)

    def newton_packed(self, acc: int, nterms: int, width: int) -> tuple[list[int], list[int]]:
        """Quotient and remainder by m, nterms > dm, of the packed dividend acc
        of nterms slots, which need not be reduced, by Newton division: its
        top qlen slots are read mod p and repacked at J's width, and the
        remainder is formed at the dividend's width, which must hold one of
        its slots plus min(qlen, dm) products (p - 1)^2."""
        dm, p = self.dm, self.field.p
        qlen = nterms - dm
        top = _lanes(acc >> (8 * width * dm), qlen, width, p)
        if _COUNTER is not None:
            _COUNTER.mults += qlen
        return self._newton(acc, _pack(top, self._inverse(qlen)), qlen, width)

    def _inverse(self, qlen: int) -> int:
        """J's slot width, J first rebuilt at precision max(qlen, dm + 1)
        when a quotient of qlen outgrows it, at the width of a sum of
        prec + 1 products, which serves every quotient up to prec long."""
        if self._prec < qlen:
            self._prec = prec = max(qlen, self.dm + 1)
            self._width = _slot_width(prec + 1, self.field.p)
            inv = _series_inv(self.m[::-1], prec, self.field)
            self._J = _pack((inv + [0] * (prec - len(inv)))[::-1], self._width)
        return self._width

    def _newton(self, acc: int, top: int, qlen: int, width: int) -> tuple[list[int], list[int]]:
        """Newton division with no reversed lists: with top = a div x^dm, its
        slots reduced and at J's width, q is slots qlen - 1 ... 2 qlen - 2 of
        top * (J div x^(prec - qlen)), whose slots sum at most qlen products,
        and r = (a mod x^dm) + (q mod x^dm) * (-m mod x^dm) mod x^dm, formed
        at the width of acc, which packs a."""
        dm, p = self.dm, self.field.p
        jbits = 8 * self._width
        prod = top * (self._J >> (jbits * (self._prec - qlen)))
        q = _lanes(prod >> (jbits * (qlen - 1)), qlen, self._width, p)
        if _COUNTER is not None:
            _COUNTER.mults += qlen
        low = (1 << (8 * width * dm)) - 1
        r = (acc & low) + _pack(q[:dm], width) * self.neg(width)
        return _trim(q), _unpack(r & low, dm, width, p)


# ---------------------------------------------------------------------------
# the polynomial value type
# ---------------------------------------------------------------------------


class UniPoly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: PrimeField, coeffs=(), normalized: bool = False):
        self.field = field
        self.coeffs = coeffs if normalized else _trim([v % field.p for v in coeffs])

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, field: PrimeField) -> "UniPoly":
        return cls(field, [], normalized=True)

    @classmethod
    def one(cls, field: PrimeField) -> "UniPoly":
        return cls(field, [1], normalized=True)

    # -- basic queries ---------------------------------------------------------

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, UniPoly)
            and other.field == self.field
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((self.field.p, tuple(self.coeffs)))

    def _check(self, other: "UniPoly") -> None:
        if self.field != other.field:
            raise ValueError("polynomials from different fields")

    # -- ring operations -------------------------------------------------------

    def __add__(self, other: "UniPoly") -> "UniPoly":
        self._check(other)
        return UniPoly(self.field, _trim(_add_raw(self.coeffs, other.coeffs, self.field.p)), normalized=True)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        self._check(other)
        return UniPoly(self.field, _mul_kron(self.coeffs, other.coeffs, self.field.p), normalized=True)

    def sub_scaled(self, c: int, other: "UniPoly") -> "UniPoly":
        """self - c*other in one pass (the row operation of classic naive)."""
        self._check(other)
        p = self.field.p
        a, b = self.coeffs, other.coeffs
        out = a + [0] * (len(b) - len(a))
        for i, v in enumerate(b):
            out[i] = (out[i] - c * v) % p
        return UniPoly(self.field, _trim(out), normalized=True)

    def mul_linear(self, x0: int) -> "UniPoly":
        """(x - x0) * self in one pass."""
        p = self.field.p
        a = self.coeffs
        out = [0] + a
        for i, v in enumerate(a):
            out[i] = (out[i] - x0 * v) % p
        return UniPoly(self.field, _trim(out), normalized=True)

    # -- evaluation and shifts ---------------------------------------------------

    def eval(self, c: int) -> int:
        p = self.field.p
        acc = 0
        for v in reversed(self.coeffs):
            acc = (acc * c + v) % p
        return acc

    def hasse_deriv(self, k: int, x0: int) -> int:
        """Coefficient of x^k in self(x + x0), via the explicit binomial sum
        with integer binomials, independent of bipoly.taylor_vectors."""
        a = self.coeffs
        if k >= len(a):
            return 0
        p = self.field.p
        acc = 0
        xpow = 1
        for i in range(k, len(a)):
            acc = (acc + comb(i, k) * a[i] % p * xpow) % p
            xpow = xpow * x0 % p
        return acc

    # -- display -------------------------------------------------------------

    def __repr__(self) -> str:
        return f"UniPoly(GF({self.field.p}), {self.coeffs})"
