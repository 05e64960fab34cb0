"""Prime field GF(p) arithmetic.

Elements are plain ints in [0, p); the modulus and its binomial cache live
on a shared PrimeField context object. Moduli are word-sized: p < 2^64.
"""

from __future__ import annotations


# the first twelve primes: as Miller-Rabin bases they decide primality
# exactly for every n < 2^64
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MODULUS_LIMIT = 1 << 64


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 0 <= n < MODULUS_LIMIT."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# Pascal rows are cached only for small upper index; larger arguments go
# through Lucas digits, so the cache never grows with the modulus.
_PASCAL_CACHE_MAX = 256


class PrimeField:
    """Context for GF(p); immutable after construction."""

    __slots__ = ("p", "_pascal")

    def __init__(self, p: int):
        if not isinstance(p, int):
            raise ValueError("modulus must be an integer")
        if p >= MODULUS_LIMIT:
            raise ValueError(f"modulus {p} is not below 2^64")
        if not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p
        self._pascal = [[1]]

    # -- random elements -----------------------------------------------------

    def rand(self, rng) -> int:
        return rng.randrange(self.p)

    # -- arithmetic ----------------------------------------------------------

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero in GF(p)")
        return pow(a, self.p - 2, self.p)

    # -- binomial coefficients -----------------------------------------------

    def _pascal_row(self, i: int) -> list[int]:
        rows = self._pascal
        p = self.p
        while len(rows) <= i:
            prev = rows[-1]
            row = [1] * (len(prev) + 1)
            for k in range(1, len(prev)):
                row[k] = (prev[k - 1] + prev[k]) % p
            rows.append(row)
        return rows[i]

    def _binom_digit(self, a: int, b: int) -> int:
        # both digits < p, so every factor below is invertible
        if b > a:
            return 0
        if b > a - b:
            b = a - b
        if a <= _PASCAL_CACHE_MAX:
            return self._pascal_row(a)[b]
        p = self.p
        num, den = 1, 1
        for t in range(1, b + 1):
            num = num * ((a - b + t) % p) % p
            den = den * t % p
        return num * pow(den, p - 2, p) % p

    def binom(self, i: int, k: int) -> int:
        """C(i, k) mod p via Lucas' theorem; 0 when k > i or k < 0."""
        if i < 0:
            raise ValueError("binomial upper index must be nonnegative")
        if k < 0 or k > i:
            return 0
        p = self.p
        out = 1
        while i > 0 or k > 0:
            out = out * self._binom_digit(i % p, k % p) % p
            if out == 0:
                return 0
            i //= p
            k //= p
        return out

    def binom_column(self, k: int, top: int) -> list[int]:
        """[C(0,k), ..., C(top,k)] mod p, built additively (safe in any characteristic)."""
        col = [1] * (top + 1)
        p = self.p
        for _ in range(k):
            nxt = [0] * (top + 1)
            for i in range(1, top + 1):
                nxt[i] = (nxt[i - 1] + col[i - 1]) % p
            col = nxt
        return col

    # -- identity ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(self.p)

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"
