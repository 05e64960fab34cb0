"""Prime field GF(p) arithmetic.

Elements are plain ints in [0, p); the modulus lives on a shared PrimeField
context object. Moduli are word-sized: p < 2^64. Binomial shift weights
come from bipoly.taylor_vectors, not from the field.
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


class PrimeField:
    """Context for GF(p): modulus, inverses, random elements; immutable."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int):
            raise ValueError("modulus must be an integer")
        if p >= MODULUS_LIMIT:
            raise ValueError(f"modulus {p} is not below 2^64")
        if not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p

    # -- random elements -----------------------------------------------------

    def rand(self, rng) -> int:
        return rng.randrange(self.p)

    # -- arithmetic ----------------------------------------------------------

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero in GF(p)")
        return pow(a, -1, self.p)

    # -- identity ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(self.p)

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"
