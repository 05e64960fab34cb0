import math
import time

import pytest

from gsinterp.field import PrimeField, _is_prime


def test_inverse_examples():
    assert PrimeField(7).inv(3) == 5
    assert PrimeField(13).inv(1) == 1
    assert PrimeField(101).inv(2) == 51


def test_inverse_exhaustive_small_fields():
    for p in (2, 3, 5, 7, 11, 101):
        F = PrimeField(p)
        for a in range(1, p):
            assert a * F.inv(a) % p == 1


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        PrimeField(7).inv(0)


def test_nonprime_modulus_rejected():
    for bad in (0, 1, 4, 9, 91, 2**20):
        with pytest.raises(ValueError):
            PrimeField(bad)
    for bad in (7.0, "7", None):
        with pytest.raises(ValueError, match="must be an integer"):
            PrimeField(bad)


def _trial_division(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_is_prime_matches_trial_division():
    for n in range(10**4):
        assert _is_prime(n) == _trial_division(n), n


def test_is_prime_rejects_pseudoprimes():
    # Carmichael numbers; 3215031751, a strong pseudoprime to bases 2, 3, 5
    # and 7; 3825123056546413051, one to every prime base up to 23
    for n in (561, 41041, 3215031751, 3825123056546413051):
        assert not _is_prime(n)
        with pytest.raises(ValueError):
            PrimeField(n)


def test_word_sized_primes_accepted_fast():
    for p in (2**61 - 1, 2**64 - 59, 754974721):
        t0 = time.perf_counter()
        assert PrimeField(p).p == p
        assert time.perf_counter() - t0 < 0.1
    # a composite with only large factors: the two largest primes below 2^32
    assert not _is_prime(4294967291 * 4294967279)


def test_modulus_above_word_size_rejected():
    with pytest.raises(ValueError, match="2\\^64"):
        PrimeField(2**64 + 13)
    with pytest.raises(ValueError, match="2\\^64"):
        PrimeField(2**89 - 1)


def test_field_identity():
    assert PrimeField(7) == PrimeField(7)
    assert PrimeField(7) != PrimeField(11)
    assert hash(PrimeField(13)) == hash(PrimeField(13))
