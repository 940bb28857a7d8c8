"""Primality of field sizes: deterministic Miller-Rabin against trial
division, and its refusal past the range its bases decide."""

from itertools import takewhile

import pytest

from tangency.fields import PrimeField, is_prime


def test_is_prime_matches_trial_division():
    primes = []
    for m in range(2 * 10 ** 5):
        prime = m >= 2 and all(m % p for p in takewhile(lambda p: p * p <= m, primes))
        if prime:
            primes.append(m)
        assert is_prime(m) == prime, m


def test_is_prime_near_and_past_its_limit():
    assert is_prime(2 ** 61 - 1) and is_prime(10 ** 15 + 37)
    assert not is_prime((2 ** 31 - 1) * (10 ** 15 + 37))
    # a Carmichael number with no prime factor up to 41: it passes the Fermat
    # test a^(m-1) = 1 to every base, and only the strong test finds a
    # square root of 1 other than +-1
    assert not is_prime(211 * 421 * 631)
    # the least strong pseudoprime to the prime bases 2..37, and to 2..41
    assert not is_prime(318665857834031151167461)
    with pytest.raises(ValueError, match="too large"):
        is_prime(3317044064679887385961981)
    with pytest.raises(ValueError, match="too large"):
        PrimeField(2 ** 89 - 1)
