"""Number-theory helpers against brute force and sympy."""

import math
import random

import pytest
import sympy

from equilef.numtheory import (
    MR_BOUND,
    divisors,
    euler_phi,
    factorize,
    is_prime,
    mobius,
    primitive_root,
)


def test_is_prime_small_range():
    for n in range(-3, 2000):
        assert is_prime(n) == sympy.isprime(n), n


def test_is_prime_large_samples():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randrange(10**6, 10**12)
        assert is_prime(n) == sympy.isprime(n), n
    # some Carmichael numbers and prime powers
    for n in [561, 1105, 1729, 2465, 2821, 6601, 8911, 2**31 - 1, 3**10, 7**7]:
        assert is_prime(n) == sympy.isprime(n), n


def test_is_prime_refuses_at_its_proven_bound():
    # psi_12 is a strong pseudoprime to every base 2..37, yet composite
    assert MR_BOUND == 399165290221 * 798330580441
    for n in (MR_BOUND, MR_BOUND + 2, 2**127 - 1):
        with pytest.raises(ValueError, match=f"only below {MR_BOUND}"):
            is_prime(n)
    assert is_prime(MR_BOUND - 1) == sympy.isprime(MR_BOUND - 1)
    assert is_prime(2**61 - 1)
    assert not is_prime(2**61 + 1)


def test_factorize_reassembles():
    rng = random.Random(11)
    samples = list(range(1, 200)) + [rng.randrange(2, 10**9) for _ in range(40)]
    for n in samples:
        f = factorize(n)
        prod = 1
        for p, e in f.items():
            assert is_prime(p), (n, p)
            assert e >= 1
            prod *= p**e
        assert prod == n


def test_euler_phi_brute_force():
    for n in range(1, 300):
        expected = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
        assert euler_phi(n) == expected, n


def test_divisors_brute_force():
    for n in range(1, 300):
        expected = [d for d in range(1, n + 1) if n % d == 0]
        assert divisors(n) == expected, n


def test_primitive_root_generates():
    for p in [2, 3, 5, 7, 11, 13, 101, 257, 997]:
        g = primitive_root(p)
        seen = set()
        x = 1
        for _ in range(p - 1):
            x = x * g % p
            seen.add(x)
        assert len(seen) == p - 1, p


def test_mobius_matches_sympy():
    assert [mobius(n) for n in range(1, 1001)] == [sympy.mobius(n) for n in range(1, 1001)]
