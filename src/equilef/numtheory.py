"""Small exact number-theory helpers used by the character-table machinery.

Everything here works on plain Python integers; nothing is probabilistic.
"""

from __future__ import annotations

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# psi_12 (Sorenson and Webster 2015): the bases above decide primality below
# it, and it is itself a strong pseudoprime to all of them.
MR_BOUND = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; ValueError at or above ``MR_BOUND``."""
    if n >= MR_BOUND:
        raise ValueError(f"primality is decided only below {MR_BOUND}, not for {n}")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division, as {prime: multiplicity}."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def euler_phi(n: int) -> int:
    phi = 1
    for p, k in factorize(n).items():
        phi *= (p - 1) * p ** (k - 1)
    return phi


def mobius(n: int) -> int:
    """The Moebius function: 0 unless n is squarefree, else (-1)^(number of primes)."""
    f = factorize(n)
    return 0 if any(k > 1 for k in f.values()) else (-1) ** len(f)


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, k in factorize(n).items():
        divs = [d * p**j for d in divs for j in range(k + 1)]
    return sorted(divs)


def primitive_root(p: int) -> int:
    """Smallest primitive root modulo a prime p."""
    if p == 2:
        return 1
    qs = list(factorize(p - 1))
    g = 2
    while True:
        if all(pow(g, (p - 1) // q, p) != 1 for q in qs):
            return g
        g += 1
