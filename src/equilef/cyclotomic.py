"""Cyclotomic numbers as values: construction and a canonical form.

A value is an algebraic integer of a cyclotomic field Q(zeta_e), stored as
its coordinates in the power basis 1, z, ..., z^(phi(e)-1) of a primitive
e-th root of unity z, reduced by the e-th cyclotomic polynomial, over the
smallest cyclotomic field containing it.  That power basis is a Z-basis of
the integers of Q(zeta_e), so every coordinate is an int; equality and
hashing are plain structural comparisons, and rational values carry
conductor 1.  The package forms Galois orbits of these values, checks tables
in their integer coordinates (``characters``) and prints them; it never
computes in the field, so there is no field arithmetic here.

The smallest field is found by relative traces, in ints.  For d | e, with
k = [Q(zeta_e) : Q(zeta_d)], a value v lies in Q(zeta_d) exactly when its
trace t = Tr_{Q(zeta_e)/Q(zeta_d)}(v), embedded back into Q(zeta_e), is k v,
and then t / k are its coordinates over Q(zeta_d).  The trace of z^j has a
closed form (``_subfield``).
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache

from .numtheory import divisors, euler_phi, mobius


@lru_cache(maxsize=None)
def cyclotomic_polynomial(e: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_e, low degree first, monic."""
    if e < 1:
        raise ValueError("conductor must be positive")
    # divide x^e - 1 by Phi_d for every proper divisor d of e
    poly = [-1] + [0] * (e - 1) + [1]
    for d in divisors(e)[:-1]:
        phi_d = cyclotomic_polynomial(d)
        poly = _poly_exact_div(poly, list(phi_d))
    return tuple(poly)


def _poly_exact_div(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials (den monic)."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + len(den) - 1]
        out[i] = c
        if c:
            for j, d in enumerate(den):
                num[i + j] -= c * d
    if any(num[: len(den) - 1]):
        raise ArithmeticError("division was not exact")
    return out


def _reduce_mod_phi(coeffs: list[int], e: int) -> list[int]:
    """Remainder of an integer polynomial in z modulo Phi_e, as phi(e)
    coefficients; Phi_e is monic, so they are integers."""
    phi = cyclotomic_polynomial(e)
    deg = len(phi) - 1
    a = list(coeffs) + [0] * max(0, deg - len(coeffs))
    for i in range(len(a) - 1, deg - 1, -1):
        c = a[i]
        if c:
            a[i] = 0
            for j in range(deg):
                a[i - deg + j] -= c * phi[j]
    return a[:deg]


class Cyclotomic:
    """An algebraic integer of a cyclotomic field, in canonical
    (minimal-conductor) form."""

    __slots__ = ("conductor", "coeffs", "_hash")

    def __init__(self, conductor: int, coeffs):
        coeffs = tuple(map(operator.index, coeffs))
        if len(coeffs) != euler_phi(conductor):
            raise ValueError("coefficient vector has wrong length")
        self.conductor = conductor
        self.coeffs = coeffs
        # a rational value hashes as the integer, since it compares equal to it
        self._hash = hash(coeffs[0]) if conductor == 1 else hash((conductor, coeffs))

    @classmethod
    def from_root_combination(cls, e: int, coeffs) -> "Cyclotomic":
        """sum_k coeffs[k] * zeta_e^k for integers coeffs[k], in canonical form."""
        raw = list(map(operator.index, coeffs))
        if len(raw) > e:
            folded = [0] * e
            for i, c in enumerate(raw):
                folded[i % e] += c
            raw = folded
        return _make(e, raw)

    def _promoted(self, e: int) -> list[int]:
        """Coordinates of self inside Q(zeta_e); requires conductor | e."""
        if e == self.conductor:
            return list(self.coeffs)
        return _embedded(self.coeffs, e, self.conductor)

    def __eq__(self, other):
        if isinstance(other, Cyclotomic):
            return self.conductor == other.conductor and self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.conductor == 1 and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.conductor == 1:
            return f"Cyc({self.coeffs[0]})"
        terms = ", ".join(str(c) for c in self.coeffs)
        return f"Cyc(z{self.conductor}; {terms})"

    def sort_key(self):
        """Deterministic total order key (conductor, then coefficients)."""
        return (self.conductor, self.coeffs)


@lru_cache(maxsize=None)
def _subfield(e: int, d: int) -> tuple:
    """(k, traces, lifts) for Q(zeta_d) inside Q(zeta_e), d | e.

    k = [Q(zeta_e) : Q(zeta_d)] = phi(e) / phi(d).  traces[j] is
    Tr_{Q(zeta_e)/Q(zeta_d)}(z^j) as (c, s), meaning c zeta_d^s, or None
    when it is 0.  lifts[i] lists the nonzero (row, coordinate) pairs of
    zeta_d^i = z^(i e/d) in the power basis of Q(zeta_e).

    z^j has order m = e / gcd(e, j); write m = m1 m2, m1 the part of m on
    the primes of d, and z^j = y1 y2 with y1 of order m1 and y2 of order m2.
    Over Q(zeta_d), y1 generates Q(zeta_lcm(d, m1)) and y2 generates
    Q(zeta_(d m2)), whose Galois groups multiply, m2 being prime to d m1; so
    the trace of z^j from Q(zeta_d)(z^j) is the product of those of y1 and
    y2.  If m1 does not divide d, the conjugates of y1 are y1 times every
    power of y1^d, a root of unity of order [Q(zeta_lcm(d, m1)) : Q(zeta_d)]
    > 1, and sum to 0.  Otherwise y1 is a power of zeta_d, the conjugates of
    y2 are the primitive m2-th roots of unity, which sum to mu(m2), and
    Tr(z^j) = [Q(zeta_e) : Q(zeta_(d m2))] mu(m2) y1
    = phi(e) / phi(d m2) * mu(m2) * y1.
    """
    step = e // d
    traces = []
    for j in range(e):
        m = m2 = e // math.gcd(e, j)
        while (g := math.gcd(m2, d)) > 1:
            m2 //= g
        m1 = m // m2
        mu = mobius(m2)
        if d % m1 or not mu:
            traces.append(None)
            continue
        # y1 = z^(j a) with a = 1 (mod m1) and a = 0 (mod m2)
        a = m2 * pow(m2, -1, m1)
        traces.append((euler_phi(e) // euler_phi(d * m2) * mu, j * a % e // step))
    lifts = []
    for i in range(euler_phi(d)):
        raw = [0] * e
        raw[i * step] = 1
        lifts.append(tuple((r, c) for r, c in enumerate(_reduce_mod_phi(raw, e)) if c))
    return euler_phi(e) // euler_phi(d), tuple(traces), tuple(lifts)


def _embedded(coords, e: int, d: int) -> list[int]:
    """Coordinates over Q(zeta_e) of the value with coordinates coords over
    Q(zeta_d), d | e."""
    out = [0] * euler_phi(e)
    for x, lift in zip(coords, _subfield(e, d)[2]):
        if x:
            for r, y in lift:
                out[r] += x * y
    return out


def _make(e: int, raw: list[int]) -> Cyclotomic:
    """Reduce mod Phi_e and rewrite over the smallest containing subfield,
    the first divisor d of e, ascending, with the value in Q(zeta_d)."""
    coeffs = _reduce_mod_phi(raw, e)
    if e == 1 or not any(coeffs[1:]):
        return Cyclotomic(1, coeffs[:1])
    # Q(zeta_1) = Q(zeta_2) = Q: the rational test above has decided them
    for d in divisors(e)[:-1]:
        if d > 2:
            sub = _descended(coeffs, e, d)
            if sub is not None:
                return Cyclotomic(d, sub)
    return Cyclotomic(e, coeffs)


def _descended(coeffs: list[int], e: int, d: int) -> list[int] | None:
    """Coordinates over Q(zeta_d) of the value with coordinates coeffs over
    Q(zeta_e), or None when it does not lie in Q(zeta_d).

    The trace t is summed over the nonzero coordinates and reduced mod
    Phi_d.  The value lies in Q(zeta_d) when t embeds as k times it; then it
    is an algebraic integer of Q(zeta_d), so k divides every coordinate of t.
    """
    k, traces, _ = _subfield(e, d)
    t = [0] * d
    for j, c in enumerate(coeffs):
        if c and traces[j]:
            a, s = traces[j]
            t[s] += a * c
    t = _reduce_mod_phi(t, d)
    if _embedded(t, e, d) != [k * c for c in coeffs]:
        return None
    if any(x % k for x in t):
        raise ArithmeticError(
            f"trace {t} over Q(zeta_{d}) of a value of Q(zeta_{e}) is not divisible by {k}")
    return [x // k for x in t]
