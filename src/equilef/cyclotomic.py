"""Exact arithmetic in cyclotomic fields Q(zeta_e).

A value is stored as a vector of rationals in the power basis
1, z, ..., z^(phi(e)-1) of a primitive e-th root of unity z, reduced by the
e-th cyclotomic polynomial.  On construction every value is rewritten over
the smallest cyclotomic field containing it, so equality and hashing are
plain structural comparisons and rational values always carry conductor 1.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .linalg import reduce_columns
from .numtheory import divisors, euler_phi


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


def _reduce_mod_phi(coeffs: list, e: int) -> list:
    """Remainder of a polynomial in z modulo Phi_e, as phi(e) coefficients.

    Phi_e is monic with integer coefficients, so integer input stays integer
    and Fraction input stays Fraction.
    """
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
    """An element of a cyclotomic field in canonical (minimal-conductor) form."""

    __slots__ = ("conductor", "coeffs", "_hash")

    def __init__(self, conductor: int, coeffs):
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != euler_phi(conductor):
            raise ValueError("coefficient vector has wrong length")
        self.conductor = conductor
        self.coeffs = coeffs
        # a rational value hashes as the rational, since it compares equal to it
        self._hash = hash(coeffs[0]) if conductor == 1 else hash((conductor, coeffs))

    # -- construction ------------------------------------------------------

    @classmethod
    def from_rational(cls, q) -> "Cyclotomic":
        return cls(1, (Fraction(q),))

    @classmethod
    def from_root_combination(cls, e: int, coeffs) -> "Cyclotomic":
        """sum_k coeffs[k] * zeta_e^k, reduced to canonical form.

        Integer coefficients stay ints until the value is stored.
        """
        raw = [c if type(c) is int else Fraction(c) for c in coeffs]
        if len(raw) > e:
            folded = [0] * e
            for i, c in enumerate(raw):
                folded[i % e] += c
            raw = folded
        return _make(e, raw)

    # -- ring operations ---------------------------------------------------

    def _promoted(self, e: int) -> list[Fraction]:
        """Coefficients of self inside Q(zeta_e); requires conductor | e."""
        if e == self.conductor:
            return list(self.coeffs)
        step = e // self.conductor
        raw = [Fraction(0)] * e
        for i, c in enumerate(self.coeffs):
            raw[(i * step) % e] += c
        return _reduce_mod_phi(raw, e)

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        e = math.lcm(self.conductor, other.conductor)
        a, b = self._promoted(e), other._promoted(e)
        return _make(e, [x + y for x, y in zip(a, b)])

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.conductor, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Cyclotomic(self.conductor, tuple(c * other for c in self.coeffs))
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        e = math.lcm(self.conductor, other.conductor)
        a, b = self._promoted(e), other._promoted(e)
        prod = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        return _make(e, prod)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        raise TypeError("division only by rational scalars")

    # -- Galois actions ----------------------------------------------------

    def galois(self, k: int) -> "Cyclotomic":
        """Image under sigma_k : zeta -> zeta^k, for k coprime to the conductor."""
        e = self.conductor
        if e == 1:
            return self
        if math.gcd(k, e) != 1:
            raise ValueError(f"{k} is not coprime to the conductor {e}")
        raw = [Fraction(0)] * e
        for i, c in enumerate(self.coeffs):
            raw[(i * k) % e] += c
        return _make(e, raw)

    def conjugate(self) -> "Cyclotomic":
        return self.galois(self.conductor - 1) if self.conductor > 1 else self

    # -- predicates and conversions ----------------------------------------

    def as_fraction(self) -> Fraction:
        if self.conductor != 1:
            raise ValueError(f"{self!r} is not rational")
        return self.coeffs[0]

    def is_integer(self) -> bool:
        return self.conductor == 1 and self.coeffs[0].denominator == 1

    def __eq__(self, other):
        # Cyclotomic first: isinstance against Fraction, an ABCMeta class, is slow
        if isinstance(other, Cyclotomic):
            return self.conductor == other.conductor and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.conductor == 1 and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self):
        return self._hash

    def __bool__(self):
        return any(self.coeffs)

    def __repr__(self):
        if self.conductor == 1:
            return f"Cyc({self.coeffs[0]})"
        terms = ", ".join(str(c) for c in self.coeffs)
        return f"Cyc(z{self.conductor}; {terms})"

    def sort_key(self):
        """Deterministic total order key (conductor, then coefficients)."""
        return (self.conductor, self.coeffs)


def _coerce(x) -> "Cyclotomic":
    if isinstance(x, Cyclotomic):
        return x
    if isinstance(x, (int, Fraction)):
        return Cyclotomic.from_rational(x)
    return NotImplemented


def _make(e: int, raw_coeffs: list) -> Cyclotomic:
    """Reduce mod Phi_e and rewrite over the smallest containing subfield.

    The coefficients (ints or Fractions) keep their type through the
    reduction; the constructor stores them as Fractions.
    """
    coeffs = _reduce_mod_phi(raw_coeffs, e)
    if e == 1 or not any(coeffs[1:]):
        return Cyclotomic(1, coeffs[:1])
    # Q(zeta_1) = Q(zeta_2) = Q: the rational test above has decided them
    for d in divisors(e)[:-1]:
        if d > 2:
            sub = _express_in_subfield(coeffs, e, d)
            if sub is not None:
                return Cyclotomic(d, sub)
    return Cyclotomic(e, coeffs)


def _express_in_subfield(coeffs: list, e: int, d: int) -> tuple | None:
    """Coordinates of the value in the power basis of Q(zeta_d) inside Q(zeta_e).

    Reduces the columns [z_d^0, ..., z_d^(phi(d)-1), value] over Q.  The
    value lies in Q(zeta_d) exactly when its column reduces to zero, and then
    its recorded kernel vector v gives value = -sum_i v[i] z_d^i; otherwise
    the result is None.  The basis columns never reduce to zero.
    """
    step = e // d
    n = euler_phi(d)
    columns = []
    for i in range(n):
        raw = [0] * e
        raw[(i * step) % e] = 1
        columns.append(_reduce_mod_phi(raw, e))
    columns.append(coeffs)
    kernel = reduce_columns(
        [{r: c for r, c in enumerate(col) if c} for col in columns], record=True
    )[1]
    if not kernel:
        return None
    if [j for j, _ in kernel] != [n]:
        raise ArithmeticError("subfield expression failed")
    v = kernel[0][1]
    return tuple(-v.get(i, 0) for i in range(n))
