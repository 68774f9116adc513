"""Cyclotomic values: the package's integer canonical form against the
oracle field's, and the oracle field's ring laws, canonical form and Galois
action."""

import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from equilef.cyclotomic import Cyclotomic, cyclotomic_polynomial
from equilef.numtheory import divisors
from chartab_oracle import OracleCyclotomic

CONDUCTORS = [1, 2, 3, 4, 5, 6, 7, 8, 9, 12]


def element(e, coeffs):
    return OracleCyclotomic.from_root_combination(e, coeffs)


def root(e, k=1):
    """zeta_e^k in the oracle field, built from its exponent's coefficients."""
    return element(e, [0] * k + [1])


def package_root(e, k=1):
    return Cyclotomic.from_root_combination(e, [0] * k + [1])


small_fraction = st.fractions(
    min_value=-3, max_value=3, max_denominator=4
)


@st.composite
def cyclotomics(draw):
    e = draw(st.sampled_from([1, 2, 3, 4, 5, 8, 9]))
    coeffs = draw(st.lists(small_fraction, min_size=1, max_size=min(e, 4)))
    return element(e, coeffs)


@settings(max_examples=60, deadline=None)
@given(cyclotomics(), cyclotomics(), cyclotomics())
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + OracleCyclotomic.from_rational(0) == a
    assert a * OracleCyclotomic.from_rational(1) == a
    assert a - a == OracleCyclotomic.from_rational(0)


@settings(max_examples=60, deadline=None)
@given(cyclotomics(), small_fraction)
def test_scalar_division_inverts_scaling(a, q):
    if q == 0:
        return
    scaled = a * OracleCyclotomic.from_rational(q)
    assert scaled / q == a


def test_roots_of_unity_have_right_order():
    for e in CONDUCTORS:
        z = root(e)
        power = OracleCyclotomic.from_rational(1)
        for k in range(1, e):
            power = power * z
            assert power != OracleCyclotomic.from_rational(1), (e, k)
        assert power * z == OracleCyclotomic.from_rational(1)


def test_conductor_is_minimal():
    # z6 lives in the field of cube roots; z9^3 is a cube root itself
    assert root(6).conductor == 3
    assert root(9, 3).conductor == 3
    assert root(4, 2) == OracleCyclotomic.from_rational(-1)
    assert root(8).conductor == 8
    assert root(12).conductor == 12
    # a sum landing in a subfield drops its conductor
    z5 = root(5)
    total = z5 + z5.galois(2) + z5.galois(3) + z5.galois(4)
    assert total == OracleCyclotomic.from_rational(-1)
    assert total.conductor == 1


def test_sum_of_all_roots_vanishes():
    for e in CONDUCTORS:
        if e == 1:
            continue
        total = OracleCyclotomic.from_rational(0)
        for k in range(e):
            total = total + root(e, k)
        assert total == OracleCyclotomic.from_rational(0), e


def test_galois_is_a_ring_automorphism():
    z = root(12)
    a = z + OracleCyclotomic.from_rational(2) * z * z
    b = z * z * z - OracleCyclotomic.from_rational(1)
    for k in [1, 5, 7, 11]:
        assert (a + b).galois(k) == a.galois(k) + b.galois(k)
        assert (a * b).galois(k) == a.galois(k) * b.galois(k)
    assert z.galois(5) == z * z * z * z * z


def test_conjugate_of_root_multiplies_to_one():
    for e in CONDUCTORS:
        for k in range(e):
            if math.gcd(k, e) != 1:
                continue
            z = root(e, k)
            assert z * z.conjugate() == OracleCyclotomic.from_rational(1)


def test_rational_detection():
    z3 = root(3)
    assert z3.conductor != 1
    half = OracleCyclotomic.from_rational(Fraction(1, 2))
    assert half.conductor == 1 and not half.is_integer()
    assert half.as_fraction() == Fraction(1, 2)
    assert OracleCyclotomic.from_rational(-4).is_integer()


def test_a_rational_root_combination_builds_no_fraction(monkeypatch):
    # eigenvalue multiplicities lift in ints: 2 + z5 + ... + z5^4 = 1,
    # 2 z6^3 = -2, 1 + z12^4 + z12^8 = 0, and 3 + 0 z30 folds 3 z30^30 into 3
    cases = [(5, [2, 1, 1, 1, 1], 1), (6, [0, 0, 0, 2, 0, 0], -2),
             (12, [1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0], 0), (30, [0] * 30 + [3], 3)]
    new = Fraction.__new__
    built = []

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    for e, coeffs, expected in cases:
        built.clear()
        monkeypatch.setattr(Fraction, "__new__", counted)
        value = Cyclotomic.from_root_combination(e, coeffs)
        monkeypatch.undo()
        assert built == [], (e, built)
        assert value == expected and value.conductor == 1


def test_coordinates_are_ints_and_a_fraction_is_refused():
    z12 = Cyclotomic.from_root_combination(12, [0, 1, 0, 0, 0, 7])
    assert all(type(c) is int for c in z12.coeffs)
    for build in (lambda: Cyclotomic.from_root_combination(3, [Fraction(1, 2)]),
                  lambda: Cyclotomic(1, (Fraction(1, 2),)),
                  lambda: Cyclotomic(3, (0, Fraction(3, 2)))):
        with pytest.raises(TypeError):
            build()


def test_equal_root_combinations_hash_equal():
    # the package's canonical form, without field arithmetic: a rational
    # value hashes as the integer it equals
    z3 = package_root(3)
    for a, b in [
        (z3, package_root(6, 2)),
        (z3, Cyclotomic.from_root_combination(3, [-1, 0, -1])),
        (Cyclotomic.from_root_combination(3, [0, -1]), package_root(6, 5)),
        (package_root(4, 2), -1),
        (Cyclotomic.from_root_combination(12, [1] * 12), 0),
        (Cyclotomic.from_root_combination(5, [3, 3, 3, 3, 3]), 0),
    ]:
        assert a == b and hash(a) == hash(b), (a, b)
    assert hash(Cyclotomic.from_root_combination(1, [7])) == hash(7) == hash(Fraction(7))
    assert len({z3, package_root(6, 2), package_root(9, 3), package_root(3)}) == 1


# conductors whose subfield lattices are deep (120 = 2^3 3 5) and wide in
# prime powers (200 = 2^3 5^2)
DESCENT_CONDUCTORS = sorted(set(divisors(120)) | set(divisors(200)))


@st.composite
def root_combinations(draw):
    """(e, raw): a small integer combination of powers of zeta_e.  In half of
    the draws every power is one of zeta_d, d a divisor of e, so the value
    lies in Q(zeta_d)."""
    e = draw(st.sampled_from(DESCENT_CONDUCTORS))
    d = draw(st.sampled_from(divisors(e))) if draw(st.booleans()) else e
    raw = [0] * e
    for k, c in draw(st.lists(st.tuples(st.integers(0, d - 1), st.integers(-3, 3)),
                              min_size=1, max_size=6)):
        raw[k * (e // d)] += c
    return e, raw


@settings(max_examples=300, derandomize=True, deadline=None)
@given(root_combinations())
def test_canonical_form_equals_the_oracle_fields(combination):
    # relative traces in ints against the elimination over Q: same conductor,
    # same coordinates
    e, raw = combination
    value = Cyclotomic.from_root_combination(e, raw)
    reference = OracleCyclotomic.from_root_combination(e, raw)
    assert (value.conductor, value.coeffs) == (reference.conductor, reference.coeffs)
    assert all(type(c) is int for c in value.coeffs)


def test_cyclotomic_polynomial_matches_sympy():
    x = sympy.symbols("x")
    for e in range(1, 31):
        ours = cyclotomic_polynomial(e)
        theirs = sympy.Poly(sympy.cyclotomic_poly(e, x), x).all_coeffs()
        assert list(ours) == list(reversed(theirs)), e


def test_minimal_polynomial_annihilates_root():
    for e in CONDUCTORS:
        z = root(e)
        total = OracleCyclotomic.from_rational(0)
        power = OracleCyclotomic.from_rational(1)
        for coeff in cyclotomic_polynomial(e):
            total = total + OracleCyclotomic.from_rational(coeff) * power
            power = power * z
        assert total == OracleCyclotomic.from_rational(0), e


def test_equal_values_built_by_different_routes_hash_equal():
    # the hash is computed once, at construction; a rational value hashes as
    # the rational it equals
    z3 = root(3)
    for a, b in [
        (z3, root(6, 2)),
        (z3, root(6) * root(6)),
        (z3, element(3, [-1, 0, -1])),
        (z3, root(3, 2).conjugate()),
        (-z3, root(6, 5)),
        (root(4) * root(4), OracleCyclotomic.from_rational(-1)),
        (element(12, [Fraction(1, 2)] * 12), element(1, [0])),
        (z3 + root(3, 2), -1),
        (element(8, [0, 1, 0, 1]) * Fraction(1, 2), (root(8) - root(8, 7)) / 2),
        (OracleCyclotomic.from_rational(Fraction(6, 4)), Fraction(3, 2)),
        (element(5, [3, 3, 3, 3, 3]), 0),
    ]:
        assert a == b and hash(a) == hash(b), (a, b)
    assert hash(OracleCyclotomic.from_rational(7)) == hash(7) == hash(Fraction(7))
    assert len({z3, root(6, 2), root(9, 3), root(3)}) == 1
