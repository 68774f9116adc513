"""Integrality over the rational irreducibles against every complex multiplicity.

``rational_coefficients`` (behind the engine's three characters and its
isotypic rows) decides integrality from the coefficients <v, Phi>/|orbit| over the Galois
orbit sums and a rebuild of v from them; ``integrality_oracle`` takes the
cyclotomic inner product with every complex irreducible.  They must agree
on integral and non-integral class functions alike: 16 per group on the 26
groups (11 subgroup-class representatives of S4, 9 of A5, and the 6
distinct builtin groups), 416 in all.
"""

import random
from fractions import Fraction

import pytest

from equilef.characters import (
    IntegralityError,
    VirtualCharacter,
    character_table,
    inner_product,
    rational_coefficients,
    rational_irreducibles,
)
from equilef.groups import class_index_of, conjugacy_classes_of_subgroups, group_from_permutations
from equilef.scenarios import builtin_names, builtin_scenario
from integrality_oracle import is_integral as oracle_is_integral
from integrality_oracle import multiplicities

S4 = (4, [(1, 0, 2, 3), (1, 2, 3, 0)])
A5 = (5, [(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)])


def _groups():
    out = {}
    for label, presentation in (("s4", S4), ("a5", A5)):
        g = group_from_permutations(*presentation)
        for i, cls in enumerate(conjugacy_classes_of_subgroups(g)):
            out[f"{label}-class{i}-order{cls.order}"] = cls.representative.as_group()
    seen = set()
    for name in builtin_names():
        g = builtin_scenario(name).group
        if g.mul not in seen:
            seen.add(g.mul)
            out[f"builtin-{name}"] = g
    return out


GROUPS = _groups()


def _decided(v) -> bool:
    """The package's verdict: ``rational_coefficients`` returns or raises."""
    try:
        rational_coefficients(v, "test")
    except IntegralityError:
        return False
    return True


def _samples(g, rng):
    """Random integer vectors and random combinations of orbit sums."""
    r = len(character_table(g).classes)
    lams = rational_irreducibles(character_table(g))
    for _ in range(8):
        yield VirtualCharacter(g, [rng.randint(-4, 4) for _ in range(r)])
    for half in (False, True) * 4:
        coefficients = [Fraction(rng.randint(-3, 3)) for _ in lams]
        if half:
            coefficients[rng.randrange(len(lams))] += Fraction(1, 2)
        v = VirtualCharacter(g, [0] * r)
        for c, lam in zip(coefficients, lams):
            v = v + lam.orbit_sum.scale(c)
        yield v


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_is_integral_agrees_with_the_complex_multiplicity_oracle(name):
    g = GROUPS[name]
    rng = random.Random(name)
    lams = rational_irreducibles(character_table(g))
    verdicts = []
    for v in _samples(g, rng):
        verdict = _decided(v)
        assert verdict == oracle_is_integral(v), v
        verdicts.append(verdict)
        if verdict:
            # each coefficient is the multiplicity of every member of its orbit
            mult = multiplicities(v)
            coefficients = rational_coefficients(v, "test")
            for lam, c in zip(lams, coefficients):
                assert all(mult[t].as_fraction() == c for t in lam.orbit)
    assert True in verdicts
    if g.order > 1:
        assert False in verdicts


def _cyclic(n):
    return group_from_permutations(n, [tuple(range(1, n)) + (0,)])


def _on_elements(g, values_at):
    """The class function of an abelian group with the given element values."""
    values = [0] * g.order
    for e, value in values_at.items():
        values[class_index_of(g)[e]] = value
    return VirtualCharacter(g, values)


def test_c3_with_zero_orbit_coefficients_is_not_integral():
    g = _cyclic(3)
    v = _on_elements(g, {1: 3, 2: -3})
    assert v.values == (0, 3, -3)
    # every coefficient over the rational irreducibles is 0, yet <v, chi_1> = -i sqrt 3
    lams = rational_irreducibles(character_table(g))
    assert all(inner_product(v, lam.orbit_sum) == 0 for lam in lams)
    assert not oracle_is_integral(v)
    assert not _decided(v)


def test_c4_with_opposite_values_at_a_generator_and_its_inverse_is_not_integral():
    g = _cyclic(4)
    gen = g.generator_elements[0]
    v = _on_elements(g, {gen: 2, g.inverse[gen]: -2})
    assert sorted(v.values) == [-2, 0, 0, 2]
    lams = rational_irreducibles(character_table(g))
    assert all(inner_product(v, lam.orbit_sum) == 0 for lam in lams)
    assert not oracle_is_integral(v)
    assert not _decided(v)


def test_orbit_sums_and_their_integer_combinations_are_integral():
    for name, g in GROUPS.items():
        lams = rational_irreducibles(character_table(g))
        for i, lam in enumerate(lams):
            expected = tuple(Fraction(int(j == i)) for j in range(len(lams)))
            assert rational_coefficients(lam.orbit_sum, name) == expected
