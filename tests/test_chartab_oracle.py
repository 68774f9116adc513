"""Character tables against the exponent-lift oracle, and the integer
orthonormality check against corrupted tables."""

from fractions import Fraction

import pytest

from equilef.characters import CharacterTable, _check_orthonormality, character_table
from equilef.cyclotomic import Cyclotomic
from equilef.groups import conjugacy_classes_of_subgroups, group_from_permutations
from chartab_oracle import alternating, oracle_table, symmetric

GROUPS = {
    "s4": lambda: symmetric(4),
    "a4": lambda: alternating(4),
    "d4": lambda: group_from_permutations(4, [(1, 2, 3, 0), (0, 3, 2, 1)]),
    "a5": lambda: alternating(5),
    "s5": lambda: symmetric(5),
}

ZETA_4 = Cyclotomic.from_root_combination(4, [0, 1])


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_tables_equal_oracle_on_every_subgroup_class(name):
    g = GROUPS[name]()
    for cls in conjugacy_classes_of_subgroups(g):
        h = cls.representative.as_group()
        table = character_table(h)
        assert [(d, chi.values) for d, chi in zip(table.degrees, table.irreducibles)] \
            == oracle_table(h), cls.representative


def _corrupted(table, i, k, value):
    chi = table.irreducibles[i]
    values = chi.values[:k] + (value,) + chi.values[k + 1:]
    irreducibles = list(table.irreducibles)
    irreducibles[i] = chi._replace(values=values)
    return CharacterTable(table.group, table.classes, tuple(irreducibles), table.degrees)


def _positions(table):
    return [(i, k) for i in range(len(table.irreducibles)) for k in range(len(table.classes))]


@pytest.mark.parametrize("name", ["s4", "a4", "d4"])
def test_value_times_zeta_4_is_rejected(name):
    table = character_table(GROUPS[name]())
    for i, k in _positions(table):
        value = table.irreducibles[i].values[k]
        if value:
            bad = _corrupted(table, i, k, value * ZETA_4)
            with pytest.raises(ArithmeticError, match="not orthonormal"):
                _check_orthonormality(bad)


@pytest.mark.parametrize("name", ["s4", "a4", "d4"])
def test_value_plus_one_at_a_non_identity_class_is_rejected(name):
    table = character_table(GROUPS[name]())
    for i, k in _positions(table):
        if k:
            bad = _corrupted(table, i, k, table.irreducibles[i].values[k] + 1)
            with pytest.raises(ArithmeticError, match="not orthonormal"):
                _check_orthonormality(bad)


@pytest.mark.parametrize("name", ["s4", "a4", "d4"])
def test_doubled_character_is_rejected(name):
    # orthogonal to every other row, so only the norm <chi, chi> can tell
    table = character_table(GROUPS[name]())
    for i, chi in enumerate(table.irreducibles):
        bad = table
        for k, value in enumerate(chi.values):
            bad = _corrupted(bad, i, k, value * 2)
        with pytest.raises(ArithmeticError, match="not orthonormal"):
            _check_orthonormality(bad)


@pytest.mark.parametrize("value", [
    Cyclotomic.from_rational(Fraction(1, 2)),
    Cyclotomic.from_root_combination(3, [Fraction(1, 2), Fraction(1, 2)]),
    Cyclotomic.from_root_combination(12, [0, Fraction(3, 2)]),
])
def test_half_integer_coordinate_is_rejected(value):
    table = character_table(GROUPS["a4"]())
    bad = _corrupted(table, 1, 2, value)
    with pytest.raises(ArithmeticError, match="not an algebraic integer"):
        _check_orthonormality(bad)
