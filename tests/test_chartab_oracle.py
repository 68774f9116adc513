"""Character tables against the exponent-lift oracle, their values' canonical
form against the oracle field's, and the integer orthonormality check against
corrupted tables."""

import importlib

import pytest

from equilef.characters import CharacterTable, _check_orthonormality, character_table
from equilef.cyclotomic import Cyclotomic
from equilef.groups import conjugacy_classes_of_subgroups, group_from_permutations
from chartab_oracle import (
    OracleCyclotomic,
    alternating,
    cyclic,
    oracle_table,
    oracle_value,
    package_value,
    symmetric,
)

CYCLOTOMIC = importlib.import_module("equilef.cyclotomic")

GROUPS = {
    "s4": lambda: symmetric(4),
    "a4": lambda: alternating(4),
    "d4": lambda: group_from_permutations(4, [(1, 2, 3, 0), (0, 3, 2, 1)]),
    "a5": lambda: alternating(5),
    "s5": lambda: symmetric(5),
}

ZETA_4 = OracleCyclotomic.from_root_combination(4, [0, 1])


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_tables_equal_oracle_on_every_subgroup_class(name):
    g = GROUPS[name]()
    for cls in conjugacy_classes_of_subgroups(g):
        h = cls.representative.as_group()
        table = character_table(h)
        assert [(d, chi.values) for d, chi in zip(table.degrees, table.irreducibles)] \
            == oracle_table(h), cls.representative


def _assert_canonical_forms_agree(table):
    """Each value of the table, rebuilt from its coordinates over its own
    conductor and, unreduced, over the group's exponent, has the same
    canonical form in the package and in the oracle field."""
    m = table.group.exponent()
    for v in {v for chi in table.irreducibles for v in chi.values}:
        over_m = [0] * m
        for i, c in enumerate(v.coeffs):
            over_m[i * (m // v.conductor)] = c
        for e, coords in ((v.conductor, v.coeffs), (m, over_m)):
            ours = Cyclotomic.from_root_combination(e, coords)
            theirs = OracleCyclotomic.from_root_combination(e, coords)
            assert (ours.conductor, ours.coeffs) == (theirs.conductor, theirs.coeffs) \
                == (v.conductor, v.coeffs), (v, e)


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_canonical_forms_equal_the_oracle_fields_on_every_subgroup_class(name):
    g = GROUPS[name]()
    for cls in conjugacy_classes_of_subgroups(g):
        _assert_canonical_forms_agree(character_table(cls.representative.as_group()))


def test_canonical_forms_equal_the_oracle_fields_on_cyclic_groups():
    # the values of C_n are the n-th roots of unity, in every subfield of Q(zeta_n)
    for n in range(1, 61):
        _assert_canonical_forms_agree(character_table(cyclic(n)))


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
        if value != 0:
            bad = _corrupted(table, i, k, package_value(oracle_value(value) * ZETA_4))
            with pytest.raises(ArithmeticError, match="not orthonormal"):
                _check_orthonormality(bad)


@pytest.mark.parametrize("name", ["s4", "a4", "d4"])
def test_value_plus_one_at_a_non_identity_class_is_rejected(name):
    table = character_table(GROUPS[name]())
    for i, k in _positions(table):
        if k:
            bad = _corrupted(
                table, i, k, package_value(oracle_value(table.irreducibles[i].values[k]) + 1))
            with pytest.raises(ArithmeticError, match="not orthonormal"):
                _check_orthonormality(bad)


@pytest.mark.parametrize("name", ["s4", "a4", "d4"])
def test_doubled_character_is_rejected(name):
    # orthogonal to every other row, so only the norm <chi, chi> can tell
    table = character_table(GROUPS[name]())
    for i, chi in enumerate(table.irreducibles):
        bad = table
        for k, value in enumerate(chi.values):
            bad = _corrupted(bad, i, k, package_value(oracle_value(value) * 2))
        with pytest.raises(ArithmeticError, match="not orthonormal"):
            _check_orthonormality(bad)


def test_half_integer_coordinate_is_rejected(monkeypatch):
    # a table for Q(zeta_3) inside Q(zeta_6) that claims degree 2, with its
    # embeddings doubled to match, accepts every value of Q(zeta_6) with its
    # trace: z6 = -z3^2 = 1 + z3 gets the coordinates (1/2, 1/2)
    subfield = CYCLOTOMIC._subfield

    def doubled(e, d):
        k, traces, lifts = subfield(e, d)
        if (e, d) != (6, 3):
            return k, traces, lifts
        return 2 * k, traces, tuple(tuple((r, 2 * c) for r, c in lift) for lift in lifts)

    monkeypatch.setattr(CYCLOTOMIC, "_subfield", doubled)
    message = r"trace \[1, 1\] over Q\(zeta_3\) of a value of Q\(zeta_6\) is not divisible by 2"
    with pytest.raises(ArithmeticError, match=message):
        Cyclotomic.from_root_combination(6, [0, 1])
    with pytest.raises(ArithmeticError, match="is not divisible by 2"):
        character_table(group_from_permutations(6, [(1, 2, 3, 4, 5, 0)]))
