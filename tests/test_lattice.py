"""The subgroup lattice: cyclic extension against the pairwise-join oracle.

``lattice_oracle`` is the old enumeration (joins of all pairs of subgroups
re-scanned to a fixpoint, classes as orbits under every element); the
package enumerates classes by cyclic extension over class representatives.
Both must give the same subgroups, the same classes, the same
representatives and the same orders, and the known counts.
"""

from collections import Counter

import pytest

from equilef import builtin_scenarios
from equilef.groups import (
    conjugacy_classes_of_subgroups,
    group_from_permutations,
    normalizer,
    subgroups,
)
from lattice_oracle import oracle_classes, oracle_subgroups


def symmetric(n, gens="transposition-cycle"):
    if gens == "transposition-cycle":
        return group_from_permutations(
            n, [(1, 0) + tuple(range(2, n)), tuple(range(1, n)) + (0,)])
    # the adjacent transpositions, a different generating set of the same group
    return group_from_permutations(
        n, [tuple(range(i)) + (i + 1, i) + tuple(range(i + 2, n)) for i in range(n - 1)])


def a4():
    return group_from_permutations(4, [(1, 2, 0, 3), (0, 2, 3, 1)])


def d4():
    return group_from_permutations(4, [(1, 2, 3, 0), (0, 3, 2, 1)])


def a5():
    return group_from_permutations(5, [(1, 2, 0, 3, 4), (1, 2, 3, 4, 0)])


ORACLE_GROUPS = {"s4": lambda: symmetric(4), "a4": a4, "d4": d4, "a5": a5}


def class_tuples(g):
    return [tuple(h.member_set for h in c.members) for c in conjugacy_classes_of_subgroups(g)]


def assert_matches_oracle(g):
    assert [h.member_set for h in subgroups(g)] == oracle_subgroups(g)
    expected = oracle_classes(g)
    classes = conjugacy_classes_of_subgroups(g)
    assert class_tuples(g) == expected
    for c, members in zip(classes, expected):
        assert c.representative.member_set == members[0]
        assert c.order == len(members[0])
        assert c.representative is c.members[0]


def test_builtin_groups_match_oracle():
    seen = set()
    for s in builtin_scenarios():
        key = (s.group.generator_permutations, s.group.order)
        if key not in seen:
            seen.add(key)
            assert_matches_oracle(s.group)
    assert len(seen) >= 10


@pytest.mark.parametrize("name", sorted(ORACLE_GROUPS))
def test_small_groups_match_oracle(name):
    assert_matches_oracle(ORACLE_GROUPS[name]())


def test_group_without_generators_matches_oracle():
    # a subgroup re-based as a group of its own has a table but no generators
    s4 = symmetric(4)
    d8 = next(h for h in subgroups(s4) if h.order == 8).as_group()
    assert d8.generator_elements is None
    assert_matches_oracle(d8)


def test_subgroups_are_the_classes_flattened():
    g = symmetric(4)
    flat = [h for c in conjugacy_classes_of_subgroups(g) for h in c.members]
    flat.sort(key=lambda h: (h.order, h.member_set))
    assert len(flat) == len(subgroups(g))
    assert all(a is b for a, b in zip(flat, subgroups(g)))


@pytest.mark.parametrize("make, n_subgroups, n_classes", [
    (lambda: symmetric(4), 30, 11),
    (a5, 59, 9),
    (lambda: symmetric(5), 156, 19),
    (lambda: symmetric(6), 1455, 56),
])
def test_lattice_counts_and_orbit_stabilizer(make, n_subgroups, n_classes):
    g = make()
    classes = conjugacy_classes_of_subgroups(g)
    assert len(subgroups(g)) == n_subgroups
    assert len(classes) == n_classes
    for c in classes:
        assert len(c.members) * normalizer(g, c.representative).order == g.order


@pytest.mark.parametrize("n", [4, 5])
def test_lattice_shape_does_not_depend_on_generating_set(n):
    def shape(g):
        return Counter((c.order, len(c.members)) for c in conjugacy_classes_of_subgroups(g))

    a, b = symmetric(n), symmetric(n, gens="adjacent-transpositions")
    assert a.order == b.order
    assert len(b.generator_elements) == n - 1
    assert shape(a) == shape(b)
