"""Group machinery against brute-force enumeration oracles."""

import math
from itertools import combinations

import pytest

from equilef.scenarios import builtin_names, builtin_scenario
from equilef.groups import (
    Group,
    class_index_of,
    conjugacy_classes_of_subgroups,
    element_classes,
    group_from_permutations,
    max_group_order,
    normalizer,
    subgroups,
)

# one representative permutation presentation per abstract corpus group
PRESENTATIONS = {
    "c1": (1, []),
    "c2": (2, [(1, 0)]),
    "c3": (3, [(1, 2, 0)]),
    "c4": (4, [(1, 2, 3, 0)]),
    "klein4": (4, [(1, 0, 3, 2), (2, 3, 0, 1)]),
    "c6": (6, [(1, 2, 3, 4, 5, 0)]),
    "s3": (3, [(1, 2, 0), (1, 0, 2)]),
}


@pytest.fixture(scope="module", params=sorted(PRESENTATIONS))
def group(request):
    degree, gens = PRESENTATIONS[request.param]
    return group_from_permutations(degree, gens)


def closure(g, seed):
    members = {0}
    frontier = set(seed)
    while frontier:
        members |= frontier
        frontier = {
            g.mul[a][b] for a in members for b in members
        } - members
    return tuple(sorted(members))


def brute_force_subgroups(g):
    found = {(0,)}
    elements = range(g.order)
    for size in (1, 2):
        for seed in combinations(elements, size):
            found.add(closure(g, seed))
    return sorted(found, key=lambda m: (len(m), m))


def test_subgroup_enumeration_matches_brute_force(group):
    ours = [h.member_set for h in subgroups(group)]
    assert sorted(ours) == sorted(brute_force_subgroups(group))
    assert len(set(ours)) == len(ours)


def test_lagrange_and_closure(group):
    for h in subgroups(group):
        assert group.order % h.order == 0
        for a in h.member_set:
            assert group.inverse[a] in h.member_set
            for b in h.member_set:
                assert group.mul[a][b] in h.member_set


def test_element_classes_are_conjugacy_orbits(group):
    classes = element_classes(group)
    seen = [e for c in classes for e in c.members]
    assert sorted(seen) == list(range(group.order))
    assert classes[0].members == (0,)
    for c in classes:
        orbit = {group.conj(g, c.representative) for g in range(group.order)}
        assert orbit == set(c.members)
    index_map = class_index_of(group)
    for e in range(group.order):
        assert e in classes[index_map[e]].members


def test_normalizer_matches_brute_force(group):
    for h in subgroups(group):
        expected = {
            g
            for g in range(group.order)
            if {group.conj(g, x) for x in h.member_set} == set(h.member_set)
        }
        assert set(normalizer(group, h).member_set) == expected
        # the normalizer contains H itself
        assert set(h.member_set) <= expected


def test_subgroup_classes_are_conjugation_orbits(group):
    classes = conjugacy_classes_of_subgroups(group)
    all_listed = [h.member_set for c in classes for h in c.members]
    assert sorted(all_listed) == sorted(h.member_set for h in subgroups(group))
    for c in classes:
        orbit = {
            tuple(sorted(group.conj(g, x) for x in c.representative.member_set))
            for g in range(group.order)
        }
        assert orbit == {h.member_set for h in c.members}
        # class size x normalizer order = group order
        n = normalizer(group, c.representative)
        assert len(c.members) * n.order == group.order


def test_cyclic_subgroups_and_orders(group):
    for a in range(group.order):
        cyc = group.cyclic_subgroup(a)
        assert cyc.order == group.element_order(a)
        power = 0
        for _ in range(group.element_order(a)):
            power = group.mul[power][a]
        assert power == 0
        assert group.mul[a][group.inverse[a]] == 0
    assert group.exponent() == math.lcm(
        *(group.element_order(a) for a in range(group.order))
    )


def test_subgroup_as_group_is_isomorphic_image(group):
    for h in subgroups(group):
        inner = h.as_group()
        assert inner.order == h.order
        if h.order == group.order:
            assert inner is group
            continue
        for a in range(h.order):
            for b in range(h.order):
                product = group.mul[h.to_parent(a)][h.to_parent(b)]
                assert inner.mul[a][b] == h.member_set.index(product)


def test_rejects_bad_presentations(monkeypatch):
    with pytest.raises(ValueError):
        group_from_permutations(3, [(0, 0, 1)])
    monkeypatch.setenv("EQUILEF_MAX_GROUP_ORDER", "2")
    with pytest.raises(ValueError):
        group_from_permutations(3, [(1, 2, 0)])
    with pytest.raises(ValueError):
        Group([[0, 1], [1, 1]])
    with pytest.raises(ValueError):
        Group([[1, 0], [0, 1]])


def test_order_bound_env(monkeypatch):
    monkeypatch.setenv("EQUILEF_MAX_GROUP_ORDER", "5")
    assert max_group_order() == 5
    with pytest.raises(ValueError):
        group_from_permutations(6, [(1, 2, 3, 4, 5, 0)])
    monkeypatch.setenv("EQUILEF_MAX_GROUP_ORDER", "nope")
    with pytest.raises(ValueError):
        max_group_order()
    monkeypatch.delenv("EQUILEF_MAX_GROUP_ORDER")
    assert max_group_order() >= 6


def test_generator_words_multiply_out(group):
    assert group.words is not None
    for e in range(group.order):
        word = group.words[e]
        acc = 0
        for gen_index in word:
            acc = group.mul[acc][group.generator_elements[gen_index]]
        assert acc == e


def composed_table(g):
    """The table of g recomputed by composing the permutations of its words."""
    gens = g.generator_permutations
    degree = len(gens[0]) if gens else 1
    elems = []
    for word in g.words:
        perm = tuple(range(degree))
        for j in word:
            perm = tuple(perm[gens[j][v]] for v in range(degree))
        elems.append(perm)
    index = {perm: i for i, perm in enumerate(elems)}
    assert len(index) == g.order
    return tuple(
        tuple(index[tuple(a[b[v]] for v in range(degree))] for b in elems)
        for a in elems
    )


S4 = (4, [(1, 0, 2, 3), (1, 2, 3, 0)])
A5 = (5, [(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)])
S5 = (5, [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)])
# redundant generators, the identity among them
S4_REDUNDANT = (4, [(0, 1, 2, 3), (1, 0, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2), (1, 2, 3, 0)])


@pytest.mark.parametrize("presentation, order",
                         [(S4, 24), (A5, 60), (S5, 120), (S4_REDUNDANT, 24)],
                         ids=["s4", "a5", "s5", "s4-redundant"])
def test_closure_table_matches_composed_permutations(presentation, order):
    g = group_from_permutations(*presentation)
    assert g.order == order
    assert g.mul == composed_table(g)


def test_builtin_closure_tables_match_composed_permutations():
    for name in builtin_names():
        g = builtin_scenario(name).group
        assert g.mul == composed_table(g), name
