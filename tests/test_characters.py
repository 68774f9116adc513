"""Character theory: orthogonality, induction, restriction, rational orbits."""

import importlib
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from equilef.characters import (
    CharacterTable,
    IntegralityError,
    _central_characters_mod_p,
    _dixon_prime,
    character_table,
    induce,
    inner_product,
    power_map,
    rational_coefficients,
    rational_irreducibles,
    regular_character,
    restrict,
    trivial_character,
)
from equilef.groups import (
    class_index_of,
    conjugacy_classes_of_subgroups,
    element_classes,
    group_from_permutations,
    subgroups,
)
from equilef.scenarios import builtin_scenario
from chartab_oracle import (
    OracleCyclotomic,
    alternating,
    cyclic,
    cyclotomic_inner_product,
    exponent_lift,
    kernel_split_mod_p,
    oracle_table,
    oracle_value,
    package_value,
    symmetric,
)

CHARACTERS = importlib.import_module("equilef.characters")
LINALG = importlib.import_module("equilef.linalg")

PRESENTATIONS = {
    "c1": (1, []),
    "c2": (2, [(1, 0)]),
    "c3": (3, [(1, 2, 0)]),
    "c4": (4, [(1, 2, 3, 0)]),
    "klein4": (4, [(1, 0, 3, 2), (2, 3, 0, 1)]),
    "c6": (6, [(1, 2, 3, 4, 5, 0)]),
    "s3": (3, [(1, 2, 0), (1, 0, 2)]),
}

ONE = OracleCyclotomic.from_rational(1)
ZERO = OracleCyclotomic.from_rational(0)


@pytest.fixture(scope="module", params=sorted(PRESENTATIONS))
def group(request):
    degree, gens = PRESENTATIONS[request.param]
    return group_from_permutations(degree, gens)


def test_row_orthogonality(group):
    table = character_table(group)
    for i, a in enumerate(table.irreducibles):
        for j, b in enumerate(table.irreducibles):
            expected = ONE if i == j else ZERO
            assert cyclotomic_inner_product(a, b) == expected, (i, j)


def test_inner_product_refuses_cyclotomic_class_functions(group):
    # pairing without the conjugation would be wrong off the real values
    chi = character_table(group).irreducibles[-1]
    with pytest.raises(TypeError, match="rational virtual characters"):
        inner_product(chi, chi)
    with pytest.raises(TypeError, match="rational virtual characters"):
        inner_product(trivial_character(group), chi)


def test_column_orthogonality(group):
    table = character_table(group)
    classes = element_classes(group)
    for i in range(len(classes)):
        for j in range(len(classes)):
            total = ZERO
            for chi in table.irreducibles:
                total = total + (oracle_value(chi.values[i])
                                 * oracle_value(chi.values[j]).conjugate())
            if i == j:
                centralizer = Fraction(group.order, classes[i].size)
                assert total == OracleCyclotomic.from_rational(centralizer)
            else:
                assert total == ZERO


def test_degree_sum_of_squares(group):
    table = character_table(group)
    assert len(table.irreducibles) == len(element_classes(group))
    assert sum(d * d for d in table.degrees) == group.order
    for d in table.degrees:
        assert d >= 1 and group.order % d == 0


def test_known_table_s3():
    # classes ordered identity, 3-cycles, transpositions
    degree, gens = PRESENTATIONS["s3"]
    group = group_from_permutations(degree, gens)
    table = character_table(group)
    values = sorted(
        tuple(oracle_value(v).as_fraction() for v in chi.values) for chi in table.irreducibles
    )
    assert values == sorted([(1, 1, 1), (1, 1, -1), (2, -1, 0)])


def test_degree_search_without_a_root_raises(monkeypatch):
    # degrees are searched up to isqrt|G|; S3 has a degree-2 character
    monkeypatch.setattr(math, "isqrt", lambda n: 1)
    degree, gens = PRESENTATIONS["s3"]
    with pytest.raises(ArithmeticError, match="no degree up to 1"):
        character_table(group_from_permutations(degree, gens))


def test_known_table_c4_has_fourth_root():
    degree, gens = PRESENTATIONS["c4"]
    group = group_from_permutations(degree, gens)
    table = character_table(group)
    i_unit = OracleCyclotomic.from_root_combination(4, [0, 1])
    faithful = [
        chi for chi in table.irreducibles
        if any(v == i_unit or v == -ONE * i_unit for v in chi.values)
    ]
    assert len(faithful) == 2


def test_rational_orbit_count_matches_rational_classes(group):
    # rational classes fuse g ~ g^k over k coprime to the exponent
    m = group.exponent()
    pm = power_map(group)
    n_classes = len(element_classes(group))
    fused = set()
    for j in range(n_classes):
        orbit = frozenset(
            pm[j][k % m] for k in range(1, m + 1) if math.gcd(k, m) == 1
        )
        fused.add(orbit)
    orbits = rational_irreducibles(character_table(group))
    assert len(orbits) == len(fused)
    # orbits partition the irreducibles
    indices = sorted(i for o in orbits for i in o.orbit)
    assert indices == list(range(n_classes))
    for o in orbits:
        assert o.orbit_size == len(o.orbit)
        # orbit sums take rational integer values; raises unless integral
        rational_coefficients(o.orbit_sum, "orbit sum")
        assert inner_product(o.orbit_sum, o.orbit_sum) == OracleCyclotomic.from_rational(
            o.orbit_size
        )


def test_regular_character_decomposition(group):
    # classwise, in cyclotomic arithmetic: reg = sum of degree * irreducible
    table = character_table(group)
    reg = regular_character(group)
    for j in range(len(element_classes(group))):
        total = ZERO
        for chi, d in zip(table.irreducibles, table.degrees):
            total = total + OracleCyclotomic.from_rational(d) * oracle_value(chi.values[j])
        assert total == OracleCyclotomic.from_rational(reg.values[j])
    class_of = class_index_of(group)
    assert reg.values[class_of[0]] == group.order
    for e in range(1, group.order):
        assert reg.values[class_of[e]] == 0


def random_virtual_character(rng, group):
    # integer combinations of orbit sums span the rational class functions
    orbits = rational_irreducibles(character_table(group))
    total = trivial_character(group).scale(0)
    for o in orbits:
        total = total + o.orbit_sum.scale(rng.randint(-3, 3))
    return total


def test_frobenius_reciprocity_randomized(group):
    rng = random.Random(group.order * 1000 + 17)
    subs = subgroups(group)
    for _ in range(100):
        h = rng.choice(subs)
        f = random_virtual_character(rng, h.as_group())
        w = random_virtual_character(rng, group)
        lhs = inner_product(induce(h, f), w)
        rhs = inner_product(f, restrict(w, h))
        assert lhs == rhs


def test_induction_degree_and_restriction_identity(group):
    for h in subgroups(group):
        inner = h.as_group()
        ind = induce(h, trivial_character(inner))
        assert ind.values[class_index_of(group)[0]] == Fraction(group.order, h.order)
        rational_coefficients(ind, "induced trivial character")  # raises unless integral
        res = restrict(trivial_character(group), h)
        assert res == trivial_character(inner)


def test_integrality_guard():
    degree, gens = PRESENTATIONS["c2"]
    group = group_from_permutations(degree, gens)
    good = trivial_character(group)
    assert rational_coefficients(good, "ok") == (1, 0)
    bad = good.scale(Fraction(1, 2))
    with pytest.raises(IntegralityError, match="half of the trivial character"):
        rational_coefficients(bad, "half of the trivial character")


def test_virtual_character_algebra():
    degree, gens = PRESENTATIONS["s3"]
    group = group_from_permutations(degree, gens)
    a = trivial_character(group)
    b = regular_character(group)
    assert (a + b) - b == a
    assert (-a) + a == a.scale(0)
    assert a.scale(3) == a + a + a
    assert 2 * a == a + a
    assert all(v == 0 for v in a.scale(0).values)
    assert not all(v == 0 for v in b.values)


def test_equal_virtual_characters_hash_equal_across_builds():
    # two builds of one scenario give distinct but equal groups
    a = builtin_scenario("torus-involution").lattice.character()
    b = builtin_scenario("torus-involution").lattice.character()
    assert a.group is not b.group
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_class_sums_are_built_one_class_at_a_time():
    # all r^3 structure constants of C_60 held at once peak above 2 MB
    g = group_from_permutations(60, [tuple(range(1, 60)) + (0,)])
    p = _dixon_prime(g.order, g.exponent())
    tracemalloc.start()
    try:
        rows = _central_characters_mod_p(g, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == 60 and all(degree == 1 for degree, _ in rows)
    assert peak < 1_000_000


def test_the_trivial_group_table_comes_from_the_class_algebra():
    g = group_from_permutations(1, [])
    table = character_table(g)
    assert table.degrees == (1,)
    assert table.irreducibles[0].values == (ONE,)
    assert _dixon_prime(g.order, g.exponent()) == 3
    assert _central_characters_mod_p(g, 3) == [(1, [1])]


def _table_reductions(monkeypatch, groups) -> int:
    """The reductions that building the character tables of the groups takes,
    counted on ``linalg.reduce_columns``: the Krylov reductions of the split,
    the only reductions of a build (``cyclotomic`` finds each value's field by
    relative traces, with no elimination)."""
    calls = [0]
    reduce_columns = LINALG.reduce_columns

    def counted(*args, **kwargs):
        calls[0] += 1
        return reduce_columns(*args, **kwargs)

    monkeypatch.setattr(LINALG, "reduce_columns", counted)
    for g in groups:
        character_table(g)
    return calls[0]


def test_a5_splits_in_a_dozen_reductions(monkeypatch):
    # a sweep over every lambda in F_31 took 50, shifts at the roots 10
    a5 = group_from_permutations(5, [(1, 2, 0, 3, 4), (1, 2, 3, 4, 0)])
    assert _table_reductions(monkeypatch, [a5]) <= 12


def test_s6_subgroup_class_tables_split_in_at_most_310_reductions(monkeypatch):
    # a sweep over every lambda in F_p took 2533 for these 56 tables, shifts
    # at the roots 663; equal representatives share one group and one table,
    # so 47 are built
    groups = [c.representative.as_group() for c in conjugacy_classes_of_subgroups(symmetric(6))]
    assert len(groups) == 56
    assert _table_reductions(monkeypatch, groups) <= 310


def test_every_reduction_of_the_split_is_a_krylov_reduction(monkeypatch):
    # the projections are combinations of Krylov vectors already built: no
    # reduction runs outside minimal_polynomial
    minimal, reduce_columns = CHARACTERS.minimal_polynomial, LINALG.reduce_columns
    inside, calls = [False], []

    def krylov(*args):
        inside[0] = True
        try:
            return minimal(*args)
        finally:
            inside[0] = False

    def counted(*args, **kwargs):
        calls.append(inside[0])
        return reduce_columns(*args, **kwargs)

    monkeypatch.setattr(CHARACTERS, "minimal_polynomial", krylov)
    monkeypatch.setattr(LINALG, "reduce_columns", counted)
    for g in (symmetric(4), symmetric(5), group_from_permutations(6, [(1, 2, 3, 4, 5, 0)])):
        _central_characters_mod_p(g, _dixon_prime(g.order, g.exponent()))
    assert calls and all(calls)


SPLIT_GROUPS = {
    "s4": lambda: symmetric(4),
    "a5": lambda: alternating(5),
    "s5": lambda: symmetric(5),
    "s6": lambda: symmetric(6),
    "c12": lambda: cyclic(12),
    "c30": lambda: cyclic(30),
    "c60": lambda: cyclic(60),
}


@pytest.mark.parametrize("name", sorted(SPLIT_GROUPS))
def test_the_idempotent_split_equals_the_kernel_split_on_every_subgroup_class(name):
    for cls in conjugacy_classes_of_subgroups(SPLIT_GROUPS[name]()):
        h = cls.representative.as_group()
        p = _dixon_prime(h.order, h.exponent())
        assert sorted(_central_characters_mod_p(h, p)) == sorted(kernel_split_mod_p(h, p)), \
            cls.representative


@pytest.mark.parametrize("name", ["s6", "c12"])
def test_tables_equal_the_oracle_on_every_subgroup_class(name):
    # the oracle checks every pair; C_30 and C_60 are compared split by split
    # above and lift by lift below, since its cyclotomic pairs take seconds
    for cls in conjugacy_classes_of_subgroups(SPLIT_GROUPS[name]()):
        h = cls.representative.as_group()
        table = character_table(h)
        assert [(d, chi.values) for d, chi in zip(table.degrees, table.irreducibles)] \
            == oracle_table(h), cls.representative


@pytest.mark.parametrize("g", [
    cyclic(12), cyclic(30), alternating(4), symmetric(4),
    # C3 x S3: linear characters with values zeta_3 beside real degree-2 ones
    group_from_permutations(6, [(1, 2, 0, 3, 4, 5), (0, 1, 2, 4, 5, 3), (0, 1, 2, 4, 3, 5)]),
], ids=["c12", "c30", "a4", "s4", "c3xs3"])
def test_the_lift_equals_the_exponent_lift_row_by_row(g):
    # row by row, before the table is sorted: a lift that conjugated every
    # linear character would still give the same sorted table
    p = _dixon_prime(g.order, g.exponent())
    rows = _central_characters_mod_p(g, p)
    assert CHARACTERS._lift(g, p, rows) == exponent_lift(g, p, rows)


def _plus_one_tables(table):
    """The table with one value raised by 1, for each non-identity position."""
    for i, chi in enumerate(table.irreducibles):
        for k in range(1, len(chi.values)):
            raised = package_value(oracle_value(chi.values[k]) + 1)
            values = chi.values[:k] + (raised,) + chi.values[k + 1:]
            rows = table.irreducibles[:i] + (chi._replace(values=values),) \
                + table.irreducibles[i + 1:]
            yield CharacterTable(table.group, table.classes, rows, table.degrees)


@pytest.mark.parametrize("g", [cyclic(12), alternating(4), symmetric(4)], ids=["c12", "a4", "s4"])
def test_the_orbit_check_names_the_pair_the_all_pairs_check_names(monkeypatch, g):
    # on a genuine table every unit mod the exponent gives a permutation of the rows
    table = character_table(g)
    m = g.exponent()
    action = CHARACTERS._galois_action(table)
    assert len(action) == sum(math.gcd(k, m) == 1 for k in range(1, m + 1))
    assert all(sorted(pi) == list(range(len(table.irreducibles))) for pi in action)
    for bad in _plus_one_tables(table):
        with pytest.raises(ArithmeticError, match="not orthonormal") as by_orbit:
            CHARACTERS._check_orthonormality(bad)
        with monkeypatch.context() as patch:
            patch.setattr(CHARACTERS, "_galois_action", lambda t: [])
            with pytest.raises(ArithmeticError, match="not orthonormal") as by_pair:
                CHARACTERS._check_orthonormality(bad)
        assert str(by_orbit.value) == str(by_pair.value)


def test_the_rational_irreducibles_read_the_action_the_table_check_walked(monkeypatch):
    # the units mod the exponent are walked once, while the table is checked
    table = character_table(cyclic(12))

    def refused(g):
        raise AssertionError("a second walk of the units")

    monkeypatch.setattr(CHARACTERS, "power_map", refused)
    orbits = [lam.orbit for lam in rational_irreducibles(table)]
    assert sorted(u for orbit in orbits for u in orbit) == list(range(12))
    assert len(orbits) == 6  # one per divisor of 12

