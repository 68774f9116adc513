"""Exact arithmetic: no float enters the package, and integers stay ints.

A guard reads ``src/equilef`` with ``ast`` and finds no float literal, no
``float(...)`` call and no true division ``/`` unless one operand is a
``Fraction(...)`` call: with integer-valued characters stored as ints, an
``int / int`` would silently make a float.  ``VirtualCharacter`` refuses a
float outright.

The values the theorem forces to be integers (the three characters, every
stratum character and induced term, every isotypic coefficient and every
Lefschetz number) are pinned to be exactly ``int`` on the builtins and the
seed-1 generated documents; only a weight |H|/|N(H)| that is not an integer
is a Fraction.
"""

import ast
import json
from fractions import Fraction
from pathlib import Path

import pytest

from equilef import builtin_scenarios, full_verification
from equilef.characters import VirtualCharacter, trivial_character
from equilef.groups import group_from_permutations
from equilef.scenario_io import parse_scenario

from test_admission import _load

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "equilef").glob("*.py"))


def _is_fraction_call(node) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "Fraction")


def inexact_sites(tree) -> list[tuple[int, str]]:
    """(line, what) for each float literal, float() call and unguarded true division."""
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            sites.append((node.lineno, f"float literal {node.value!r}"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            sites.append((node.lineno, "float() call"))
        elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
              and not (_is_fraction_call(node.left) or _is_fraction_call(node.right))):
            sites.append((node.lineno, "true division without a Fraction operand"))
        elif (isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div)
              and not _is_fraction_call(node.value)):
            sites.append((node.lineno, "/= without a Fraction operand"))
    return sites


def test_the_package_has_no_float_and_no_unguarded_true_division():
    found = [f"{path.name}:{line}: {what}"
             for path in SOURCES
             for line, what in inexact_sites(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []


@pytest.mark.parametrize("snippet", [
    "x = 0.5", "x = float(n)", "x = a / b", "x = total / len(xs)", "x /= 2"])
def test_the_guard_finds_each_kind_of_inexact_site(snippet):
    assert inexact_sites(ast.parse(snippet))


@pytest.mark.parametrize("snippet", [
    "x = Fraction(a) / b", "x = 1 / Fraction(lead)", "x = a // b", "x /= Fraction(2)"])
def test_the_guard_admits_floor_and_fraction_division(snippet):
    assert inexact_sites(ast.parse(snippet)) == []


C2 = group_from_permutations(2, [(1, 0)])


@pytest.mark.parametrize("value", [0.5, 1.0, "1", None])
def test_a_virtual_character_refuses_a_value_that_is_not_an_int_or_a_fraction(value):
    with pytest.raises(TypeError):
        VirtualCharacter(C2, [1, value])
    with pytest.raises(TypeError):
        trivial_character(C2).scale(value)


def test_values_are_ints_when_integral_and_fractions_otherwise():
    from_fractions = VirtualCharacter(C2, [Fraction(4, 2), Fraction(-3)])
    from_ints = VirtualCharacter(C2, [2, -3])
    assert [type(v) for v in from_fractions.values] == [int, int]
    assert from_fractions == from_ints
    assert hash(from_fractions) == hash(from_ints)
    half = from_ints.scale(Fraction(1, 2))
    assert half.values == (1, Fraction(-3, 2))
    assert [type(v) for v in half.values] == [int, Fraction]
    assert [type(v) for v in (half + half).values] == [int, int]


def _scenarios():
    gen = _load("gen")
    docs = gen.workload_docs("large-complex", 1) + gen.workload_docs("large-group", 1)
    return builtin_scenarios() + [parse_scenario(json.dumps(d)) for d in docs]


def _int_typed(values) -> bool:
    return all(type(v) is int for v in values)


def test_every_value_the_theorem_makes_integral_is_an_int():
    fraction_weights = 0
    scenarios = _scenarios()
    assert len(scenarios) == 27 + 9
    for s in scenarios:
        summary = full_verification(s)
        assert summary.passed, s.name
        theorem = summary.theorem
        for character in (theorem.lhs, theorem.rhs_induction, theorem.rhs_isotypic):
            assert _int_typed(character.values), s.name
        for term in theorem.terms:
            assert _int_typed(term.theta.values), s.name
            assert _int_typed(term.induced.values), s.name
            assert _int_typed(row.coefficient for row in term.isotypic), s.name
            if term.subgroup_order % term.normalizer_order:
                assert type(term.weight) is Fraction, s.name
                assert term.weight.denominator != 1
                fraction_weights += 1
            else:
                assert type(term.weight) is int, s.name
        cc = s.whole_cochains()
        assert _int_typed(cc.lefschetz_number(g) for g in range(s.group.order)), s.name
        assert _int_typed(v for c in summary.corollaries
                          for v in (c.whole_value, c.fixed_value)), s.name
        if summary.free_action.applicable:
            assert type(summary.free_action.invariant_euler) is int, s.name
            assert type(summary.verdier.multiple) is int, s.name
    assert fraction_weights > 0
