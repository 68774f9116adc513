"""G-data is checked once, at the generators; the per-element checks stay an oracle.

Constructors store what they are given.  ``build_complex`` checks that each
generator is simplicial, ``GLattice.from_generator_matrices`` that each
generator matrix is square of the rank, ``Group.from_table`` a raw table,
and ``groups.extend_from_generators`` every relation, which makes the
per-element action a homomorphism.  Everything the package builds from the
builtins, the generated documents and the s4/s5 rungs must still pass the
per-element checks of ``structure_oracle``, and an ``ast`` guard pins the
few places that may call each constructor.
"""

import ast
import json
from pathlib import Path

import pytest

from equilef import builtin_names, isotropy_classes, parse_scenario
from equilef.cohomology import GLattice
from equilef.complexes import SimplicialGComplex, barycentric_subdivision
from equilef.groups import Group, group_from_permutations
from structure_oracle import check_complex, check_group, check_lattice
from test_isotropy import DOCUMENTS

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "equilef").glob("*.py"))

# (class, outermost function) that may construct it: the sites whose data is
# checked at the generators or valid by construction
ALLOWED = {
    ("Group", "group_from_permutations"),
    ("Group", "as_group"),
    ("Group", "from_table"),
    ("SimplicialGComplex", "build_complex"),
    ("SimplicialGComplex", "barycentric_subdivision"),
    ("GLattice", "trivial"),
    ("GLattice", "regular"),
    ("GLattice", "from_generator_matrices"),
}
GUARDED = {cls for cls, _ in ALLOWED}


@pytest.fixture(scope="module", params=[*builtin_names(), *DOCUMENTS])
def scenario(request, by_name):
    if request.param in by_name:
        return by_name[request.param]
    return parse_scenario(json.dumps(DOCUMENTS[request.param]))


def test_groups_pass_the_table_checks(scenario):
    check_group(scenario.group)
    for cls in isotropy_classes(scenario.complex):
        check_group(cls.representative.as_group())


def test_complexes_pass_the_element_checks(scenario):
    x = scenario.complex
    check_complex(x)
    check_complex(barycentric_subdivision(x))


def test_lattices_pass_the_element_checks(scenario):
    check_lattice(scenario.lattice)
    check_lattice(scenario.base_lattice())
    if scenario.group.order <= 60:
        check_lattice(GLattice.regular(scenario.group))


def test_the_oracle_sees_broken_data():
    c3 = group_from_permutations(3, [(1, 2, 0)])
    rotation = [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
    # the rotation moves the edge (0, 1) to (1, 2), which is not in the complex
    with pytest.raises(AssertionError, match="element 1"):
        check_complex(SimplicialGComplex(c3, 3, [[(0,), (1,), (2,)], [(0, 1)]], rotation))
    with pytest.raises(AssertionError, match="matrix 1"):
        check_lattice(GLattice(c3, 1, [((1,),), ((2,),), ((1,),)]))
    with pytest.raises(ValueError, match="row 1"):
        check_group(Group([[0, 1, 2], [1, 0, 0], [2, 0, 0]]))


def _constructions(tree):
    """(class, outermost function) of every call of a guarded class by name,
    or of ``cls`` inside its own methods."""
    found = set()

    def visit(node, cls, owner):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            name = cls if node.func.id == "cls" else node.func.id
            if name in GUARDED:
                found.add((name, owner))
        if owner is None and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, cls, owner)

    for top in tree.body:
        if isinstance(top, ast.ClassDef):
            for item in top.body:
                visit(item, top.name, None)
        else:
            visit(top, None, None)
    return found


def test_constructors_are_called_only_where_their_data_is_valid():
    found = set()
    for path in SOURCES:
        found |= _constructions(ast.parse(path.read_text(encoding="utf-8")))
    assert found == ALLOWED


def test_the_guard_sees_every_construction():
    tree = ast.parse(
        "class GLattice:\n"
        "    @classmethod\n"
        "    def twisted(cls, g):\n"
        "        return cls(g, 1, [])\n"
        "def relabel(g):\n"
        "    def inner():\n"
        "        return Group(g.mul)\n"
        "    return inner()\n"
        "x = SimplicialGComplex(None, 1, [[(0,)]], [(0,)])\n"
    )
    assert _constructions(tree) == {
        ("GLattice", "twisted"), ("Group", "relabel"), ("SimplicialGComplex", None)}
