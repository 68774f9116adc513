"""Verify computes each fact once, on one path.

Character values are lifted into ``Cyclotomic`` form once per table and
written once in integer coordinates over Z[zeta_e]; orthonormality and the
Galois orbit sums both read those coordinates, and the inner product is
rational.  So ``Cyclotomic`` is a value format with no field arithmetic: an
``ast`` guard finds no ring operation or Galois action defined on it, and no
elimination or ``Fraction`` in its module.

Coefficients are flat, so the cochains of a stratum that H fixes pointwise
are the trivial-coefficient cochains tensored with the lattice: the engine
reads the stratum's cohomology dimensions off the lattice complex whose
traces it uses, and builds no trivial-coefficient twin.  Every cochain
complex of a verification carries the scenario's own lattice.

The lattice check runs on every builtin and on the seed-1 ``large-group`` and
``large-complex`` documents, each scenario built afresh so nothing is cached.
"""

import ast
from pathlib import Path

from equilef import builtin_names, builtin_scenario, full_verification, parse_scenario
from equilef.cohomology import CochainComplex
from test_golden import generated_documents

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "equilef").glob("*.py"))
ARITHMETIC = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__truediv__", "__neg__", "galois", "conjugate"}


def _fresh_scenarios():
    with generated_documents() as paths:
        generated = [parse_scenario(path.read_text(encoding="utf-8")) for path in paths]
    return [builtin_scenario(name) for name in builtin_names()] + generated


def _cyclotomic_methods(tree) -> set[str]:
    """Names defined or assigned in the body of a class named Cyclotomic, or
    assigned to an attribute of Cyclotomic anywhere."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "Cyclotomic":
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names.add(item.name)
                elif isinstance(item, ast.Assign):
                    names.update(t.id for t in item.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.Assign):
            names.update(t.attr for t in node.targets if isinstance(t, ast.Attribute)
                         and isinstance(t.value, ast.Name) and t.value.id == "Cyclotomic")
    return names


def _imported_modules(tree) -> set[str]:
    """The modules a module imports, each by the last part of its name."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[-1] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            found.add((node.module or "").split(".")[-1])
    return found


def test_cyclotomic_is_a_value_format():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    defined = {stem: _cyclotomic_methods(tree) & ARITHMETIC for stem, tree in trees.items()}
    assert {stem: names for stem, names in defined.items() if names} == {}
    imports = _imported_modules(trees["cyclotomic"])
    assert imports & {"linalg", "fractions"} == set(), imports
    # the guard sees a ring operation, by either spelling, and such an import
    planted = ast.parse("from .linalg import reduce_columns\nfrom fractions import Fraction\n"
                        "class Cyclotomic:\n    def galois(self, k): pass\n"
                        "    __radd__ = galois\n"
                        "Cyclotomic.__mul__ = Cyclotomic.galois\n")
    assert _cyclotomic_methods(planted) == {"galois", "__radd__", "__mul__"}
    assert _imported_modules(planted) == {"linalg", "fractions"}


def test_every_cochain_complex_carries_the_scenario_lattice(monkeypatch):
    lattices = []
    init = CochainComplex.__init__

    def recording(cc, stratum, lattice):
        lattices.append(lattice)
        init(cc, stratum, lattice)

    monkeypatch.setattr(CochainComplex, "__init__", recording)
    for s in _fresh_scenarios():
        lattices.clear()
        full_verification(s)
        assert lattices, s.name
        assert all(lattice == s.lattice for lattice in lattices), s.name
