"""The verify path builds terms for the isotropy classes only.

The term of [H] is zero when its exact stratum is empty, so ``verify``
lists only the classes of cell stabilizers (``isotropy_classes``).  The full
subgroup lattice stays the oracle: the isotropy classes must be exactly the
lattice's classes with a non-empty stratum, and each term must equal the
one the full-lattice loop builds for that class.  The identity alone would
not catch a dropped class whose stratum has Euler characteristic 0.
"""

import importlib
import importlib.util
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from equilef import (
    ClassTerm,
    IsotypicRow,
    builtin_names,
    character_table,
    cli,
    cochain_complex,
    conjugacy_classes_of_subgroups,
    exact_stratum,
    induce,
    isotropy_classes,
    parse_scenario,
    rational_coefficients,
    rational_irreducibles,
    restrict,
    rhs_induction,
)
from equilef.engine import _class_terms

# by import_module: the package exports a function named like the module
characters = importlib.import_module("equilef.characters")

PERFBENCH = Path(__file__).parents[1] / "perfbench"


def _load(name):
    """A perfbench module, read and never modified; ladder imports gen by name."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


gen, ladder = _load("gen"), _load("ladder")

DOCUMENTS = {
    f"{workload}-seed{seed}-{doc['name']}": doc
    for seed in (1, 2, 3)
    for workload in ("large-group", "large-complex")
    for doc in gen.workload_docs(workload, seed)
}
DOCUMENTS.update({f"rung-{rung}": ladder.rung_doc(rung) for rung in ("s4", "s5")})


@pytest.fixture(params=[*builtin_names(), *DOCUMENTS])
def scenario(request, by_name):
    if request.param in by_name:
        return by_name[request.param]
    return parse_scenario(json.dumps(DOCUMENTS[request.param]))


def full_lattice_term(s, cls) -> ClassTerm:
    """The term of one class as the loop over the whole lattice built it."""
    g, h = s.group, cls.representative
    n_order = g.order // len(cls.members)
    stratum = exact_stratum(s.complex, h)
    euler = stratum.euler_characteristic()
    theta = restrict(s.lattice.character(), h).scale(euler)
    irreducibles = rational_irreducibles(character_table(h.as_group()))
    coefficients = rational_coefficients(theta, "oracle")
    return ClassTerm(
        subgroup=h,
        subgroup_order=h.order,
        normalizer_order=n_order,
        conjugate_count=len(cls.members),
        weight=Fraction(h.order, n_order),
        stratum_sizes=stratum.sizes(),
        stratum_euler=euler,
        cohomology_dims=cochain_complex(stratum, s.base_lattice()).rational_dims(),
        theta=theta,
        induced=induce(h, theta),
        isotypic=tuple(
            IsotypicRow(idx, lam.orbit_size, c)
            for idx, (lam, c) in enumerate(zip(irreducibles, coefficients))
        ),
    )


def test_isotropy_classes_are_the_lattice_classes_with_a_nonempty_stratum(scenario):
    x = scenario.complex
    expected = [
        c for c in conjugacy_classes_of_subgroups(scenario.group)
        if any(exact_stratum(x, c.representative).sizes())
    ]

    def described(classes):
        return [(c.representative.member_set, len(c.members), c.order,
                 [h.member_set for h in c.members]) for c in classes]

    assert described(isotropy_classes(x)) == described(expected)


def test_terms_equal_the_full_lattice_terms(scenario):
    old = [full_lattice_term(scenario, c) for c in conjugacy_classes_of_subgroups(scenario.group)]
    kept = [t for t in old if any(t.stratum_sizes)]
    assert list(_class_terms(scenario)) == kept
    # the dropped terms are zero: the old sum is the new one
    total = kept[0].induced.scale(0)
    for term in old:
        total = total + term.induced.scale(term.weight)
    assert total == rhs_induction(scenario)


FREE = [name for name in builtin_names() if name.startswith(
    ("hexagon-rot", "octahedron-antipodal", "pair-of-triangles", "projective-plane",
     "point-trivial"))]


def test_a_free_action_has_one_term_the_trivial_subgroup(by_name, summaries):
    assert len(FREE) == 12
    assert FREE == [name for name in builtin_names() if by_name[name].complex.is_free()]
    for name in FREE:
        g = by_name[name].group
        (term,) = summaries[name].theorem.terms
        assert term.subgroup.member_set == (0,), name
        assert term.weight == Fraction(1, g.order), name
        assert term.conjugate_count == 1, name


def _counted(monkeypatch, module, name, record):
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        record.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


def test_verify_stays_off_the_subgroup_lattice(monkeypatch, tmp_path):
    path = tmp_path / "s5.json"
    path.write_text(json.dumps(ladder.rung_doc("s5")), encoding="utf-8")
    lattice_calls, tables = [], []
    # every module that holds the name, so no import path escapes the count
    for module in [m for n, m in sys.modules.items() if n.startswith("equilef.")]:
        if hasattr(module, "conjugacy_classes_of_subgroups"):
            _counted(monkeypatch, module, "conjugacy_classes_of_subgroups", lattice_calls)
    _counted(monkeypatch, characters, "_build_character_table", tables)
    assert cli.main(["verify", str(path), "--format", "json", "--out", str(tmp_path / "v")]) == 0
    assert lattice_calls == []
    assert [g.order for (g,) in tables] == [120]
    assert cli.main(["strata", str(path), "--format", "json", "--out", str(tmp_path / "s")]) == 0
    assert len(lattice_calls) >= 1
