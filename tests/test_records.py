"""Record semantics: every result record is read-only, prints as
``Name(field=value, ...)``, and equals (and hashes as) a record built from
equal fields in the same order.

Each record is taken from a real run on ``triangle-s3`` (S3 on a circle) or,
for the scenario-file record, from the same action written as a file.
``CharacterTable`` owns the memo of its rational irreducibles, so it is
compared by identity and is exempt from the equality check.
"""

import json

import pytest

from equilef import (
    builtin_scenario,
    character_table,
    cohomology,
    conjugacy_classes_of_subgroups,
    element_classes,
    full_verification,
    rational_irreducibles,
)
from equilef.scenario_io import parse_scenario_file

TRIANGLE_S3_FILE = {
    "schema_version": 1,
    "name": "triangle-s3",
    "group": {"degree": 3, "generators": [[1, 2, 0], [1, 0, 2]]},
    "complex": {
        "vertices": 3,
        "maximal_simplices": [[0, 1], [1, 2], [0, 2]],
        "action": [[1, 2, 0], [1, 0, 2]],
    },
    "lattice": {"rank": 1, "action": {"0": [[1]], "1": [[1]]}},
}

# field names in constructor order
FIELDS = {
    "ElementClass": ("representative", "members"),
    "SubgroupClass": ("representative", "members", "order"),
    "ClassFunction": ("group", "values"),
    "CharacterTable": ("group", "classes", "irreducibles", "degrees"),
    "RationalIrreducible": ("group", "orbit", "orbit_sum", "orbit_size"),
    "CohomologySummary": ("dims_q", "betti", "torsion", "traces"),
    "ScenarioFile": (
        "schema_version", "name", "description", "group_degree", "group_generators",
        "vertices", "maximal_simplices", "complex_action", "lattice_rank",
        "lattice_action", "primes", "pre_subdivisions"),
    "IsotypicRow": ("orbit_index", "orbit_size", "coefficient"),
    "ClassTerm": (
        "subgroup", "subgroup_order", "normalizer_order", "conjugate_count", "weight",
        "stratum_sizes", "stratum_euler", "cohomology_dims", "theta", "induced",
        "isotypic"),
    "LefschetzReport": (
        "scenario_name", "lhs", "rhs_induction", "rhs_isotypic", "terms",
        "complex_counts", "subdivision_count", "passed", "elapsed_seconds"),
    "CorollaryReport": ("element", "whole_value", "fixed_value", "passed"),
    "FreeActionReport": (
        "applicable", "vanishing_ok", "covering_ok", "quotient_ok", "invariant_euler"),
    "VerdierReport": ("applicable", "multiple", "passed"),
    "ModpDegreeRow": ("degree", "modp_dim", "betti", "torsion_here", "torsion_above"),
    "ModpReport": ("prime", "chi_rational", "chi_modp", "rows"),
    "VerificationSummary": (
        "scenario_name", "theorem", "corollaries", "free_action", "verdier", "modp"),
}


@pytest.fixture(scope="module")
def records():
    s = builtin_scenario("triangle-s3")
    summary = full_verification(s)
    table = character_table(s.group)
    term = summary.theorem.terms[-1]
    found = [
        element_classes(s.group)[1],
        conjugacy_classes_of_subgroups(s.group)[1],
        table.irreducibles[1],
        table,
        rational_irreducibles(table)[1],
        cohomology(s.whole_cochains(), 1),
        parse_scenario_file(json.dumps(TRIANGLE_S3_FILE)),
        term.isotypic[0],
        term,
        summary.theorem,
        summary.corollaries[1],
        summary.free_action,
        summary.verdier,
        summary.modp[0].rows[0],
        summary.modp[0],
        summary,
    ]
    return {type(r).__name__: r for r in found}


def test_every_record_is_covered(records):
    assert sorted(records) == sorted(FIELDS)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_fields_cannot_be_set(records, name):
    record = records[name]
    for field in FIELDS[name]:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_repr_names_every_field(records, name):
    record = records[name]
    fields = ", ".join(f"{f}={getattr(record, f)!r}" for f in FIELDS[name])
    assert repr(record) == f"{name}({fields})"


@pytest.mark.parametrize("name", sorted(set(FIELDS) - {"CharacterTable"}))
def test_equal_fields_make_equal_records(records, name):
    record = records[name]
    rebuilt = type(record)(*(getattr(record, f) for f in FIELDS[name]))
    assert rebuilt is not record
    assert rebuilt == record and hash(rebuilt) == hash(record)


def test_a_character_table_is_equal_only_to_itself(records):
    table = records["CharacterTable"]
    copy = type(table)(*(getattr(table, f) for f in FIELDS["CharacterTable"]))
    assert table == table and copy != table
    assert rational_irreducibles(copy) == rational_irreducibles(table)
