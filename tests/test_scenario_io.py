"""Scenario files, canonical JSON reports, text rendering."""

import copy
import importlib
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from equilef.cyclotomic import Cyclotomic
from equilef.engine import full_verification, verify_theorem
from equilef.scenario_io import (
    ScenarioError,
    build_scenario,
    canonical_json,
    chartab_dict,
    chartab_text,
    cyclotomic_str,
    parse_scenario,
    parse_scenario_file,
    scenario_file_dict,
    serialize_scenario,
    strata_dict,
    strata_text,
    summary_to_dict,
    summary_to_text,
)
from equilef.scenarios import builtin_scenario
from chartab_oracle import OracleCyclotomic

SCENARIO_IO = importlib.import_module("equilef.scenario_io")

VALID = {
    "schema_version": 1,
    "name": "segment-swap",
    "group": {"degree": 2, "generators": [[1, 0]]},
    "complex": {
        "vertices": 2,
        "maximal_simplices": [[0, 1]],
        "action": [[1, 0]],
    },
    "lattice": {"rank": 1, "action": {"0": [[1]]}},
}


def mutated(mutate):
    d = copy.deepcopy(VALID)
    mutate(d)
    return json.dumps(d)


def test_valid_file_parses_and_verifies():
    scenario = parse_scenario(json.dumps(VALID))
    assert scenario.name == "segment-swap"
    # the swapped edge needs one subdivision to act regularly
    assert scenario.complex.subdivision_count == 1
    report = verify_theorem(scenario)
    assert report.passed


def test_serialization_round_trip_is_identity():
    sf = parse_scenario_file(json.dumps(VALID))
    text = serialize_scenario(sf)
    assert serialize_scenario(parse_scenario_file(text)) == text
    # canonical form is valid JSON with the same content
    again = json.loads(text)
    assert again["group"] == VALID["group"]
    assert again["lattice"]["action"]["0"] == [[1]]


def test_scenario_file_dict_matches_serialization():
    sf = parse_scenario_file(json.dumps(VALID))
    assert json.loads(serialize_scenario(sf)) == scenario_file_dict(sf)


ERROR_CASES = [
    (lambda d: d.pop("schema_version"), "$"),
    (lambda d: d.update(schema_version=9), "$.schema_version"),
    (lambda d: d["group"].update(degree="x"), "$.group.degree"),
    (lambda d: d["group"].update(generators=[[1, 1]]), "$.group.generators[0]"),
    (lambda d: d["complex"].update(maximal_simplices=[]),
     "$.complex.maximal_simplices"),
    (lambda d: d["complex"].update(maximal_simplices=[[0, 5]]),
     "$.complex.maximal_simplices[0]"),
    (lambda d: d["complex"].update(action=[[1, 0], [0, 1]]),
     "$.complex.action"),
    (lambda d: d["lattice"].update(rank=0), "$.lattice.rank"),
    (lambda d: d["lattice"].update(action={"0": [[2]]}),
     "$.lattice.action[0]"),
    (lambda d: d["lattice"].update(action={}), "$.lattice.action"),
    (lambda d: d.setdefault("options", {}).update(primes=[4]),
     "$.options.primes[0]"),
    # psi_12, a strong pseudoprime to every Miller-Rabin base 2..37
    (lambda d: d.setdefault("options", {}).update(primes=[2, 318665857834031151167461]),
     "$.options.primes[1]"),
    # a repeated prime would print its verdict twice
    (lambda d: d.setdefault("options", {}).update(primes=[3, 5, 3]),
     "$.options.primes[2]"),
    (lambda d: d.setdefault("options", {}).update(subdivisions=3),
     "$.options.subdivisions"),
    (lambda d: d.setdefault("options", {}).update(subdivisions=True),
     "$.options.subdivisions"),
    # every object takes only its documented fields
    (lambda d: d.update(comment="stray"), "$"),
    (lambda d: d.setdefault("options", {}).update(subdivision=2), "$.options"),
    (lambda d: d["group"].update(generator=[[1, 0]]), "$.group"),
    # without generators every vertex must be named by a listed simplex
    (lambda d: d.update(group={"degree": 2, "generators": []},
                        complex={"vertices": 3, "maximal_simplices": [[0, 1]], "action": []},
                        lattice={"rank": 1, "action": {}}),
     "$.complex.vertices"),
]


@pytest.mark.parametrize("case", range(len(ERROR_CASES)))
def test_error_locations(case):
    mutate, location = ERROR_CASES[case]
    with pytest.raises(ScenarioError) as err:
        parse_scenario_file(mutated(mutate))
    assert err.value.location == location
    assert str(err.value).startswith(location + ":")


@pytest.mark.parametrize("mutate, key", [
    (lambda d: d.update(comment="stray"), "comment"),
    (lambda d: d.setdefault("options", {}).update(subdivision=2), "subdivision"),
    (lambda d: d["group"].update(generator=[[1, 0]]), "generator"),
    (lambda d: d["complex"].update(actions=[]), "actions"),
    (lambda d: d["lattice"].update(matrices={}), "matrices"),
])
def test_unknown_fields_are_named(mutate, key):
    with pytest.raises(ScenarioError) as err:
        parse_scenario_file(mutated(mutate))
    assert err.value.message == f"unknown field {key!r}"


def test_unimodularity_message():
    with pytest.raises(ScenarioError) as err:
        parse_scenario_file(
            mutated(lambda d: d["lattice"].update(action={"0": [[2]]}))
        )
    assert "not invertible over integers" in err.value.message


def test_non_json_input():
    with pytest.raises(ScenarioError):
        parse_scenario_file("{not json")


def test_deeply_nested_json_is_rejected_at_the_root():
    with pytest.raises(ScenarioError) as err:
        parse_scenario_file("[" * 100_000)
    assert err.value.location == "$"
    assert "nested too deeply" in err.value.message


def test_build_rejects_relation_violations():
    # an order-2 generator acting with order 3 parses but cannot build
    bad = mutated(
        lambda d: d.update(
            complex={
                "vertices": 3,
                "maximal_simplices": [[0, 1, 2]],
                "action": [[1, 2, 0]],
            }
        )
    )
    sf = parse_scenario_file(bad)
    with pytest.raises(ScenarioError) as err:
        build_scenario(sf)
    assert err.value.location == "$.complex.action"
    assert "relation" in err.value.message


def test_build_rejects_a_non_simplicial_generator():
    # C2 x C2 acting through its second factor, which swaps vertices 1 and 2:
    # the relations hold, but generator 1 moves the edge (0, 1) off the complex
    bad = mutated(
        lambda d: d.update(
            group={"degree": 4, "generators": [[1, 0, 2, 3], [0, 1, 3, 2]]},
            complex={
                "vertices": 4,
                "maximal_simplices": [[0, 1], [2, 3]],
                "action": [[0, 1, 2, 3], [0, 2, 1, 3]],
            },
            lattice={"rank": 1, "action": {"0": [[1]], "1": [[1]]}},
        )
    )
    sf = parse_scenario_file(bad)
    with pytest.raises(ScenarioError) as err:
        build_scenario(sf)
    assert err.value.location == "$.complex.action"
    assert err.value.message == "generator 1 does not map simplex (0, 1) to a simplex"


def test_overlong_integer_is_an_input_error():
    # Python converts no integer of more than 4300 digits, so json.dumps cannot
    # write this document and json.loads cannot read it
    text = json.dumps(VALID).replace('"rank": 1', '"rank": ' + "1" * 5000)
    assert "1" * 5000 in text
    with pytest.raises(ScenarioError) as err:
        parse_scenario_file(text)
    assert err.value.location == "$"
    assert err.value.message.startswith("not valid JSON")


def test_canonical_json_is_deterministic():
    data = {"b": 1, "a": [{"x": 2, "y": 3}]}
    once = canonical_json(data)
    assert once == canonical_json(json.loads(once))
    assert once.endswith("\n")


_texts = st.text() | st.sampled_from(["", '"', "\\", "\n\t\x00\x1f", "\u2028", "é", "😀"])
_keys = _texts | st.integers() | st.floats() | st.booleans() | st.none()
_documents = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _texts,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_keys, inner, max_size=4)),
    max_leaves=25)


@settings(max_examples=300, deadline=None)
@given(_documents)
def test_canonical_json_writes_what_json_dumps_writes(data):
    assert canonical_json(data) == json.dumps(data, indent=2) + "\n"


# containers of str, int, bool and None only are written with one join
_leaf_documents = st.recursive(
    st.none() | st.booleans() | st.integers() | _texts,
    lambda inner: (st.lists(inner, max_size=5) | st.lists(inner, max_size=5).map(tuple)
                   | st.dictionaries(_keys, inner, max_size=5)),
    max_leaves=30)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_leaf_documents)
def test_containers_of_leaves_are_written_as_json_dumps_writes_them(data):
    assert canonical_json(data) == json.dumps(data, indent=2) + "\n"


@pytest.mark.parametrize("data", [{(1, 2): 0}, [{"a": {b"k": 1}}], {"a": {1, 2}}])
def test_canonical_json_refuses_what_json_dumps_refuses(data):
    with pytest.raises(TypeError):
        json.dumps(data, indent=2)
    with pytest.raises(TypeError):
        canonical_json(data)


def test_summary_dict_shape():
    s = builtin_scenario("square-reflection")
    summary = full_verification(s)
    d = summary_to_dict(summary, s)
    assert list(d.keys()) == [
        "scenario",
        "passed",
        "verdicts",
        "characters",
        "tables",
        "complex",
    ]
    assert d["passed"] is True
    assert list(d["verdicts"].keys()) == [
        "theorem",
        "corollary",
        "free_action",
        "verdier",
        "modp",
    ]
    # exact rationals ride as numerator/denominator strings
    assert d["characters"]["lhs"] == [
        {"num": "0", "den": "1"},
        {"num": "2", "den": "1"},
    ]
    assert "timings" not in d
    timed = summary_to_dict(summary, s, include_timings=True)
    assert "timings" in timed
    # no timestamps anywhere: rendering twice gives identical bytes
    assert canonical_json(d) == canonical_json(summary_to_dict(summary, s))


def test_summary_text_mentions_verdicts():
    s = builtin_scenario("point-c2")
    summary = full_verification(s)
    text = summary_to_text(summary_to_dict(summary, s), s)
    assert "point-c2" in text
    assert "pass" in text
    assert "MISMATCH" not in text


def test_cyclotomic_rendering():
    # package values, and oracle-field values where a sum or a fraction is needed
    def root(e, k=1):
        return OracleCyclotomic.from_root_combination(e, [0] * k + [1])

    z3 = Cyclotomic.from_root_combination(3, [0, 1])
    assert cyclotomic_str(z3) == "z3"
    assert cyclotomic_str(OracleCyclotomic.from_rational(1) + root(8)) == "1+z8"
    assert cyclotomic_str(Cyclotomic.from_root_combination(1, [-2])) == "-2"
    z5 = root(5)
    z5_2, z5_3 = root(5, 2), root(5, 3)
    half, third = Fraction(1, 2), Fraction(1, 3)
    assert cyclotomic_str(-half * z5_2) == "-1/2*z5^2"
    assert cyclotomic_str(3 * half - 3 * root(8, 3)) == "3/2-3*z8^3"
    assert cyclotomic_str(z5 + 2 * third * z5_3) == "z5+2/3*z5^3"
    assert cyclotomic_str(OracleCyclotomic.from_rational(-third)) == "-1/3"
    assert cyclotomic_str(Cyclotomic.from_root_combination(1, [0])) == "0"
    assert cyclotomic_str(Cyclotomic(5, (0, 0, 0, 0))) == "0"


def test_chartab_output():
    s = builtin_scenario("hexagon-rot3")
    d = chartab_dict(s)
    assert d["group_order"] == 3
    assert [row["degree"] for row in d["irreducibles"]] == [1, 1, 1]
    assert len(d["rational_irreducibles"]) == 2
    orbit_sizes = sorted(r["orbit_size"] for r in d["rational_irreducibles"])
    assert orbit_sizes == [1, 2]
    text = chartab_text(d)
    assert "z3" in text
    assert "rational irreducibles" in text


def test_chartab_renders_each_distinct_value_once(monkeypatch):
    # C6 has 36 values but only 6 distinct ones: each is one shared dict,
    # and its text is made once
    d = chartab_dict(builtin_scenario("hexagon-rot6"))
    values = [v for row in d["irreducibles"] for v in row["values"]]
    distinct = {json.dumps(v, sort_keys=True) for v in values}
    assert len(values) == 36 and len(distinct) == 6
    assert len({id(v) for v in values}) == len(distinct)
    text, rendered = chartab_text(d), []

    def counted(v):
        rendered.append(v)
        return cyclotomic_str(v)

    monkeypatch.setattr(SCENARIO_IO, "cyclotomic_str", counted)
    assert chartab_text(d) == text
    assert len(rendered) == 6


def test_strata_output():
    s = builtin_scenario("square-reflection")
    d = strata_dict(s)
    assert d["complex"]["counts"] == [4, 4]
    rows = d["subgroup_classes"]
    assert len(rows) == 2
    trivial_row, whole_row = rows
    assert trivial_row["fixed_sizes"] == [4, 4]
    assert trivial_row["exact_sizes"] == [2, 4]
    assert trivial_row["exact_euler_compact"] == -2
    assert whole_row["exact_sizes"] == [2, 0]
    assert whole_row["exact_euler_compact"] == 2
    text = strata_text(d)
    assert "square-reflection" in text


def test_fixed_strata_sizes_sum_to_complex():
    s = builtin_scenario("octahedron-klein4")
    d = strata_dict(s)
    totals = [0] * len(d["complex"]["counts"])
    for row in d["subgroup_classes"]:
        for k, v in enumerate(row["exact_sizes"]):
            totals[k] += v * row["conjugates"]
    # conjugate strata can overlap only in fixed parts, which stay with the
    # larger stabilizer, so the weighted exact sizes tile the complex
    assert totals == d["complex"]["counts"]
