"""Scenario files: a JSON format for (group, complex, lattice) triples.

A scenario file declares permutation generators, a simplicial complex with
one vertex map per generator, and integer matrices for the lattice action.
Parsing validates everything with pointed error locations; serialization is
canonical, so parse-serialize is the identity on canonical files.
"""

import json

from equilef import (
    full_verification,
    parse_scenario,
    parse_scenario_file,
    serialize_scenario,
)
from equilef.scenario_io import ScenarioError, summary_to_dict, summary_to_text

scenario_text = json.dumps({
    "schema_version": 1,
    "name": "hexagon-mirror",
    "description": "a hexagon circle flipped across a vertex axis",
    "group": {"degree": 6, "generators": [[0, 5, 4, 3, 2, 1]]},
    "complex": {
        "vertices": 6,
        "maximal_simplices": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [0, 5]],
        "action": [[0, 5, 4, 3, 2, 1]],
    },
    "lattice": {
        "rank": 2,
        "action": {"0": [[0, 1], [1, 0]]},
    },
    "options": {"primes": [2, 3]},
})

scenario = parse_scenario(scenario_text)
print(f"parsed scenario {scenario.name!r}: group order {scenario.group.order}, "
      f"complex {scenario.complex.counts()}, lattice rank {scenario.lattice.rank}")

summary = full_verification(scenario)
print()
print(summary_to_text(summary_to_dict(summary, scenario), scenario))

print("canonical serialization round-trips:")
sf = parse_scenario_file(scenario_text)
canonical = serialize_scenario(sf)
print(f"  identical after reparse: "
      f"{serialize_scenario(parse_scenario_file(canonical)) == canonical}")

print()
print("validation points straight at problems:")
broken = scenario_text.replace("[[0, 1], [1, 0]]", "[[0, 2], [1, 0]]")
try:
    parse_scenario_file(broken)
except ScenarioError as err:
    print(f"  {err}")
