"""The benchmark's independent oracle, run on every builtin and on generated input.

``perfbench/check.py`` (read, never modified) recomputes the left-hand side
of the identity by the Hopf trace formula from generator data alone: it
re-enumerates the group from the generator permutations and composes the
generator vertex maps and lattice matrices itself.  For a builtin it reads
``generator_permutations``, ``generator_elements``, ``vertex_action``,
``simplices``, ``lattice.matrices`` and ``lattice.rank`` of the constructed
scenario; for a generated document it reads the document.  Either way its
answer must equal the lhs that ``full_verification`` computes through
cohomology.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from equilef import full_verification
from equilef.scenario_io import parse_scenario
from equilef.scenarios import builtin_names

PERFBENCH = Path(__file__).parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check = _load("check")
gen = _load("gen")


def test_builtins_match_the_hopf_oracle(by_name, summaries):
    for name in builtin_names():
        expected = check.expected_from_scenario(by_name[name])
        assert list(summaries[name].theorem.lhs.values) == expected, name


@pytest.mark.parametrize("workload", ["large-group", "large-complex"])
def test_generated_documents_match_the_hopf_oracle(workload):
    docs = gen.workload_docs(workload, 1)
    assert docs
    for doc in docs:
        lhs = full_verification(parse_scenario(json.dumps(doc))).theorem.lhs
        assert list(lhs.values) == check.expected_from_doc(doc), doc["name"]
