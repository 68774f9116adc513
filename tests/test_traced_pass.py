"""The benchmark's traced pass, run on every builtin and on generated input.

``perfbench/layers.py`` (read, never modified) makes the calls of ``equilef
verify`` one layer at a time and counts the cochain complexes it meets: each
distinct object once (``complexes_built``) and each distinct pair of cells and
lattice matrices once (``complexes_distinct``).  A stratum is its cells, so the
two counts must agree: a cell set met twice is one Stratum with one complex.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from equilef.scenarios import builtin_names

PERFBENCH = Path(__file__).parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layers = _load("layers")
gen = _load("gen")


def _targets(workload, tmp_path):
    if workload == "corpus":
        return builtin_names()
    targets = []
    for doc in gen.workload_docs(workload, 1):
        path = tmp_path / f"{doc['name']}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        targets.append(str(path))
    return targets


@pytest.mark.parametrize("workload", ["corpus", "large-complex", "large-group"])
def test_traced_pass_builds_each_complex_once(workload, tmp_path):
    rec = layers.Recorder()
    targets = _targets(workload, tmp_path)
    assert targets
    for target in targets:
        assert layers.traced_scenario(target, tmp_path / "report.json", rec) == 0, target
    counts = rec.counts
    assert counts["cohomology.complexes_built"] == counts["cohomology.complexes_distinct"]
