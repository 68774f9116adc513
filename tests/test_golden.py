"""Behaviour contract: canonical corpus output is pinned byte for byte.

``tests/golden/corpus.json`` is the output of ``equilef corpus --format json``.
``tests/golden/chartab.json`` holds ``equilef chartab --format json`` of every
builtin, in ``builtin_names()`` order, as ``{"chartabs": [...]}``; it pins
the character tables themselves, which the corpus sees only through
isotypic coefficients.  ``tests/golden/strata.json`` holds ``equilef strata
--format json`` of every builtin the same way, as ``{"strata": [...]}``; it
pins the subgroup classes, fixed sets and exact strata.
``tests/golden/generated.json`` holds ``equilef verify --format json`` of the
seed-1 documents of the ``large-group`` and ``large-complex`` workloads of
``perfbench/gen.py`` (read, never modified), as ``{"generated": [...]}``;
it pins larger inputs than the builtins, among them a subdivided projective
plane whose torsion needs a non-unit Smith step.  A change that alters
canonical output must regenerate them deliberately:

    PYTHONPATH=src python -m equilef.cli corpus --format json > tests/golden/corpus.json
    PYTHONPATH=src python tests/test_golden.py   # rewrites the other three
"""

import contextlib
import importlib.util
import io
import json
import tempfile
from pathlib import Path

from equilef import cli
from equilef.scenario_io import canonical_json
from equilef.scenarios import builtin_names

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN = GOLDEN_DIR / "corpus.json"
CHARTAB_GOLDEN = GOLDEN_DIR / "chartab.json"
STRATA_GOLDEN = GOLDEN_DIR / "strata.json"
GENERATED_GOLDEN = GOLDEN_DIR / "generated.json"
GEN = Path(__file__).parents[1] / "perfbench" / "gen.py"


def json_output(*args) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main([*args, "--format", "json"]) == 0
    return json.loads(out.getvalue())


def per_builtin(command: str, key: str) -> str:
    """The JSON output of one command on every builtin, as one canonical document."""
    return canonical_json({key: [json_output(command, name) for name in builtin_names()]})


def chartab_corpus() -> str:
    return per_builtin("chartab", "chartabs")


def strata_corpus() -> str:
    return per_builtin("strata", "strata")


def generated_corpus() -> str:
    """``verify`` JSON of the seed-1 generated workloads, as one canonical document."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", GEN)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    outputs = []
    with tempfile.TemporaryDirectory() as tmp:
        for workload in ("large-group", "large-complex"):
            for doc in gen.workload_docs(workload, 1):
                path = Path(tmp) / f"{doc['name']}.json"
                path.write_text(json.dumps(doc), encoding="utf-8")
                outputs.append(json_output("verify", str(path)))
    return canonical_json({"generated": outputs})


def test_corpus_json_matches_golden_bytes():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["corpus", "--format", "json"])
    assert code == 0
    assert out.getvalue().encode("utf-8") == GOLDEN.read_bytes()


def test_chartab_json_matches_golden_bytes():
    assert chartab_corpus().encode("utf-8") == CHARTAB_GOLDEN.read_bytes()


def test_strata_json_matches_golden_bytes():
    assert strata_corpus().encode("utf-8") == STRATA_GOLDEN.read_bytes()


def test_generated_json_matches_golden_bytes():
    assert generated_corpus().encode("utf-8") == GENERATED_GOLDEN.read_bytes()


if __name__ == "__main__":
    CHARTAB_GOLDEN.write_text(chartab_corpus(), encoding="utf-8")
    STRATA_GOLDEN.write_text(strata_corpus(), encoding="utf-8")
    GENERATED_GOLDEN.write_text(generated_corpus(), encoding="utf-8")
