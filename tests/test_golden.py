"""Behaviour contract: canonical corpus output is pinned byte for byte.

``tests/golden/corpus.json`` is the output of ``equilef corpus --format json``.
``tests/golden/chartab.json`` holds ``equilef chartab --format json`` of every
builtin, in ``builtin_names()`` order, as ``{"chartabs": [...]}``; it pins
the character tables themselves, which the corpus sees only through
isotypic coefficients.  ``tests/golden/strata.json`` holds ``equilef strata
--format json`` of every builtin the same way, as ``{"strata": [...]}``; it
pins the subgroup classes, fixed sets and exact strata.  A change that
alters canonical output must regenerate them deliberately:

    PYTHONPATH=src python -m equilef.cli corpus --format json > tests/golden/corpus.json
    PYTHONPATH=src python tests/test_golden.py   # rewrites chartab.json and strata.json
"""

import contextlib
import io
import json
from pathlib import Path

from equilef import cli
from equilef.scenario_io import canonical_json
from equilef.scenarios import builtin_names

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN = GOLDEN_DIR / "corpus.json"
CHARTAB_GOLDEN = GOLDEN_DIR / "chartab.json"
STRATA_GOLDEN = GOLDEN_DIR / "strata.json"


def per_builtin(command: str, key: str) -> str:
    """The JSON output of one command on every builtin, as one canonical document."""
    outputs = []
    for name in builtin_names():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main([command, name, "--format", "json"]) == 0
        outputs.append(json.loads(out.getvalue()))
    return canonical_json({key: outputs})


def chartab_corpus() -> str:
    return per_builtin("chartab", "chartabs")


def strata_corpus() -> str:
    return per_builtin("strata", "strata")


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


if __name__ == "__main__":
    CHARTAB_GOLDEN.write_text(chartab_corpus(), encoding="utf-8")
    STRATA_GOLDEN.write_text(strata_corpus(), encoding="utf-8")
