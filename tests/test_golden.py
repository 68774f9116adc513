"""Behaviour contract: canonical corpus output is pinned byte for byte.

``tests/golden/corpus.json`` is the output of ``equilef corpus --format json``.
``tests/golden/chartab.json`` holds ``equilef chartab --format json`` of every
builtin, in ``builtin_names()`` order, as ``{"chartabs": [...]}``; it pins
the character tables themselves, which the corpus sees only through
isotypic coefficients.  A change that alters canonical output must
regenerate them deliberately:

    PYTHONPATH=src python -m equilef.cli corpus --format json > tests/golden/corpus.json
    PYTHONPATH=src python tests/test_golden.py > tests/golden/chartab.json
"""

import contextlib
import io
import json
from pathlib import Path

from equilef import cli
from equilef.scenario_io import canonical_json
from equilef.scenarios import builtin_names

GOLDEN = Path(__file__).parent / "golden" / "corpus.json"
CHARTAB_GOLDEN = Path(__file__).parent / "golden" / "chartab.json"


def chartab_corpus() -> str:
    """The chartab JSON of every builtin, gathered into one canonical document."""
    tables = []
    for name in builtin_names():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["chartab", name, "--format", "json"]) == 0
        tables.append(json.loads(out.getvalue()))
    return canonical_json({"chartabs": tables})


def test_corpus_json_matches_golden_bytes():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["corpus", "--format", "json"])
    assert code == 0
    assert out.getvalue().encode("utf-8") == GOLDEN.read_bytes()


def test_chartab_json_matches_golden_bytes():
    assert chartab_corpus().encode("utf-8") == CHARTAB_GOLDEN.read_bytes()


if __name__ == "__main__":
    print(chartab_corpus(), end="")
