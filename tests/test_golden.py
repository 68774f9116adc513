"""Behaviour contract: canonical corpus output is pinned byte for byte.

``tests/golden/corpus.json`` is the output of ``equilef corpus --format json``.
A change that alters canonical output must regenerate it deliberately:

    PYTHONPATH=src python -m equilef.cli corpus --format json > tests/golden/corpus.json
"""

import contextlib
import io
from pathlib import Path

from equilef import cli

GOLDEN = Path(__file__).parent / "golden" / "corpus.json"


def test_corpus_json_matches_golden_bytes():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["corpus", "--format", "json"])
    assert code == 0
    assert out.getvalue().encode("utf-8") == GOLDEN.read_bytes()
