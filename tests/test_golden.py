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
plane whose torsion needs a non-unit Smith step.
``tests/golden/text.json`` pins the ``--format text`` output: ``verify``,
``chartab`` and ``strata`` of every builtin and of the same seed-1
generated documents (whose tables carry ``z5`` powers and fractional
coefficients), and ``corpus``, as one object keyed by the command line.
A change that alters canonical or text output must regenerate them
deliberately:

    PYTHONPATH=src python -m equilef.cli corpus --format json > tests/golden/corpus.json
    PYTHONPATH=src python tests/test_golden.py   # rewrites the other four
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
TEXT_GOLDEN = GOLDEN_DIR / "text.json"
GEN = Path(__file__).parents[1] / "perfbench" / "gen.py"


def cli_output(*args) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(args)) == 0
    return out.getvalue()


def json_output(*args) -> dict:
    return json.loads(cli_output(*args, "--format", "json"))


def per_builtin(command: str, key: str) -> str:
    """The JSON output of one command on every builtin, as one canonical document."""
    return canonical_json({key: [json_output(command, name) for name in builtin_names()]})


def chartab_corpus() -> str:
    return per_builtin("chartab", "chartabs")


def strata_corpus() -> str:
    return per_builtin("strata", "strata")


@contextlib.contextmanager
def generated_documents():
    """Paths of the seed-1 ``large-group`` and ``large-complex`` documents."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", GEN)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for workload in ("large-group", "large-complex"):
            for doc in gen.workload_docs(workload, 1):
                path = Path(tmp) / f"{doc['name']}.json"
                path.write_text(json.dumps(doc), encoding="utf-8")
                paths.append(path)
        yield paths


def generated_corpus() -> str:
    """``verify`` JSON of the seed-1 generated workloads, as one canonical document."""
    with generated_documents() as paths:
        outputs = [json_output("verify", str(path)) for path in paths]
    return canonical_json({"generated": outputs})


def text_corpus() -> str:
    """Text output of every subcommand, keyed by its command line."""
    outputs = {}
    with generated_documents() as paths:
        targets = [*builtin_names(), *(str(p) for p in paths)]
        for target in targets:
            label = Path(target).name
            for command in ("verify", "chartab", "strata"):
                outputs[f"{command} {label}"] = cli_output(command, target)
    outputs["corpus"] = cli_output("corpus")
    return canonical_json(outputs)


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


def test_text_output_matches_golden_bytes():
    assert text_corpus().encode("utf-8") == TEXT_GOLDEN.read_bytes()


if __name__ == "__main__":
    CHARTAB_GOLDEN.write_text(chartab_corpus(), encoding="utf-8")
    STRATA_GOLDEN.write_text(strata_corpus(), encoding="utf-8")
    GENERATED_GOLDEN.write_text(generated_corpus(), encoding="utf-8")
    TEXT_GOLDEN.write_text(text_corpus(), encoding="utf-8")
