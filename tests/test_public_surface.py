"""The public surface: every exported name resolves, and the benchmark's
imports stay exported.

``perfbench/layers.py`` drives the pipeline layer by layer through names it
imports from ``equilef``; it is read here with ``ast`` (never imported or
modified), so a deletion that would break the benchmark fails tier-1.
"""

import ast
import importlib
from pathlib import Path

import equilef

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def test_every_exported_name_resolves():
    missing = [name for name in equilef.__all__ if not hasattr(equilef, name)]
    assert not missing
    assert len(set(equilef.__all__)) == len(equilef.__all__)


def _layers_imports() -> set[tuple[str, str]]:
    tree = ast.parse(LAYERS.read_text(encoding="utf-8"))
    return {
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "equilef"
        for alias in node.names
    }


def test_benchmark_imports_are_exported():
    top = {name for module, name in _layers_imports() if module == "equilef"}
    assert top, "perfbench/layers.py no longer imports from equilef"
    assert sorted(top - set(equilef.__all__)) == []


def test_benchmark_submodule_imports_resolve():
    for module, name in _layers_imports():
        assert hasattr(importlib.import_module(module), name), (module, name)
