"""The public surface: every exported name resolves, has a caller outside
the tests, and the benchmark's imports stay exported.

``perfbench/layers.py`` drives the pipeline layer by layer through names it
imports from ``equilef``; it is read here with ``ast`` (never imported or
modified), so a deletion that would break the benchmark fails tier-1.  The
same reading of the package, the demos and the benchmark finds every export
that only the tests call: a second entry point to a fact the package already
computes, which belongs in the tests or nowhere.
"""

import ast
import importlib
from pathlib import Path

import equilef

ROOT = Path(__file__).resolve().parents[1]
LAYERS = ROOT / "perfbench" / "layers.py"


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


def _referenced(tree) -> set[str]:
    """Names a module reads (ast.Name) or imports from equilef or a sibling module."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "equilef"):
            out.update(alias.name for alias in node.names)
    return out


def unused_exports(exports, trees) -> list[str]:
    """The exports, ``__version__`` aside, that no tree references."""
    used = set().union(*(_referenced(tree) for tree in trees))
    return sorted(set(exports) - used - {"__version__"})


def _callers():
    """The package outside ``__init__.py``, the demos and all of ``perfbench/``,
    whose own tests are part of the benchmark and cannot change."""
    paths = [p for p in sorted((ROOT / "src" / "equilef").glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    return [ast.parse(p.read_text(encoding="utf-8")) for p in paths]


def test_every_export_has_a_caller_outside_the_tests():
    assert unused_exports(equilef.__all__, _callers()) == []


def test_the_export_guard_reports_an_unused_name():
    # an attribute read (cc.method) does not keep a module-level name alive
    trees = [ast.parse("from equilef import used\nfrom .groups import memo\nlocal(x.method)")]
    exports = ["used", "memo", "local", "method", "unused", "__version__"]
    assert unused_exports(exports, trees) == ["method", "unused"]
    # against the real callers, a synthetic export is the one reported
    assert unused_exports([*equilef.__all__, "synthetic_export"], _callers()) == [
        "synthetic_export"]
