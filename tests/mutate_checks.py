"""Delete each internal check in turn and report whether its test notices.

For every site of ``test_check_registry.REGISTRY`` this replaces that one
``raise`` with ``pass`` in a scratch copy of the tree, runs the registered
test there and prints one table row: the site, the test, and "fails" when
the test catches the deletion or "SURVIVES" when it does not.  The
registered tests must pass on the unmutated copy first.

    PYTHONPATH=src python tests/mutate_checks.py [SCRATCH_DIR]

The copy goes to SCRATCH_DIR/tree (a new temporary directory by default).
The exit status is 1 when a deletion survives.
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from test_check_registry import REGISTRY, ROOT, package_sites


def _without_raise(text: str, node: ast.Raise) -> str:
    """The module text with the raise statement at node replaced by pass."""
    lines = text.splitlines(keepends=True)
    indent = lines[node.lineno - 1][:node.col_offset]
    return "".join(lines[:node.lineno - 1] + [indent + "pass\n"] + lines[node.end_lineno:])


def _pytest(tree: Path, test_ids) -> bool:
    """True when the tests pass in the copy."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *test_ids],
        cwd=tree, env=env, capture_output=True, text=True, timeout=600)
    return result.returncode == 0


def main(argv) -> int:
    scratch = Path(argv[0]) if argv else Path(tempfile.mkdtemp(prefix="equilef-mutants-"))
    tree = scratch / "tree"
    if tree.exists():
        shutil.rmtree(tree)
    shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench_work"))
    if not _pytest(tree, sorted(set(REGISTRY.values()))):
        print("the registered tests fail on the unmutated tree", file=sys.stderr)
        return 2
    survived = 0
    print("| check (module.function: message) | test | deleted check |")
    print("|---|---|---|")
    for module, function, message, node in package_sites():
        test_id = REGISTRY[module, function, message]
        path = tree / "src" / "equilef" / f"{module}.py"
        original = path.read_text(encoding="utf-8")
        path.write_text(_without_raise(original, node), encoding="utf-8")
        try:
            caught = not _pytest(tree, [test_id])
        finally:
            path.write_text(original, encoding="utf-8")
        survived += not caught
        print(f"| `{module}.{function}`: {message} | `{test_id.split('::')[1]}` | "
              f"{'fails' if caught else 'SURVIVES'} |", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
