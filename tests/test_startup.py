"""Start-up cost: ``import equilef.cli`` loads only what checking uses.

Every ``equilef verify`` is a fresh process, so its imports are paid on every
call; so is the first command's, which imports nothing more.  The records are ``collections.namedtuple`` subclasses rather than
dataclasses: ``dataclasses`` pulls in ``inspect``, ``ast``, ``dis`` and
``tokenize``, none of which does any checking.  A fresh interpreter guards
the whole import graph; an ``ast`` guard names the module that would bring
``dataclasses`` back.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "equilef").glob("*.py"))

# argparse builds its parser through gettext, which imports locale
UNUSED_AT_START_UP = ("dataclasses", "inspect", "typing", "ast", "dis",
                      "argparse", "gettext", "locale")

PROBE = (
    "import sys\n"
    "before = set(sys.modules)\n"
    "import equilef.cli\n"
    "print('\\n'.join(sorted(set(sys.modules) - before)))\n"
)


def _modules_loaded_by_cli_import() -> set[str]:
    """The modules a fresh ``python -S`` loads for ``import equilef.cli``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-S", "-c", PROBE], env=env,
                            capture_output=True, text=True, check=True, timeout=60)
    return set(result.stdout.split())


def test_importing_the_cli_loads_no_unused_module():
    loaded = _modules_loaded_by_cli_import()
    # the probe saw the package load, so the diff is not empty by accident
    assert {"equilef", "equilef.cli", "equilef.engine"} <= loaded
    assert sorted(loaded & set(UNUSED_AT_START_UP)) == []


FIRST_COMMAND = (
    "import sys\n"
    "from equilef import cli\n"
    "before = set(sys.modules)\n"
    "code = cli.main(['verify', 'point-trivial', '--format', 'json', '--out', sys.argv[1]])\n"
    "print(code, *sorted(set(sys.modules) - before))\n"
)


def test_the_first_command_imports_nothing(tmp_path):
    # parsing the command line and checking a scenario load no module that
    # importing the CLI did not
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = tmp_path / "report.json"
    result = subprocess.run([sys.executable, "-S", "-c", FIRST_COMMAND, str(out)], env=env,
                            capture_output=True, text=True, check=True, timeout=60)
    assert result.stdout.split() == ["0"]
    assert out.read_text(encoding="utf-8").startswith("{")


def _dataclasses_imports(tree) -> list[int]:
    """Lines of every ``import dataclasses`` or ``from dataclasses import ...``."""
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Import) and any(
            alias.name.split(".")[0] == "dataclasses" for alias in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dataclasses"
    )


def test_guard_finds_dataclasses_imports():
    source = (
        "import os, dataclasses as dc\n"
        "from dataclasses import dataclass, field\n"
        "def f():\n"
        "    from dataclasses import replace\n"
        "from collections import namedtuple\n"
    )
    assert _dataclasses_imports(ast.parse(source)) == [1, 2, 4]


def test_no_module_imports_dataclasses():
    assert len(SOURCES) >= 10
    found = {
        path.name: lines for path in SOURCES
        if (lines := _dataclasses_imports(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert found == {}
