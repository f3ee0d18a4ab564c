"""Every imported name in src/ and tests/ is used in its module, and
importing bimop does not load ``dataclasses`` or ``inspect``.

Package ``__init__.py`` files are skipped (their imports are re-exports),
and so are ``from __future__`` imports.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py")
               if p.name != "__init__.py")


def _unused_imports(tree: ast.Module) -> list:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text(), str(path))) == []


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import os\nfrom typing import List, Optional\nx: Optional[int] = os.sep\n")
    assert _unused_imports(tree) == [(2, "List")]


def _loaded(imports: str) -> list:
    """Which of dataclasses and inspect a fresh interpreter (no site
    packages) holds after running the import statement."""
    code = (f"import sys; {imports}; "
            "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    return ast.literal_eval(out)


def test_importing_bimop_loads_neither_dataclasses_nor_inspect():
    assert _loaded("import bimop, bimop.cli") == []


def test_the_guard_sees_dataclasses():
    assert _loaded("import bimop, bimop.cli, dataclasses") == ["dataclasses", "inspect"]
