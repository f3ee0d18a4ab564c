"""Every name bimop exports has a reader.

``bimop/__init__.py`` exports the names it imports from the package's
modules.  An export has a reader when a module of src/bimop reads it, as a
bare name or as an attribute (its definition and the export itself do not
count), when a perfbench script names it, or when the README names it as
user API.  So a public function whose last caller goes does not stay behind
as surface nobody uses.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "bimop"


def _exports(tree: ast.Module) -> list:
    """The names the package's __init__ imports from its modules."""
    return [alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def _unread(exports: list, trees: list, texts: list) -> list:
    """The exports that no module reads and no text names."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(name for name in exports if name not in read
                  and not any(re.search(rf"\b{re.escape(name)}\b", text) for text in texts))


def test_every_export_has_a_reader():
    trees = [ast.parse(p.read_text(), str(p))
             for p in sorted(SRC.glob("*.py")) if p.stem != "__init__"]
    exports = _exports(ast.parse((SRC / "__init__.py").read_text()))
    texts = [p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))]
    texts.append((ROOT / "README.md").read_text())
    assert len(exports) > 50
    assert _unread(exports, trees, texts) == []


def test_the_check_sees_an_unread_export():
    init = ast.parse("from .a import (Benched, Result, called, documented, orphan)\n"
                     "from .b import helper as renamed\n")
    trees = [
        ast.parse("class Result: pass\n"
                  "class Benched:\n"
                  "    def run(self):\n"
                  "        return Result()\n"
                  "def called(): pass\n"
                  "def documented(): pass\n"
                  "def orphan(): pass\n"),
        ast.parse("from . import a\n"
                  "def helper():\n"
                  "    return a.called()\n"),
    ]
    texts = ["`documented(x)` returns x.", "spans = ('Benched.run',)", "orphaned"]
    assert _unread(_exports(init), trees, texts) == ["orphan", "renamed"]
