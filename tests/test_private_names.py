"""Every private function, method or class in src/bimop is used in src/bimop.

A name is private when it starts with one underscore (dunders are not).  It
is used when some module of the package reads it, as a bare name or as an
attribute; its own definition does not count.  So a helper whose last
caller goes does not stay behind unnoticed.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "bimop"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _unused_private(trees: list) -> list:
    defined, used = {}, set()
    for name, tree in trees:
        for node in ast.walk(tree):
            if (isinstance(node, DEFINITIONS) and node.name.startswith("_")
                    and not node.name.startswith("__")):
                defined[node.name] = f"{name}:{node.lineno}"
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(f"{where} {name}" for name, where in defined.items() if name not in used)


def test_every_private_definition_is_used():
    trees = [(p.name, ast.parse(p.read_text(), str(p))) for p in sorted(SRC.glob("*.py"))]
    assert _unused_private(trees) == []


def test_the_check_sees_an_unused_helper():
    tree = ast.parse(
        "class _Base:\n"
        "    def _step(self):\n"
        "        return 1\n"
        "    def _orphan(self):\n"
        "        return 2\n"
        "def _helper():\n"
        "    return _Base()._step()\n"
        "def _unused():\n"
        "    return _helper()\n"
        "def __getattr__(name):\n"
        "    raise AttributeError(name)\n")
    assert _unused_private([("m.py", tree)]) == ["m.py:4 _orphan", "m.py:8 _unused"]
