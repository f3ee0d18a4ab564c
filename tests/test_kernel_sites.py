"""The elimination kernels run only where the pipeline asks them to.

``ExactLU`` is constructed in src/ only by ``mopcore._factorise``,
``linalg.det`` and ``linalg.solve``, and ``FloatLU`` only by
``mopcore._factorise``: binary64 elimination runs in the float solve alone,
and each kernel's interface stays the questions its sites ask.  And no
module changes
Python's int/str digit limit, a process-wide setting: numbers of any size
go through ``linalg``'s own decimal conversion.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src").rglob("*.py"))

# kernel -> the (module, enclosing def) sites that may construct it
ALLOWED = {"ExactLU": {("mopcore", "_factorise"), ("linalg", "det"), ("linalg", "solve")},
           "FloatLU": {("mopcore", "_factorise")}}


def _calls(module: str, tree: ast.Module) -> list:
    """(line, called name, module, qualified name of the enclosing def)
    for every call of a kernel or of set_int_max_str_digits."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name in ALLOWED or name == "set_int_max_str_digits":
                    found.append((child.lineno, name, module, scope))
            visit(child, inner)

    visit(tree, "")
    return found


def _violations(module: str, tree: ast.Module) -> list:
    return [(line, name, scope) for line, name, mod, scope in _calls(module, tree)
            if (mod, scope) not in ALLOWED.get(name, ())]


def test_kernels_run_only_in_the_three_sites():
    bad, sites = [], {name: set() for name in ALLOWED}
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        bad += [(path.name,) + v for v in _violations(path.stem, tree)]
        for _, name, mod, scope in _calls(path.stem, tree):
            if name in ALLOWED:
                sites[name].add((mod, scope))
    assert bad == []
    assert sites == ALLOWED


def test_the_check_sees_a_planted_kernel_and_a_digit_limit():
    tree = ast.parse(
        "import sys\n"
        "class Moments:\n"
        "    def det(self):\n"
        "        return ExactLU(self.matrix).det()\n"
        "def _factorise(m):\n"
        "    sys.set_int_max_str_digits(0)\n"
        "    return linalg.FloatLU(m)\n")
    assert _violations("mopcore", tree) == [(4, "ExactLU", "Moments.det"),
                                            (6, "set_int_max_str_digits", "_factorise")]
    tree = ast.parse(
        "def det(m):\n"
        "    return FloatLU(m).det()\n"
        "def solve(m, rhs):\n"
        "    return ExactLU(m).type2(m.rows)\n")
    assert _violations("linalg", tree) == [(2, "FloatLU", "det")]
