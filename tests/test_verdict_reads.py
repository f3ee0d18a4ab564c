"""The verifiers have one arithmetic: they never ask for the scalar mode.

Every function in ``relations.py``, ``product.verify_product``,
``product.det_factor_check`` and ``mopcore.normality`` judges on the
system's exact twin (``exact_system``), so none of them reads a system's
``exact``, ``mode`` or ``tol``, or a float zero test such as ``is_zero`` or
``magnitude``.  A verifier that branched on
the mode again would fork the arithmetic of its verdicts.

The solver's public reads, ``type2``, ``type1`` and their forms, read one
cache form in both scalar modes: the mode fork lives in ``_factorise``,
``_form``, ``_dense`` and ``solve_path`` only.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "bimop"

FORBIDDEN = {"exact", "mode", "tol", "is_zero", "magnitude"}
# module -> the functions checked, or None for every function in it
CHECKED = {"relations": None, "product": {"verify_product", "det_factor_check"},
           "mopcore": {"normality", "type2", "type1", "type2_form", "type1_form"}}


def _reads(tree: ast.Module, functions=None) -> list:
    """(line, name read, qualified name of the enclosing function) for each
    forbidden attribute or bare name read inside a function, of every
    function or of those named in functions."""
    found = []

    def visit(node, scope, in_function):
        for child in ast.iter_child_nodes(node):
            inner, inside = scope, in_function
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
                inside = in_function or not isinstance(child, ast.ClassDef)
            if isinstance(child, ast.Attribute):
                name = child.attr
            else:
                name = child.id if isinstance(child, ast.Name) else None
            if in_function and name in FORBIDDEN and (functions is None or scope in functions):
                found.append((child.lineno, name, scope))
            visit(child, inner, inside)

    visit(tree, "", False)
    return found


def test_verifiers_never_read_the_scalar_mode():
    for module, functions in CHECKED.items():
        path = SRC / f"{module}.py"
        assert _reads(ast.parse(path.read_text(), str(path)), functions) == []


def test_the_check_sees_a_planted_mode_read():
    tree = ast.parse(
        "class Report:\n"
        "    mode = 'exact'\n"
        "    def to_json(self):\n"
        "        return self.residual.is_zero()\n"
        "def nnr(sys, n):\n"
        "    if sys.exact:\n"
        "        return sys.tol\n"
        "    return magnitude(n)\n"
        "def verify_product(ps):\n"
        "    return ps.bivariate.mode\n"
        "def product_poly(ps):\n"
        "    return ps.xsystem.mode\n")
    assert _reads(tree) == [(4, "is_zero", "Report.to_json"), (6, "exact", "nnr"),
                            (7, "tol", "nnr"), (8, "magnitude", "nnr"),
                            (10, "mode", "verify_product"), (12, "mode", "product_poly")]
    assert _reads(tree, {"verify_product"}) == [(10, "mode", "verify_product")]
