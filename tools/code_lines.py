"""Count the code lines of each module under src/bimop.

A code line is a non-blank line that holds a token outside comments and
docstrings.  A docstring is the string that opens a module, class or
function body.  Lines are found with ``tokenize``, docstrings with ``ast``.

    python3 tools/code_lines.py [SRC_DIR]

prints one "<count> <module>" line per module, then "<total> total".
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set:
    """The line numbers spanned by every docstring of the tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    docs = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in SKIP:
            continue
        span = range(tok.start[0], tok.end[0] + 1)
        if not docs.issuperset(span):
            lines.update(span)
    return len(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0] if argv else Path(__file__).resolve().parent.parent / "src" / "bimop")
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count} {path.stem}")
    print(f"{total} total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
