"""tools/code_lines.py counts non-blank lines outside comments and docstrings."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

PLANTED = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps the line

# a comment line


class Box:
    """Class docstring."""

    size = 1


def f(x):
    """Function docstring,
    over two lines.
    """
    text = """a string that is
    not a docstring"""
    "a bare string after the first statement"
    return (x,
            text)
'''


def test_the_count_skips_blanks_comments_and_docstrings():
    # import, class, size, def, text (two lines), bare string, return (two lines)
    assert code_lines.code_lines(PLANTED) == 9


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text(PLANTED)
    (tmp_path / "a.py").write_text('"""Only a docstring."""\nx = 1\n')
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "1 a\n9 b\n10 total\n"
