"""The code-line counter in tools/: what it counts and what it prints."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "code_lines", Path(__file__).parents[1] / "tools" / "code_lines.py"
)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps its line

# a comment line


def f(x):
    """Docstring."""
    y = (x +
         1)
    return "not a docstring"


class C:
    """Class docstring."""

    z = 1
'''


def test_counts_code_and_leaves_out_blanks_comments_and_docstrings():
    # import, def, the two lines of y, return, class, z
    assert code_lines.code_lines(SOURCE) == 7


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE, encoding="utf-8")
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# note\n", encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     7  a.py",
        "     1  pkg/b.py",
        "     8  total",
    ]
