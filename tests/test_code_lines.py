"""tools/code_lines.py counts code lines the way the project reports them."""

import ast
import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SNIPPET = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its line

# a comment line


class A:
    """Class docstring."""

    x = """not a docstring:
    two lines"""

    def f(self, y):
        """Function
        docstring."""
        # another comment
        return math.sqrt(
            y
        )
'''


def test_counts_code_lines_of_a_snippet():
    # import, class, x (two lines), def, return (three lines)
    assert code_lines.code_lines(SNIPPET) == 8


def test_docstring_lines_cover_module_class_and_function():
    assert code_lines.docstring_lines(ast.parse(SNIPPET)) == {1, 2, 10, 16, 17}


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert code_lines.main(["code_lines.py", str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n") == ["     8  a.py", "     1  b.py", "     9  total", ""]
