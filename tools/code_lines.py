"""Count the code lines of a Python package, per module and in total.

A code line is a source line that is not blank, not a comment and not
part of a docstring (the leading string of a module, class or function).

    python3 tools/code_lines.py [PACKAGE_DIR]     (default src/adaptreg)
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers spanned by the docstrings in a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Code lines of one module's source."""
    skip = docstring_lines(ast.parse(source))
    count = 0
    for number, line in enumerate(source.splitlines(), start=1):
        text = line.strip()
        if text and not text.startswith("#") and number not in skip:
            count += 1
    return count


def main(argv: list[str]) -> int:
    package = Path(argv[1] if len(argv) > 1 else "src/adaptreg")
    total = 0
    for path in sorted(package.glob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print("%6d  %s" % (n, path.name))
    print("%6d  total" % total)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
