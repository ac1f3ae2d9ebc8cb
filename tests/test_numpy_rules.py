"""Source rules that keep the package off known numpy defects."""

import ast
from pathlib import Path

import adaptreg

SOURCE = Path(adaptreg.__file__).parent


def negative_with_out(tree):
    """Line numbers of np.negative / numpy.negative / negative calls that
    pass an output array, by keyword or as a second positional argument."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name == "negative" and (len(node.args) > 1 or any(k.arg == "out" for k in node.keywords)):
            lines.append(node.lineno)
    return lines


def test_rule_flags_negative_with_out():
    code = "np.negative(a, out=b)\nnumpy.negative(a, b)\nnegative(a, out=b)\nnp.negative(a)\nnp.multiply(a, -1.0, out=b)\n"
    assert negative_with_out(ast.parse(code)) == [1, 2, 3]


def test_no_negative_with_out():
    # numpy 2.4.6's np.negative writes wrong values when a strided input
    # goes to a differently strided output; the package negates into
    # strided and reversed views with np.multiply(x, -1.0, out=...).
    files = sorted(SOURCE.glob("*.py"))
    assert files
    found = {
        path.name: negative_with_out(ast.parse(path.read_text(), str(path)))
        for path in files
    }
    assert {name: lines for name, lines in found.items() if lines} == {}


def trailing_axis_broadcasts(tree):
    """Line numbers of subscripts x[..., None]: an Ellipsis first and a
    new axis last."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Subscript) or not isinstance(node.slice, ast.Tuple):
            continue
        elts = node.slice.elts
        if (
            len(elts) >= 2
            and isinstance(elts[0], ast.Constant) and elts[0].value is Ellipsis
            and isinstance(elts[-1], ast.Constant) and elts[-1].value is None
        ):
            lines.append(node.lineno)
    return sorted(lines)


def test_rule_flags_trailing_axis_broadcasts():
    code = "a[..., None] * b\nc = (x + y)[..., None]\na[..., 0, None]\na[None, ...]\na[:, None]\na[..., 0]\na[None]\n"
    assert trailing_axis_broadcasts(ast.parse(code)) == [1, 2, 3]


def test_no_trailing_axis_broadcasts():
    # An (H, W) factor broadcast as x[..., None] against an (H, W, 2)
    # field runs a length-2 inner loop, about 5x slower at 128^2 than
    # one multiply per component or a leading-axis broadcast against the
    # component-first (2, H, W) view.
    files = sorted(SOURCE.glob("*.py"))
    assert files
    found = {
        path.name: trailing_axis_broadcasts(ast.parse(path.read_text(), str(path)))
        for path in files
    }
    assert {name: lines for name, lines in found.items() if lines} == {}
