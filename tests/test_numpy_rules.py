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


def screened_solve_calls(tree):
    """(line, well-formed) for each call of screened_solve: well-formed
    means exactly four positional arguments (rhs, xi, v0, sweeps), none
    of them unpacked, and nothing else by keyword but the buffers out=
    and scratch=."""
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name != "screened_solve":
            continue
        positional = len(node.args) == 4 and not any(isinstance(a, ast.Starred) for a in node.args)
        buffers = all(k.arg in ("out", "scratch") for k in node.keywords)
        calls.append((node.lineno, positional and buffers))
    return sorted(calls)


def test_rule_flags_screened_solve_call_shapes():
    code = (
        "screened_solve(rhs, xi, v, n)\n"
        "screened_solve(rhs, xi, v, n, out=o, scratch=s)\n"
        "solver.screened_solve(rhs, xi, v, n, o)\n"
        "screened_solve(rhs, xi, v)\n"
        "screened_solve(rhs, xi, v0=v, sweeps=n)\n"
        "screened_solve(*args)\n"
        "screened_solve(rhs, xi, v, n, **buffers)\n"
        "exact_screened_solve(rhs, xi, o)\n"
    )
    calls = screened_solve_calls(ast.parse(code))
    assert [line for line, ok in calls if not ok] == [3, 4, 5, 6, 7]
    assert [line for line, ok in calls if ok] == [1, 2]


def test_screened_solve_calls_pass_four_positional_arguments():
    # The benchmark's tracer counts a call's sweeps by unpacking
    # `rhs, _, _, sweeps = args`, so a fifth positional argument would
    # break every traced run; buffers go by keyword.  Flow solves through
    # the linear-data state of denoise.py.
    files = sorted(SOURCE.glob("*.py"))
    found = {
        path.name: screened_solve_calls(ast.parse(path.read_text(), str(path)))
        for path in files
    }
    assert {name for name, calls in found.items() if calls} >= {"denoise.py", "segment.py"}
    assert {name: [line for line, ok in calls if not ok] for name, calls in found.items()
            if not all(ok for _, ok in calls)} == {}


# The package functions whose every call passes these buffers by keyword.
BUFFERS = {
    "screened_solve": {"out", "scratch"},
    "divergence": {"out", "scratch"},
    "dual_step": {"out"},
    "exact_screened_solve": {"out", "scratch"},
    "laplacian": {"out", "scratch"},
}


def calls_without_buffers(tree, names):
    """Line numbers of calls of the named functions that do not pass all
    their BUFFERS by keyword."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in names and not BUFFERS[name] <= {k.arg for k in node.keywords}:
            lines.append(node.lineno)
    return sorted(lines)


def test_rule_flags_screened_solve_without_buffers():
    code = (
        "screened_solve(rhs, xi, v, n, out=v, scratch=s)\n"
        "screened_solve(rhs, xi, v, n, out=v)\n"
        "solver.screened_solve(rhs, xi, v, n, scratch=s)\n"
        "screened_solve(rhs, xi, v, n)\n"
        "screened_solve(rhs, xi, v, n, **buffers)\n"
        "exact_screened_solve(rhs, xi, out=v)\n"
    )
    assert calls_without_buffers(ast.parse(code), ("screened_solve",)) == [2, 3, 4, 5]


def test_screened_solve_calls_pass_their_buffers():
    # Every state solves v in place through a scratch it owns: a solve
    # without out= returns a new array, and one without scratch=
    # allocates its whole workspace afresh on every call.
    files = sorted(SOURCE.glob("*.py"))
    found = {
        path.name: calls_without_buffers(ast.parse(path.read_text(), str(path)), ("screened_solve",))
        for path in files
    }
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_rule_flags_divergence_and_dual_step_without_buffers():
    code = (
        "divergence(z, out=rhs, scratch=s)\n"
        "grid.divergence(z, out=rhs)\n"
        "divergence(z, scratch=s)\n"
        "divergence(z)\n"
        "dual_step(u, v, w, out=d)\n"
        "solver.dual_step(u, v, w)\n"
        "dual_step(u, v, w, d)\n"
        "divergence(z, **buffers)\n"
        "gradient(v)\n"
    )
    assert calls_without_buffers(ast.parse(code), ("divergence", "dual_step")) == [2, 3, 4, 6, 7, 8]


def test_divergence_and_dual_step_calls_pass_their_buffers():
    # The v-step writes div z into its rhs buffer, with the solve scratch
    # for the divergence's bands, and the dual step writes u - v into a
    # buffer: without them each call allocates a field or a stack afresh.
    files = sorted(SOURCE.glob("*.py"))
    found = {
        path.name: calls_without_buffers(ast.parse(path.read_text(), str(path)), ("divergence", "dual_step"))
        for path in files
    }
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_rule_flags_exact_solve_and_laplacian_without_buffers():
    code = (
        "exact_screened_solve(rhs, xi, out=out, scratch=s)\n"
        "solver.exact_screened_solve(rhs, xi, out=out)\n"
        "exact_screened_solve(rhs, xi, scratch=s)\n"
        "laplacian(v, out=d, scratch=s)\n"
        "grid.laplacian(v, scratch=s)\n"
        "laplacian(v, out=d)\n"
        "laplacian(v)\n"
    )
    assert calls_without_buffers(ast.parse(code), ("exact_screened_solve", "laplacian")) == [2, 3, 5, 6, 7]


def test_exact_solve_and_laplacian_calls_pass_their_buffers():
    # The exact solve writes its field and spectra into the caller's
    # scratch, and the defect's Laplacian its difference runs: without
    # them each call allocates fields afresh.
    files = sorted(SOURCE.glob("*.py"))
    found = {
        path.name: calls_without_buffers(
            ast.parse(path.read_text(), str(path)), ("exact_screened_solve", "laplacian")
        )
        for path in files
    }
    assert {name: lines for name, lines in found.items() if lines} == {}
