"""Every span of perfbench/tracing.py's LAYERS records calls.

The tracer patches each problem module's own binding of a layer, so a
refactor that renames, moves or stops calling one of them leaves its
span silently empty.  Tiny runs that between them reach every layer
show it: adaptive (sigma > 0) and constant denoising, a warm-started
segmentation, a 2-warp flow and one command-line denoise.  Each run is
repeated untraced, and the two must agree bitwise.
"""

import importlib.util
from pathlib import Path

import numpy as np

from adaptreg import (
    AdaptiveParams,
    FlowParams,
    SegmentParams,
    SolverParams,
    add_gaussian_noise,
    noisy_rectangles,
    run_denoise,
    run_flow,
    run_segment,
    shifted_pair,
    smooth_texture,
)
from adaptreg.cli import entry
from adaptreg.imageio import write_pnm

TOOL = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
spec = importlib.util.spec_from_file_location("perfbench_tracing", TOOL)
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)


def solver(constant=None):
    ap = AdaptiveParams(beta=0.05, alpha=0.01, smoothing_sigma=1.5, constant_lambda=constant)
    return SolverParams(mu=0.5, eta=0.5, theta=1.0, adaptive=ap, max_iters=3, tol_primal=1e-15)


def runs(tmp_path):
    """Each tiny run's outputs, as a list of arrays and bytes."""
    halves = np.where(np.arange(16)[None, :] < 8, 0.25, 0.75) * np.ones((16, 1))
    image = add_gaussian_noise(halves, 0.05)
    out = []
    for constant in (None, 0.3):
        out += run_denoise(image, solver(constant))[:1]
    params = SegmentParams(solver=solver(), n_labels=4)
    labels, state, _ = run_segment(noisy_rectangles(16)[0], params)
    out += [labels, state.u]
    f1, f2, _ = shifted_pair(smooth_texture(16, seed=5), (1.0, 0.0))
    out += run_flow(f1, f2, FlowParams(solver=solver(), n_warps=2))[:1]
    noisy, denoised = tmp_path / "noisy.pgm", tmp_path / "out.pgm"
    write_pnm(noisy, image)
    assert entry(["denoise", "--input", str(noisy), "--output", str(denoised), "--iters", "2"]) == 0
    out.append(denoised.read_bytes())
    return out


def test_every_layer_records_calls(tmp_path):
    untraced = runs(tmp_path)
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = runs(tmp_path)
    calls = {name: row["calls"] for name, row in tracer.summary().items()}
    assert [name for name in tracing.LAYERS if not calls.get(name)] == []
    assert len(traced) == len(untraced)
    for a, b in zip(traced, untraced):
        if isinstance(a, bytes):
            assert a == b
        else:
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
