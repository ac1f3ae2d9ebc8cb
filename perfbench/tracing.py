"""Spans around the calls into each layer of ``adaptreg``.

The solvers bind their helpers at import (``from .solver import
screened_solve``), so replacing ``adaptreg.solver.screened_solve`` alone
would record nothing.  ``LAYERS`` names, for each layer, every module (or
class, for methods) that calls it, and ``Tracer.installed`` replaces each
of those bindings with a recording wrapper and restores the originals on
exit, also when a solve raises.  The wrappers call straight through, so a
traced solve computes bitwise the same result as an untraced one.
"""

from __future__ import annotations

import importlib
import json
import os
from contextlib import contextmanager
from time import perf_counter


def _pixel_sweeps(args, kwargs, result):
    rhs, _, _, sweeps = args
    return rhs.size * sweeps


def _admm_outcome(args, kwargs, result):
    """(iterations, converged, final primal residual) of one run_admm call,
    read from the history it returns."""
    params = args[1]
    history = result[1]
    if not history:
        return (0, False, 0.0)
    start = kwargs.get("start_iter", args[2] if len(args) > 2 else 0)
    last = history[-1]
    return (last.iter - start, last.primal_residual <= params.tol_primal, last.primal_residual)


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


# span name -> (callers that bind it, attribute, per-call counter or None).
# A caller is a module of adaptreg, or "module.Class" for a method.
LAYERS = {
    "solver.screened_solve": (("denoise", "segment", "flow"), "screened_solve", _pixel_sweeps),
    "solver.run_admm": (("denoise", "segment", "flow"), "run_admm", _admm_outcome),
    "adaptive.weight_fields": (("denoise", "segment", "flow"), "weight_fields", None),
    "grid.convolve_gaussian": (("adaptive", "segment"), "convolve_gaussian", None),
    "segment.update_v_all": (("segment",), "update_v_all", None),
    "flow.update_v_w": (("flow",), "update_v_w", None),
    "denoise.iterate": (("denoise.DenoiseState",), "iterate", None),
    "segment.iterate": (("segment.SegmentState",), "iterate", None),
    "flow.iterate": (("flow.FlowState",), "iterate", None),
    "denoise.energy": (("denoise.DenoiseState",), "energy", None),
    "segment.energy": (("segment.SegmentState",), "energy", None),
    "flow.energy": (("flow.FlowState",), "energy", None),
    "denoise.update_u": (("denoise",), "update_u", None),
    "segment.update_u": (("segment",), "update_u", None),
    "flow.update_u": (("flow",), "update_u", None),
    "prox.shrink": (("adaptive", "denoise", "segment", "flow"), "shrink", None),
    "prox.shrink_vec": (("denoise", "segment", "flow"), "shrink_vec", None),
    "grid.gradient": (("denoise", "segment", "flow"), "gradient", None),
    "grid.divergence": (("denoise", "segment", "flow"), "divergence", None),
    "flow._linearize": (("flow",), "_linearize", None),
    "grid.warp_bilinear": (("flow",), "warp_bilinear", None),
    "imageio.read_pnm": (("cli",), "read_pnm", _file_bytes),
    "imageio.write_pnm": (("cli",), "write_pnm", _file_bytes),
    "denoise.run_denoise": (("cli",), "run_denoise", None),
}

ROOT = "solve"


def _owner(path):
    module, _, cls = path.partition(".")
    obj = importlib.import_module("adaptreg." + module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """In-memory span recorder.

    A span is [name, start, end, parent index, solve id, info].  The root
    span of each solve has name ``solve`` and the solve's name as info;
    every span under it carries its solve id.  For the layers with a
    counter in LAYERS, info is that counter's value for the call.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._solve_id = -1
        self._patches = []

    def _open(self, name):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._solve_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    @contextmanager
    def solve(self, name):
        """Root span of one solve; opens a new solve id."""
        self._solve_id += 1
        span = self._open(ROOT)
        span[5] = name
        span[1] = perf_counter()
        try:
            yield
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn, count):
        def traced(*args, **kwargs):
            span = self._open(name)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if count is not None:
                span[5] = count(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Patch every binding in LAYERS for the duration of the block."""
        try:
            for name, (owners, attr, count) in LAYERS.items():
                for path in owners:
                    owner = _owner(path)
                    original = getattr(owner, attr)
                    self._patches.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(name, original, count))
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    def summary(self):
        """Per span name: calls, total and self seconds, and the per-call
        counts.  Self time is the span's duration minus that of its
        children; spans nest strictly, so children never overlap."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        table = {}
        for i, (name, start, end, _, _, count) in enumerate(self.spans):
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                          "counts": [], "durations": []})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
            row["durations"].append(end - start)
            if count is not None and name != ROOT:
                row["counts"].append(count)
        return table

    def write(self, path):
        """Write the spans as JSON lines."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, solve, info) in enumerate(self.spans):
                record = {"id": i, "name": name, "start": start, "end": end,
                          "parent": parent, "solve": solve}
                if info is not None:
                    record["info"] = info
                fh.write(json.dumps(record) + "\n")
