"""Shared ADMM scaffolding: parameter bundle, iteration driver, history.

The three problems (denoising, segmentation, optical flow) plug into the
same driver through a small duck-typed state protocol:

    state.iterate()            run one full update sweep (weights first,
                               then r, z, u, v, w in the documented order)
    state.primal_residual()    RMS of u - v over all scalar entries
    state.energy()             current model energy (finite unless diverged)
    state.mean_lambda()        mean fidelity weight, in [0, 1]
    state.solution()           object handed back to the caller

The driver itself is single-threaded over iterations; any parallelism
lives inside the per-pixel updates and is bitwise deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .adaptive import AdaptiveParams


@dataclass
class SolverParams:
    """Knobs shared by every ADMM instance.

    mu and eta are the Huber thresholds of the data and regularizer
    terms, theta the scalar augmentation weight.  Iteration control:
    the driver stops at max_iters or after the first iteration whose
    primal residual is at most tol_primal.
    gs_sweeps is the exact number of inner Gauss-Seidel passes of each
    v-update; the inner solve has no early exit.
    Non-finite mu, eta, theta or tol_primal raise ValueError.
    """

    mu: float
    eta: float
    theta: float
    adaptive: AdaptiveParams
    max_iters: int = 300
    tol_primal: float = 1e-6
    gs_sweeps: int = 20

    def __post_init__(self):
        if not (0.0 < self.mu < math.inf and 0.0 < self.eta < math.inf):
            raise ValueError("Huber thresholds mu and eta must be positive and finite")
        if not 0.0 < self.theta < math.inf:
            raise ValueError("theta must be positive and finite")
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        if not 0.0 < self.tol_primal < math.inf:
            raise ValueError("tol_primal must be positive and finite")
        if self.gs_sweeps < 1:
            raise ValueError("gs_sweeps must be a positive integer")


@dataclass
class IterationRecord:
    iter: int
    energy: float
    primal_residual: float
    mean_lambda: float


class DivergenceError(RuntimeError):
    """Raised when the tracked energy stops being finite."""

    def __init__(self, iteration: int):
        super().__init__("divergence detected at iteration %d" % iteration)
        self.iteration = iteration


def rms(a: np.ndarray) -> float:
    """Root mean square over all entries of an array."""
    a = np.asarray(a, dtype=np.float64)
    return float(np.sqrt(np.mean(a * a)))


def run_admm(state, params: SolverParams, start_iter: int = 0, on_check=None):
    """Drive a problem state to convergence or the iteration cap.

    Returns (solution, history).  Every iteration is checked: history
    holds one IterationRecord per iteration (1-based, offset by
    start_iter so chained runs keep a global counter).  The run stops
    early after the first iteration with primal_residual <= tol_primal;
    a non-finite energy raises DivergenceError.  on_check, if given, is
    called as on_check(state, record) after every iteration.
    """
    history: list[IterationRecord] = []
    for k in range(1, params.max_iters + 1):
        state.iterate()
        it = start_iter + k
        energy = state.energy()
        if not math.isfinite(energy):
            raise DivergenceError(it)
        residual = state.primal_residual()
        record = IterationRecord(it, energy, residual, state.mean_lambda())
        history.append(record)
        if on_check is not None:
            on_check(state, record)
        if residual <= params.tol_primal:
            break
    return state.solution(), history


def history_to_csv(history) -> str:
    """Render a history as CSV (header + one row per record).

    Floats use repr so the file round-trips exactly; the format never
    depends on locale.
    """
    lines = ["iter,energy,primal_residual,mean_lambda"]
    for rec in history:
        lines.append(
            "%d,%r,%r,%r" % (rec.iter, rec.energy, rec.primal_residual, rec.mean_lambda)
        )
    return "\n".join(lines) + "\n"


# Row and column parity of the four sub-lattices in sweep order: the two
# red ones, then the two black ones.  The two of one color never neighbor
# each other.
_SUBLATTICES = ((0, 0), (1, 1), (0, 1), (1, 0))


def _neighbor_count(n: int, parity: int) -> np.ndarray:
    """Neighbors along an axis of length n, at the indices of one parity."""
    idx = np.arange(parity, n, 2)
    return 2.0 - (idx == 0) - (idx == n - 1)


def _cells(h: int, w: int, py: int, px: int):
    """Index of sub-lattice (py, px) of an (H, W) grid inside its plane."""
    return (Ellipsis, slice(1, 1 + (h - py + 1) // 2), slice(1, 1 + (w - px + 1) // 2))


def _plane_fields(rhs: np.ndarray, xi: np.ndarray, frame) -> np.ndarray:
    """rhs, xi, c*rhs and 1 + xi*c of every sub-lattice, c the neighbor
    count, as a field-major (4 fields, 4 sub-lattices, ..., *frame) block
    of planes: one field of both sub-lattices of a color is one
    contiguous run.  Pad cells hold rhs = xi = c*rhs = 0 and 1 + xi*c = 1."""
    h, w = rhs.shape[-2:]
    fields = np.zeros((4, 4) + rhs.shape[:-2] + frame)
    b, x, bc, d = fields
    # One count plane per sub-lattice, broadcast over the stack; 0 on pad.
    count = np.zeros((4,) + (1,) * (rhs.ndim - 2) + frame)
    for k, (py, px) in enumerate(_SUBLATTICES):
        cells = _cells(h, w, py, px)
        b[k][cells] = rhs[..., py::2, px::2]
        x[k][cells] = xi[..., py::2, px::2]
        np.add(_neighbor_count(h, py)[:, None], _neighbor_count(w, px), out=count[k][cells])
    np.multiply(count, b, out=bc)
    np.multiply(x, count, out=d)
    d += 1.0
    return fields


def _sweep(planes: np.ndarray, fields: np.ndarray, sweeps: int) -> None:
    """Red-black Gauss-Seidel sweeps in place on the (4, ..., *frame)
    parity planes of v, with the field-major block of _plane_fields."""
    n = planes[0].size
    stride = planes.shape[-1]
    v = planes.reshape(-1)
    fields = fields.reshape(4, -1)
    lo, hi = stride + 1, n - stride - 1

    def run(k, s=0):
        return v[k * n + lo + s : k * n + hi + s]

    sums = []
    for k, (py, px) in enumerate(_SUBLATTICES):
        # Left and right neighbors sit in the plane of the other column
        # parity, up and down in the plane of the other row parity.  At
        # column (row) parity 0 the right (down) neighbor shares the
        # center's frame cell and the left (up) one lies a cell (frame
        # row) before it; at parity 1 the left (up) one shares it.
        across = _SUBLATTICES.index((py, 1 - px))
        along = _SUBLATTICES.index((1 - py, px))
        sums.append((
            run(k),
            run(across, px - 1),
            run(across, px),
            run(along, (py - 1) * stride),
            run(along, py * stride),
        ))
    # The two planes of a color are adjacent, so one run from the first
    # plane's run start to the second's run end covers both.  The pad rows
    # in between hold zero fields and 1 + xi*c = 1, so they stay +0.0.
    colors = []
    for k in (0, 2):
        tail = slice(k * n + lo, (k + 1) * n + hi)
        colors.append((sums[k : k + 2], v[tail], fields[:, tail]))
    scratch = np.empty(hi - lo)
    for _ in range(sweeps):
        for color_sums, center, (b, x, bc, d) in colors:
            # center = b + x * (((left + right) + (up + down)) - bc) / d
            for total, left, right, up, down in color_sums:
                np.add(left, right, out=scratch)
                np.add(up, down, out=total)
                total += scratch
            center -= bc
            center *= x
            center /= d
            center += b


def screened_solve(rhs: np.ndarray, xi: np.ndarray, v0: np.ndarray, sweeps: int) -> np.ndarray:
    """Exactly `sweeps` Gauss-Seidel sweeps for (1 - xi * laplacian) v = rhs
    on a stack, starting from v0.

    rhs and v0 have shape (..., H, W); every leading index is a separate
    grid, and xi broadcasts against rhs (one (H, W) weight can serve a
    whole stack).  Five-point Laplacian with replicate (Neumann)
    boundary, so boundary pixels simply see fewer neighbors.  Red-black
    ordering: each half sweep updates one checkerboard color from the
    other, which makes the result independent of traversal order.

    Parity-plane layout: each of the four sub-lattices of row and column
    parity lives in its own zero-padded plane, and all planes share one
    frame (ceil(H/2) + 2, ceil(W/2) + 2) per stack entry.  Sub-lattice
    cell (i, j) sits at frame cell (i + 1, j + 1) in every plane.
    Flattened over the whole stack, a sub-lattice's neighbor sum is one
    contiguous run that skips the first and last frame row, and its four
    neighbors are the same run shifted by 0 or 1 (left, right) in the
    plane of the other column parity and by 0 or one frame row (up,
    down) in the plane of the other row parity.  The run also covers the
    pad cells between its rows and between stack entries.  The fields
    rhs, xi, c*rhs and 1 + xi*c sit in one field-major block (4 fields,
    4 sub-lattices, ..., *frame), so the two planes of one color are
    adjacent in v and in every field, and the pointwise rest of the
    update runs once per color over a single run that spans both planes,
    the pad rows between them included.  A sweep thus takes 20 ufunc
    calls: 3 per sub-lattice for the neighbor sum and 4 per color for
    the rest.  Pad cells carry rhs = xi = c*rhs = 0 and 1 + xi*c = 1, so
    the update writes +0.0 there while the neighbors are finite, and a
    pad cell keeps standing in for a missing neighbor.  (A non-finite
    value turns its pad neighbors to NaN, which then reach the next row
    and the next stack entry.)  The neighbor sum is taken pairwise,
    (left + right) + (up + down), so that for a constant field it rounds
    identically to count * value.

    The update is written as v = rhs + xi*(T - c*rhs)/(1 + xi*c) with T
    the neighbor sum and c the neighbor count: algebraically identical
    to (rhs + xi*T)/(1 + xi*c) but exact (bitwise) at xi = 0 and on
    constant fixed points.

    Raises ValueError when rhs is not a stack of grids, v0 does not have
    the shape of rhs, xi does not broadcast to it, or sweeps < 0.
    """
    rhs = np.asarray(rhs)
    v0 = np.asarray(v0)
    if rhs.ndim < 2:
        raise ValueError("rhs must have shape (..., H, W), got %s" % (rhs.shape,))
    if v0.shape != rhs.shape:
        raise ValueError("v0 shape %s differs from rhs shape %s" % (v0.shape, rhs.shape))
    try:
        xi = np.broadcast_to(xi, rhs.shape)
    except ValueError:
        raise ValueError(
            "xi shape %s does not broadcast to rhs shape %s" % (np.shape(xi), rhs.shape)
        ) from None
    if sweeps < 0:
        raise ValueError("sweeps must be nonnegative, got %d" % sweeps)
    h, w = rhs.shape[-2:]
    frame = ((h + 1) // 2 + 2, (w + 1) // 2 + 2)
    fields = _plane_fields(rhs, xi, frame)
    planes = np.zeros((4,) + rhs.shape[:-2] + frame)
    for plane, (py, px) in zip(planes, _SUBLATTICES):
        plane[_cells(h, w, py, px)] = v0[..., py::2, px::2]
    _sweep(planes, fields, sweeps)
    del fields  # free before allocating the output, so the sweep sets the peak
    out = np.empty(rhs.shape)
    for plane, (py, px) in zip(planes, _SUBLATTICES):
        out[..., py::2, px::2] = plane[_cells(h, w, py, px)]
    return out
