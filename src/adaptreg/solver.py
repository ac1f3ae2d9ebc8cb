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
    gs_sweeps bounds the inner Gauss-Seidel passes of each v-update.
    """

    mu: float
    eta: float
    theta: float
    adaptive: AdaptiveParams
    max_iters: int = 300
    tol_primal: float = 1e-6
    gs_sweeps: int = 20

    def __post_init__(self):
        if self.mu <= 0 or self.eta <= 0:
            raise ValueError("Huber thresholds mu and eta must be positive")
        if self.theta <= 0:
            raise ValueError("theta must be positive")
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        if self.tol_primal <= 0:
            raise ValueError("tol_primal must be positive")
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


def _neighbor_count(shape) -> np.ndarray:
    h, w = shape
    c = np.full((h, w), 4.0)
    c[0, :] -= 1.0
    c[-1, :] -= 1.0
    c[:, 0] -= 1.0
    c[:, -1] -= 1.0
    return c


def screened_solve(rhs: np.ndarray, xi: np.ndarray, v0: np.ndarray, sweeps: int) -> np.ndarray:
    """Gauss-Seidel sweeps for (1 - xi * laplacian) v = rhs on a stack.

    rhs and v0 have shape (..., H, W); every leading index is a separate
    grid, and xi broadcasts against rhs (one (H, W) weight can serve a
    whole stack).  Five-point Laplacian with replicate (Neumann)
    boundary, so boundary pixels simply see fewer neighbors.  Red-black
    ordering: each half sweep updates one checkerboard color from the
    other, which makes the result independent of traversal order.

    A half sweep touches only its own color.  v lives in the interior of
    one zero-padded buffer; each color is two strided sub-lattices
    (row and column parity), and their four neighbors are shifted views
    of the same buffer, where the zero pad stands in for a missing
    neighbor.  The neighbor sum is taken pairwise, (left + right) +
    (up + down), so that for a constant field it rounds identically to
    count * value.

    The update is written as v = rhs + xi*(T - c*rhs)/(1 + xi*c) with T
    the neighbor sum and c the neighbor count: algebraically identical
    to (rhs + xi*T)/(1 + xi*c) but exact (bitwise) at xi = 0 and on
    constant fixed points.
    """
    h, w = rhs.shape[-2:]
    pad = np.zeros(rhs.shape[:-2] + (h + 2, w + 2))
    pad[..., 1:-1, 1:-1] = v0
    c = _neighbor_count((h, w))
    cr = c * rhs
    denom = 1.0 + xi * c
    lattices = []
    # Row and column parities of the two red sub-lattices, then the two
    # black ones; the two of one color never neighbor each other.
    for py, px in ((0, 0), (1, 1), (0, 1), (1, 0)):
        # Offset k = 0, 1, 2 steps one row (column) before, onto and after
        # the sub-lattice in the padded frame; k = 0 is the sub-lattice
        # itself in the unpadded arrays.
        r = [slice(py + k, h + k, 2) for k in range(3)]
        q = [slice(px + k, w + k, 2) for k in range(3)]
        neighbors = (
            pad[..., r[1], q[0]], pad[..., r[1], q[2]], pad[..., r[0], q[1]], pad[..., r[2], q[1]]
        )
        fields = tuple(a[..., r[0], q[0]] for a in (rhs, xi, cr, denom))
        lattices.append((pad[..., r[1], q[1]], neighbors, fields))
    for _ in range(sweeps):
        for center, (left, right, up, down), (b, x, bc, d) in lattices:
            center[...] = b + x * (((left + right) + (up + down)) - bc) / d
    return pad[..., 1:-1, 1:-1].copy()
