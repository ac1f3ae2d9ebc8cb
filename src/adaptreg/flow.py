"""Optical flow with the adaptive Huber-Huber model and warp annealing.

The brightness constraint f2(x - (1-tau)u) = f1(x + tau u) is linearized
around a prior field u0: both frames are warped toward each other by the
mix tau, giving a per-pixel linear constraint A . u ~ ft with

    A  = (1 - tau) grad f2w + tau grad f1w     (central differences)
    ft = (f2w - f1w) + A . u0

(the prior is folded into ft so the updates read ft - A . u directly).
tau starts at tau0 (0.5 keeps the energy symmetric in the two frames)
and grows by dtau per inner iteration, clamped to exactly 1 after
ceil((1 - tau0)/dtau) steps; A and ft stay fixed between outer warps.

Inner iterations are those of the linear-data state that flow shares
with denoising (denoise.LinearState, its module docstring gives the
order), with two components, b = ft and A the linearization's field:
P = grad v - y of both components first, weights from the explicit
residual, the gradient split z by the prox of t phi_eta at P
(t = (1 - lambda)/rho), r by scalar shrink, u by the per-pixel rank-one
solve of (mu theta I + lambda A A^T) u = mu theta (v - w) + lambda (ft - r) A
in closed form, one correction along A,

    u = (v - w) + lambda (ft - r - A . (v - w)) / (mu theta + lambda |A|^2) A,

then one screened v-solve over the component-first (2, H, W) stack,
exact by the DCT for either weight (the scalar xi = rho/theta), and
dual ascent on w and y.  The regularizer is per-partial-derivative by
default (anisotropic_reg: the z-step's prox runs per partial
derivative), or isotropic per component when disabled.  FlowState adds
tau, the warps' relinearization and the planar layout.

The (H, W, 2) fields u, v, w and A of a FlowState are views of
C-contiguous (2, H, W) memory (component-planar): each component is one
contiguous plane, elementwise results of such fields inherit that
layout, and the component-first stack that gradient, the u-step and the
v-solve take is a plain view.  z and y, (2, H, W, 2), are views of
(2, 2, H, W) memory, one plane per partial derivative and component.
The steps write z, y, lambda (when it is a field), r, u, v and w into
the state's own arrays, and everything else into the state's workspace,
so a steady-state iteration allocates nothing of field size; code that
keeps a field across an iteration must copy it.  The kept intermediates
(grad v, formed by the v-step, and the data gap ft - A . u) are formed
in the constructor and in relinearize too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# weight_fields, divergence, gradient, shrink, shrink_vec, screened_solve: bound for the tracer only
from .adaptive import weight_fields
from .denoise import LinearState, _copy, _dot, _stack, update_u, update_v_w
from .grid import central_gradient, divergence, gradient, scalar_grid, vector_grid, warp_bilinear
from .prox import shrink, shrink_vec
from .solver import SolverParams, check_count, run_admm, screened_solve


@dataclass
class FlowParams:
    solver: SolverParams
    tau0: float = 0.5
    dtau: float = 0.005
    n_warps: int = 10
    pyramid_levels: int = 1
    anisotropic_reg: bool = True

    def __post_init__(self):
        if not 0.0 <= self.tau0 <= 1.0:
            raise ValueError("tau0 must lie in [0, 1]")
        if not 0.0 <= self.dtau < math.inf:
            raise ValueError("dtau must be nonnegative and finite")
        check_count("n_warps", self.n_warps, 1)
        check_count("pyramid_levels", self.pyramid_levels, 1)


def tau_schedule(tau0: float, dtau: float, k: int) -> float:
    """Warp mix after k inner iterations: min(1, tau0 + k dtau).

    Clamped by step count so the value is exactly 1.0 once
    k >= ceil((1 - tau0)/dtau); dtau = 0 keeps tau0 forever.  For an
    integer k that holds exactly when k >= (1 - tau0)/dtau, which is
    what is compared, so a quotient that overflows to inf never clamps.
    """
    if dtau <= 0.0:
        return tau0
    if k >= (1.0 - tau0) / dtau:
        return 1.0
    return min(1.0, tau0 + k * dtau)


def _frames(f1, f2):
    """The two frames as float64 grids of one shape, else ValueError."""
    f1, f2 = scalar_grid(f1), scalar_grid(f2)
    if f1.shape != f2.shape:
        raise ValueError("frames must share a shape")
    return f1, f2


def linearize(f1: np.ndarray, f2: np.ndarray, u0: np.ndarray, tau: float):
    """Symmetric warp linearization; returns (A, ft) with ft unfolded.

    f1 is warped by +tau u0 and f2 by -(1-tau) u0; ft is their
    difference and A the tau-mixed central gradient of the warps, the
    mix consistent with the symmetric warp at tau = 0.5.
    """
    f1, f2 = _frames(f1, f2)
    f1w = warp_bilinear(f1, u0, scale=tau)
    f2w = warp_bilinear(f2, u0, scale=-(1.0 - tau))
    a = (1.0 - tau) * central_gradient(f2w) + tau * central_gradient(f1w)
    return a, f2w - f1w


# The module binding FlowState.relinearize calls, so wrapping it sees
# every relinearization.
_linearize = linearize


class FlowState(LinearState):
    """Velocity ADMM fields plus the frozen linearization (A, ft): the
    two-component LinearState with b = ft.

    u and v start at the seed u0 (zero if None), w at zero, and the
    constructor linearizes around u0 at tau0.  A seed that is not a
    finite (H, W, 2) field on the frames' grid raises ValueError.
    u, v, w and A are (H, W, 2) views of C-contiguous (2, H, W) memory,
    as denoise._copy makes them at construction and in relinearize; fields
    assigned in another layout give the same results, only slower.  The
    gradient split z and its dual y are component-first, (2, H, W, 2),
    as grad v is, and planar per partial derivative.  The regularizer is
    params.anisotropic_reg at construction, kept as anisotropic.
    Besides what LinearState keeps, relinearize re-forms the kept
    intermediates, and tau follows the count of inner iterations."""

    b = property(lambda self: self.ft)
    solver = property(lambda self: self.params.solver)

    def __init__(self, f1: np.ndarray, f2: np.ndarray, params: FlowParams, u0=None):
        self.f1, self.f2 = _frames(f1, f2)
        self.params = params
        self.anisotropic = params.anisotropic_reg
        shape = self.f1.shape
        zero = np.zeros(shape + (2,))
        seed = zero if u0 is None else vector_grid(u0)
        if seed.shape != zero.shape:
            raise ValueError("the seed u0 must have the frames' shape %s, got %s"
                             % (zero.shape, seed.shape))
        self._start(seed, params.solver.adaptive.smoothing_sigma)
        self.tau_count = 0
        self.tau = tau_schedule(params.tau0, params.dtau, 0)
        self.relinearize()

    def relinearize(self):
        """Re-expand the data term around the current field at the
        current tau; the prior is folded into ft."""
        a, ft = _linearize(self.f1, self.f2, self.u, self.tau)
        self.A = _copy(a)
        self.ft = ft + _dot(_stack(self.A), _stack(self.u))
        self._form_intermediates()

    def iterate(self):
        self._step(update_u, update_v_w)
        self.tau_count += 1
        self.tau = tau_schedule(self.params.tau0, self.params.dtau, self.tau_count)

    energy = LinearState.energy


def _downsample(f: np.ndarray) -> np.ndarray:
    """2x2 block mean; odd trailing rows/columns are dropped."""
    h2, w2 = f.shape[0] // 2, f.shape[1] // 2
    c = f[: 2 * h2, : 2 * w2]
    return (c[0::2, 0::2] + c[0::2, 1::2] + c[1::2, 0::2] + c[1::2, 1::2]) / 4.0


def _upsample_flow(u: np.ndarray, shape) -> np.ndarray:
    """Nearest-neighbor 2x upsampling with doubled magnitudes to the
    target shape: a row or column beyond twice the coarse side repeats
    the coarse edge."""
    h, w = u.shape[:2]
    rows = np.minimum(np.arange(shape[0]) // 2, h - 1)
    cols = np.minimum(np.arange(shape[1]) // 2, w - 1)
    return (2.0 * u).take(rows, axis=0).take(cols, axis=1)


def run_flow(f1: np.ndarray, f2: np.ndarray, params: FlowParams, on_check=None):
    """Estimate the flow u from f1 to f2, f2(x) = f1(x + u); returns
    (u, history).

    Outer loop: n_warps re-linearizations, each followed by a full inner
    ADMM run; with pyramid_levels > 1, a coarse-to-fine sweep over 2x
    downscaled frames seeds each finer level.  pyramid_levels is a cap:
    a level is halved only while both its sides are at least 16 px, so
    5 levels of a 32 px pair run 3 (32, 16 and 8 px).  Iteration numbers in the
    history advance by the per-warp budget even when a warp stops early.
    u is returned as a C-contiguous (H, W, 2) array.  The state writes
    its fields in place, so on_check must copy whatever it keeps of them.
    """
    f1, f2 = _frames(f1, f2)
    pyramid = [(f1, f2)]
    for _ in range(params.pyramid_levels - 1):
        a, b = pyramid[-1]
        if min(a.shape) < 16:
            break
        pyramid.append((_downsample(a), _downsample(b)))
    u = None
    history = []
    it = 0
    for level_f1, level_f2 in reversed(pyramid):
        if u is not None:
            u = _upsample_flow(u, level_f1.shape)
        state = FlowState(level_f1, level_f2, params, u0=u)
        for warp in range(params.n_warps):
            if warp:
                state.relinearize()
            u, h = run_admm(state, params.solver, start_iter=it, on_check=on_check)
            history.extend(h)
            it += params.solver.max_iters
    return np.ascontiguousarray(u), history
