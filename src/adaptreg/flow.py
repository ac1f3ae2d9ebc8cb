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

Inner iterations follow the shared pattern: the gradient auxiliaries of
both components first (they read only v), weights from the explicit
residual, r by scalar shrink, u by a per-pixel 2x2 rank-one solve of
(mu theta I + lambda A A^T) u = mu theta (v - w) + lambda (ft - r) A
in closed form, one correction along A,

    u = (v - w) + lambda (ft - r - A . (v - w)) / (mu theta + lambda |A|^2) A,

then one screened v-solve over the component-first (2, H, W) stack
(exact by the DCT for a constant weight, a float lambda and so a scalar
xi; else red-black Gauss-Seidel sweeps), and dual ascent.  The
regularizer is per-partial-derivative by default (anisotropic_reg), or
isotropic per component when disabled.

The (H, W, 2) fields u, v, w and A of a FlowState are views of
C-contiguous (2, H, W) memory (component-planar): each component is one
contiguous plane, elementwise results of such fields inherit that
layout, and the component-first stack that gradient and the v-solve
take is a plain view.  update_u works per component on those planes.
The steps write z, lambda (when it is a field), r, u, v and w into the
state's own arrays, so code that keeps a field across an iteration must
copy it.

Each intermediate is computed once and shared.  The dual step
(solver.dual_step) forms u - v as a C-contiguous component-first stack,
from which it takes both the new w and the primal residual, kept as a
number.  FlowState._form_intermediates forms the data gap ft - A . u
and the component gradients of v, which the energy and the next
iteration read; it runs at the end of every iteration, in the
constructor and in relinearize.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .adaptive import weight_fields
from .grid import central_gradient, divergence, gradient, scalar_grid, vector_grid, warp_bilinear
from .prox import envelope_at, huber, huber_vec, shrink, shrink_vec
from .solver import (SolverParams, check_count, dual_step, run_admm, screened_solve, screened_system, slot,
                     v_step_buffers)


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


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]


def _component_gradient(v: np.ndarray) -> np.ndarray:
    """Gradients of both components of an (H, W, 2) field, (2, H, W, 2)."""
    return gradient(np.moveaxis(v, -1, 0))


def _planar(field: np.ndarray) -> np.ndarray:
    """A float64 copy of an (H, W, 2) field, as an (H, W, 2) view of
    C-contiguous (2, H, W) memory."""
    out = np.empty((2,) + field.shape[:-1])
    out[...] = np.moveaxis(field, -1, 0)
    return np.moveaxis(out, 0, -1)


class FlowState:
    """Velocity ADMM fields plus the frozen linearization (A, ft).

    u and v start at the seed u0 (zero if None), w at zero, and the
    constructor linearizes around u0 at tau0.  A seed that is not a
    finite (H, W, 2) field on the frames' grid raises ValueError.
    u, v, w and A are (H, W, 2) views of C-contiguous (2, H, W) memory,
    as _planar makes them at construction and in relinearize; fields
    assigned in another layout give the same results, only slower.  The
    gradient auxiliary z is component-first, (2, H, W, 2), as grad v
    is.  lam is an (H, W) field, or a float that broadcasts against the
    fields when the weight is constant.  iterate writes the fields in
    place (see the module docstring); solve_scratch, xi and rhs are the
    v-step's buffers, allocated once (solver.v_step_buffers).

    It keeps three values of the current fields: gap, the data gap
    ft - A . u, and grad_v, the component gradients of v, both read by
    the energy and the next iteration; and residual, the primal residual
    of the last dual step (0.0 at the start, where u = v).  A field
    assigned or written from outside is not seen by them until
    relinearize, which re-forms gap and grad_v.  energy() takes the data
    term at u and the regularizer at grad v."""

    def __init__(self, f1: np.ndarray, f2: np.ndarray, params: FlowParams, u0=None):
        self.f1, self.f2 = _frames(f1, f2)
        self.params = params
        shape = self.f1.shape
        zero = np.zeros(shape + (2,))
        seed = zero if u0 is None else vector_grid(u0)
        if seed.shape != zero.shape:
            raise ValueError("the seed u0 must have the frames' shape %s, got %s"
                             % (zero.shape, seed.shape))
        self.u = _planar(seed)
        self.v = _planar(seed)
        self.w = _planar(zero)
        self.r = np.zeros(shape, dtype=np.float64)
        self.z = np.zeros((2,) + shape + (2,), dtype=np.float64)
        self.lam = np.ones(shape, dtype=np.float64)
        self.solve_scratch, self.xi, self.rhs = v_step_buffers((2,) + shape, shape)
        self.tau_count = 0
        self.tau = tau_schedule(params.tau0, params.dtau, 0)
        self.residual = 0.0
        self.relinearize()

    def relinearize(self):
        """Re-expand the data term around the current field at the
        current tau; the prior is folded into ft."""
        a, ft = _linearize(self.f1, self.f2, self.u, self.tau)
        self.A = _planar(a)
        self.ft = ft + _dot(self.A, self.u)
        self._form_intermediates()

    def _form_intermediates(self):
        """The data gap ft - A . u and the component gradients of v."""
        # Gap first: on the 128^2 flow benchmark this order took fewer
        # minor faults per pass (median 2.8k against 4.5k over 64
        # passes), though the count swings several-fold with the heap.
        self.gap = self.ft - _dot(self.A, self.u)
        self.grad_v = _component_gradient(self.v)

    def iterate(self):
        p = self.params
        sp = p.solver
        if p.anisotropic_reg:
            shrink(self.grad_v, sp.eta, out=self.z)
        else:
            shrink_vec(self.grad_v, sp.eta, out=self.z)
        self.grad_v = None
        adaptive = sp.adaptive.constant_lambda is None
        self.lam = weight_fields(
            envelope_at(self.gap, self.r, sp.mu) if adaptive else None, sp.adaptive, out=self.lam
        )
        shrink(self.gap, sp.mu, out=self.r)
        self.gap = None
        update_u(self, sp)
        update_v_w(self, sp, rhs=self.rhs, xi=self.xi, scratch=self.solve_scratch)
        self._form_intermediates()
        self.tau_count += 1
        self.tau = tau_schedule(p.tau0, p.dtau, self.tau_count)

    def energy(self) -> float:
        sp = self.params.solver
        g = self.grad_v
        # One Huber call per component: on a 128^2 state, one call on the
        # whole (2, H, W, 2) stack peaked 1.1 to 1.2 fields higher under
        # tracemalloc, and with the anisotropic regularizer it took twice
        # as long (435-449 against 227-229 us, best of 7 in two runs;
        # 2-core Xeon, numpy 2.4.6).
        if self.params.anisotropic_reg:
            h = huber(g[0], sp.eta)
            reg = h[..., 0] + h[..., 1]
            h = huber(g[1], sp.eta)
            reg += h[..., 0] + h[..., 1]
        else:
            reg = huber_vec(g[0], sp.eta)
            reg += huber_vec(g[1], sp.eta)
        reg *= 1.0 - self.lam
        data = huber(self.gap, sp.mu)
        data *= self.lam
        return float(np.sum(data) + np.sum(reg))


def update_u(state: FlowState, params: SolverParams) -> np.ndarray:
    """Per-pixel rank-one solve of (mu theta I + lambda A A^T) u =
    mu theta (v - w) + lambda (ft - r) A in closed form, one correction
    along A from base = v - w:

        u = base + lambda (ft - r - A . base) / (mu theta + lambda |A|^2) A

    written into state.u, which it returns.  Where lambda = 0 or A = 0
    it returns v - w exactly, though a -0.0 there may come back as +0.0
    (the correction is a signed zero added to it).  The work runs on
    the component-first (2, H, W) views, where the (H, W) factors
    broadcast over the leading axis; on planar fields these are
    contiguous planes, as are the planes of state.u that take the
    result.
    """
    a = np.moveaxis(state.A, -1, 0)
    base = np.moveaxis(state.v - state.w, -1, 0)
    gain = state.ft - state.r
    gain -= a[0] * base[0]
    gain -= a[1] * base[1]
    gain *= state.lam
    den = a[0] * a[0]
    den += a[1] * a[1]
    den *= state.lam
    den += params.mu * params.theta
    gain /= den
    u = np.multiply(gain, a, out=np.moveaxis(state.u, -1, 0))
    u += base
    return state.u


def update_v_w(state: FlowState, params: SolverParams, *, rhs=None, xi=None, scratch=None) -> None:
    """One screened v-solve over the component-first (2, H, W) stack
    (exact for a float lambda, gs_sweeps Gauss-Seidel sweeps from v for
    a weight field) from the gradient auxiliaries z, then dual ascent.
    rhs, xi and scratch are the buffers of solver.v_step_buffers, or
    None: rhs takes the divergence of z and then the right-hand side,
    xi's head takes xi (solver.screened_system), and the flat scratch
    takes the divergence's bands, u + w, the solve and u - v.  The solve
    writes v into state.v in place, and the new u - v gives both the new
    w and the primal residual, kept as state.residual.  u - v is formed
    as a C-contiguous (2, H, W) stack, so the residual sums in that
    order whatever the fields' layout."""
    u, v, w = (np.moveaxis(a, -1, 0) for a in (state.u, state.v, state.w))
    div_z = divergence(state.z, out=rhs, scratch=scratch)
    rhs, xi = screened_system(div_z, u, w, state.lam, params, xi=xi, scratch=scratch)
    screened_solve(rhs, xi, v, params.gs_sweeps, out=v, scratch=scratch)
    state.residual = dual_step(u, v, w, out=slot(scratch, v.shape))


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
