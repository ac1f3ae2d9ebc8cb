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
(mu theta I + lambda A A^T) u = mu theta (v - w) + lambda (ft - r) A,
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
from .grid import central_gradient, divergence, gradient, scalar_grid, warp_bilinear
from .prox import envelope_at, huber, huber_vec, shrink, shrink_vec
from .solver import SolverParams, check_count, dual_step, run_admm, screened_solve


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
    k >= ceil((1 - tau0)/dtau); dtau = 0 keeps tau0 forever.
    """
    if dtau <= 0.0:
        return tau0
    if k >= math.ceil((1.0 - tau0) / dtau):
        return 1.0
    return min(1.0, tau0 + k * dtau)


def linearize(f1: np.ndarray, f2: np.ndarray, u0: np.ndarray, tau: float):
    """Symmetric warp linearization; returns (A, ft) with ft unfolded.

    f1 is warped by +tau u0 and f2 by -(1-tau) u0; ft is their
    difference and A the tau-mixed central gradient of the warps, the
    mix consistent with the symmetric warp at tau = 0.5.
    """
    f1 = scalar_grid(f1)
    f2 = scalar_grid(f2)
    if f1.shape != f2.shape:
        raise ValueError("frames must share a shape")
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
    constructor linearizes around u0 at tau0.  u, v, w and A are
    (H, W, 2) views of C-contiguous (2, H, W) memory, as _planar makes
    them at construction and in relinearize; fields assigned in another
    layout give the same results, only slower.  The gradient auxiliary
    z is component-first, (2, H, W, 2), as grad v is.  lam is an (H, W)
    field, or a float that broadcasts against the fields when the
    weight is constant.  iterate writes the fields in place (see the
    module docstring).

    It keeps three values of the current fields: gap, the data gap
    ft - A . u, and grad_v, the component gradients of v, both read by
    the energy and the next iteration; and residual, the primal residual
    of the last dual step (0.0 at the start, where u = v).  A field
    assigned or written from outside is not seen by them until
    relinearize, which re-forms gap and grad_v."""

    def __init__(self, f1: np.ndarray, f2: np.ndarray, params: FlowParams, u0=None):
        self.f1 = scalar_grid(f1)
        self.f2 = scalar_grid(f2)
        if self.f1.shape != self.f2.shape:
            raise ValueError("frames must share a shape")
        self.params = params
        shape = self.f1.shape
        zero = np.zeros(shape + (2,))
        seed = zero if u0 is None else u0
        self.u = _planar(seed)
        self.v = _planar(seed)
        self.w = _planar(zero)
        self.r = np.zeros(shape, dtype=np.float64)
        self.z = np.zeros((2,) + shape + (2,), dtype=np.float64)
        self.lam = np.ones(shape, dtype=np.float64)
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
        update_v_w(self, sp)
        self._form_intermediates()
        self.tau_count += 1
        self.tau = tau_schedule(p.tau0, p.dtau, self.tau_count)

    def primal_residual(self) -> float:
        return self.residual

    def energy(self) -> float:
        sp = self.params.solver
        g = self.grad_v
        # One Huber call per component: a single call on the whole
        # (2, H, W, 2) stack measured about 3% slower end to end on the
        # 128^2 flow benchmark (slower in 5 of 6 paired runs, 2-core x86).
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

    def mean_lambda(self) -> float:
        return float(np.mean(self.lam))

    def solution(self) -> np.ndarray:
        return self.u


def update_u(state: FlowState, params: SolverParams) -> np.ndarray:
    """Per-pixel rank-one solve of (mu theta I + lambda A A^T) u = b,
    b = mu theta (v - w) + lambda (ft - r) A, written into state.u,
    which it returns.

    Written so that lambda = 0 or A = 0 returns v - w bitwise; the
    general case matches a direct 2x2 inversion to machine precision.
    The work runs on the component-first (2, H, W) views, where the
    (H, W) factors broadcast over the leading axis; on planar fields
    these are contiguous planes, as are the planes of state.u that take
    the result.  Sums and
    products are accumulated in place with their operands swapped where
    that saves a temporary, which rounds the same.
    """
    mu_theta = params.mu * params.theta
    a = np.moveaxis(state.A, -1, 0)
    base = np.moveaxis(state.v - state.w, -1, 0)
    coeff = state.lam * (state.ft - state.r)
    # b = mu theta base + coeff A
    b = mu_theta * base
    b += coeff * a
    # scale = lambda (A . b) / (mu theta (mu theta + lambda |A|^2))
    scale = a[0] * b[0]
    scale += a[1] * b[1]
    scale *= state.lam
    den = a[0] * a[0]
    den += a[1] * a[1]
    den *= state.lam
    den += mu_theta
    den *= mu_theta
    scale /= den
    # u = base + (coeff / mu theta - scale) A
    gain = coeff / mu_theta
    gain -= scale
    u = np.multiply(gain, a, out=np.moveaxis(state.u, -1, 0))
    u += base
    return state.u


def update_v_w(state: FlowState, params: SolverParams) -> None:
    """One screened v-solve over the component-first (2, H, W) stack
    (exact for a float lambda, gs_sweeps Gauss-Seidel sweeps from v for
    a weight field) from the gradient auxiliaries z, then dual ascent.
    The solve writes v into state.v in place, and the new u - v gives
    both the new w and the primal residual, which is kept for
    primal_residual.  u - v is formed as a C-contiguous (2, H, W) stack,
    so the residual sums in that order whatever the fields' layout."""
    xi = (1.0 - state.lam) / (params.eta * params.theta)
    v = np.moveaxis(state.v, -1, 0)
    # rhs = (u + w) - xi div z, written over div z
    rhs = divergence(state.z)
    rhs *= xi
    np.subtract(np.moveaxis(state.u + state.w, -1, 0), rhs, out=rhs)
    screened_solve(rhs, xi, v, params.gs_sweeps, out=v)
    u, w = np.moveaxis(state.u, -1, 0), np.moveaxis(state.w, -1, 0)
    state.residual = dual_step(u, v, w, out=np.empty(v.shape))


def _downsample(f: np.ndarray) -> np.ndarray:
    """2x2 block mean; odd trailing rows/columns are dropped."""
    h2, w2 = f.shape[0] // 2, f.shape[1] // 2
    c = f[: 2 * h2, : 2 * w2]
    return (c[0::2, 0::2] + c[0::2, 1::2] + c[1::2, 0::2] + c[1::2, 1::2]) / 4.0


def _upsample_flow(u: np.ndarray, shape) -> np.ndarray:
    """Nearest-neighbor 2x upsampling with doubled magnitudes, padded or
    cropped to the target shape."""
    up = np.repeat(np.repeat(u, 2, axis=0), 2, axis=1) * 2.0
    h, w = shape
    up = up[:h, :w]
    pad_h, pad_w = h - up.shape[0], w - up.shape[1]
    if pad_h or pad_w:
        up = np.pad(up, ((0, pad_h), (0, pad_w), (0, 0)), mode="edge")
    return up


def _run_warps(f1, f2, params: FlowParams, u_init, start_iter: int, on_check):
    state = FlowState(f1, f2, params, u0=u_init)
    history = []
    it = start_iter
    for warp in range(params.n_warps):
        if warp:
            state.relinearize()
        _, h = run_admm(state, params.solver, start_iter=it, on_check=on_check)
        history.extend(h)
        it += params.solver.max_iters
    return state, history, it


def run_flow(f1: np.ndarray, f2: np.ndarray, params: FlowParams, on_check=None):
    """Estimate the flow from f1 to f2; returns (u, history).

    Outer loop: n_warps re-linearizations, each followed by a full inner
    ADMM run; with pyramid_levels > 1, a coarse-to-fine sweep over 2x
    downscaled frames seeds each finer level.  pyramid_levels is a cap:
    a level is halved only while both its sides are at least 16 px, so
    5 levels of a 32 px pair run 3 (32, 16 and 8 px).  Iteration numbers in the
    history advance by the per-warp budget even when a warp stops early.
    u is returned as a C-contiguous (H, W, 2) array.  The state writes
    its fields in place, so on_check must copy whatever it keeps of them.
    """
    f1 = scalar_grid(f1)
    f2 = scalar_grid(f2)
    if f1.shape != f2.shape:
        raise ValueError("frames must share a shape")
    pyramid = [(f1, f2)]
    for _ in range(params.pyramid_levels - 1):
        a, b = pyramid[-1]
        if min(a.shape) < 16:
            break
        pyramid.append((_downsample(a), _downsample(b)))
    u_init = None
    history = []
    it = 0
    for level_f1, level_f2 in reversed(pyramid):
        if u_init is not None:
            u_init = _upsample_flow(u_init, level_f1.shape)
        state, h, it = _run_warps(level_f1, level_f2, params, u_init, it, on_check)
        history.extend(h)
        u_init = state.u
    return np.ascontiguousarray(state.u), history
