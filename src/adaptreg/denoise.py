"""Adaptive Huber-Huber denoising.

Model: per pixel, lambda * phi_mu(f - u) + (1 - lambda) * phi_eta(|grad u|),
with lambda driven by the data residual.  ADMM splits u = v, soft-shrinks
the auxiliaries r (data) and z (gradient), and alternates:

    z            vector shrink of grad v (it reads only v, so it runs
                 first, from the grad v and |grad v| the last iteration
                 formed)
    nu, lambda   from the explicit residual envelope_at(f - u, r, mu) =
                 |r| + (f - u - r)^2 / (2 mu) at the previous r (taken
                 literally from the update sequence, not recomputed);
                 a constant weight never reads it, so it is not formed
    r            shrink(f - u | mu), from the same data gap f - u
    u            pointwise solve of (lambda + mu theta) u
                     = mu theta (v - w) + lambda (f - r)
    v            screened system (1 - xi Laplacian) v = u + w - xi div z,
                 xi = (1 - lambda)/(eta theta): a constant weight is a
                 float lambda, so xi is a scalar and screened_solve
                 solves exactly by the DCT; a weight field takes
                 red-black Gauss-Seidel sweeps
    w            w + u - v

Initialization u = v = f, everything else zero.  A constant image is a
fixed point: the first iteration already has a zero primal residual.

Each intermediate is computed once and shared.  The dual step
(solver.dual_step) forms u - v, from which it takes the new w and then
the primal residual, kept as a number.  After it, at the end of every
iteration (and in the constructor), DenoiseState._form_intermediates
forms grad v, |grad v| and the data gap f - u of the new fields: the
energy reads them, and so does the next iteration (huber_vec and
shrink_vec both read the norm, the weights and the r-step the gap).
energy() only reads what is kept.

Workspace: a DenoiseState allocates one _Workspace at construction and
reuses it for every iteration, so a steady-state iteration allocates
nothing of field size.  The steps write u, v, w, r, z and a weight field
lambda in place: the v-step builds its right-hand side in the
workspace's rhs field and the solve writes v over the old v.  A float
lambda, as a constant-weight run leaves it, is replaced by a field when
a weight field is next formed.  The workspace's slots share memory across
the phases of an iteration (see _Workspace), so it takes no more memory
than the v-solve's temporaries did.  A field assigned or written from
outside the state between iterations is not seen by the kept
intermediates.
"""

from __future__ import annotations

import numpy as np

from .adaptive import weight_fields
from .grid import divergence, gradient, scalar_grid, smoothing_scratch_size
from .prox import envelope_at, huber, huber_vec, shrink, shrink_vec, vector_norm
from .solver import SolverParams, dual_step, run_admm, screened_solve, screened_system, slot, v_step_buffers


class _Workspace:
    """The buffers of one DenoiseState, allocated once.

    solver.v_step_buffers allocates the v-step's buffers: one arena that
    holds the v-solve's scratch and then one field, and the rhs field.
    Between v-solves, the scratch's start holds other slots in turn:

        the smoothing's scratch                  weights
        the u-step's temporaries                 u-step
        u - v                                    dual step
        grad v (component-planar) and |grad v|   end of iteration -> energy
                                                 and next z-step

    and f - u sits past the smoothing's part (end of iteration -> energy
    and next r-step).  The field slot takes the envelope, xi, |grad v|'s
    second square, the energy's terms and the signs of the shrinks; the
    rhs field takes the v-step's right-hand side and the energy's
    scratch."""

    def __init__(self, shape, sigma: float):
        n = shape[0] * shape[1]
        gap_at = max(3 * n, smoothing_scratch_size(shape, sigma))
        self.solve, self.field, self.rhs = v_step_buffers(shape, shape, gap_at + n)
        self.smoothing = self.solve[:gap_at]
        self.temps = self.solve[: 3 * n].reshape((3,) + shape)
        self.grad = np.moveaxis(self.solve[: 2 * n].reshape((2,) + shape), 0, -1)
        self.norm = self.temps[2]
        self.gap = self.solve[gap_at : gap_at + n].reshape(shape)


class DenoiseState:
    """Fields of the denoising ADMM: f, u, v, w, r, z, lam.

    lam is an (H, W) field, or a float that broadcasts against the
    fields when the weight is constant.  z is component-planar: an
    (H, W, 2) view of (2, H, W) memory.  The state writes its fields in
    place (see the module docstring), so code that keeps a field across
    an iteration must copy it.  grad v, |grad v| and f - u of the
    current fields sit in the workspace, and residual is the primal
    residual of the last dual step (0.0 at the start, where u = v).
    energy() takes the data term at u and the regularizer at grad v."""

    def __init__(self, f: np.ndarray, params: SolverParams):
        self.f = scalar_grid(f)
        self.params = params
        self.u = self.f.copy()
        self.v = self.f.copy()
        self.w = np.zeros_like(self.f)
        self.r = np.zeros_like(self.f)
        self.z = np.moveaxis(np.zeros((2,) + self.f.shape), 0, -1)
        self.lam = np.ones_like(self.f)
        self.workspace = _Workspace(self.f.shape, params.adaptive.smoothing_sigma)
        self.residual = 0.0
        self._form_intermediates()

    def _form_intermediates(self):
        """grad v, |grad v| and f - u into their workspace slots."""
        ws = self.workspace
        gradient(self.v, out=ws.grad)
        vector_norm(ws.grad, out=ws.norm, scratch=ws.field)
        np.subtract(self.f, self.u, out=ws.gap)

    def iterate(self):
        p = self.params
        ws = self.workspace
        shrink_vec(ws.grad, p.eta, norm=ws.norm, out=self.z)
        rho = None
        if p.adaptive.constant_lambda is None:
            rho = envelope_at(ws.gap, self.r, p.mu, out=ws.field, scratch=ws.temps[0])
        self.lam = weight_fields(rho, p.adaptive, out=self.lam, scratch=ws.smoothing)
        shrink(ws.gap, p.mu, out=self.r, scratch=ws.field)
        update_u(self, p, out=self.u, scratch=ws.temps)
        update_v(self, p, rhs=ws.rhs, xi=ws.field, scratch=ws.solve)
        self.residual = dual_step(self.u, self.v, self.w, out=ws.temps[0])
        self._form_intermediates()

    def energy(self) -> float:
        p = self.params
        ws = self.workspace
        data = huber(ws.gap, p.mu, out=ws.field, scratch=ws.rhs)
        data *= self.lam
        total = np.sum(data)
        reg = huber_vec(ws.grad, p.eta, norm=ws.norm, out=ws.field, scratch=ws.rhs)
        reg *= np.subtract(1.0, self.lam, out=ws.rhs)
        return float(total + np.sum(reg))


def update_u(state: DenoiseState, params: SolverParams, *, out=None, scratch=None) -> np.ndarray:
    """Pointwise solve of (lambda + mu theta) u = mu theta (v - w) + lambda (f - r).

    Written incrementally, u = (v - w) + lambda ((f - r) - (v - w)) / (lambda
    + mu theta), which returns v - w bitwise where lambda = 0 and f where the
    two targets coincide.  out, if given, receives u and may be state.u;
    scratch, if given, is a (3, H, W) stack of free fields; the third
    takes lambda + mu theta in lambda's shape, so a float lambda divides
    by one entry.
    """
    base, gap, den = (None, None, None) if scratch is None else scratch
    base = np.subtract(state.v, state.w, out=base)
    gap = np.subtract(state.f, state.r, out=gap)
    gap -= base
    gap *= state.lam
    gap /= np.add(state.lam, params.mu * params.theta, out=slot(den, np.shape(state.lam)))
    return np.add(base, gap, out=out)


def update_v(state: DenoiseState, params: SolverParams, *, rhs=None, xi=None, scratch=None) -> np.ndarray:
    """Screened solve of (1 - xi Laplacian) v = u + w - xi div z, written
    into state.v, which it returns: exact for a float lambda (scalar xi),
    gs_sweeps Gauss-Seidel sweeps from v for a weight field.

    rhs, xi and scratch are the buffers of solver.v_step_buffers, or
    None: rhs takes the divergence of z and then the right-hand side,
    xi's head takes xi (solver.screened_system), and the flat scratch
    takes the divergence's bands, u + w and the solve."""
    div_z = divergence(state.z, out=rhs, scratch=scratch)
    rhs, xi = screened_system(div_z, state.u, state.w, state.lam, params, xi=xi, scratch=scratch)
    return screened_solve(rhs, xi, state.v, params.gs_sweeps, out=state.v, scratch=scratch)


def run_denoise(f: np.ndarray, params: SolverParams, on_check=None):
    """Denoise f (normalized to [0,1]); returns (u, history).

    The state writes its fields in place, so on_check must copy whatever
    it keeps of them; the returned u is the state's own field."""
    state = DenoiseState(f, params)
    return run_admm(state, params, on_check=on_check)
