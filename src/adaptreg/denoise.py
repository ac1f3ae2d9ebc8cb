"""Adaptive Huber-Huber denoising, and the linear-data state it shares
with optical flow.

Model: per pixel, lambda * phi_mu(f - u) + (1 - lambda) * phi_eta(|grad u|),
with lambda driven by the data residual.  Denoising is the one-component
case of a state for a K-component field u with a pointwise linear data
term lambda * phi_mu(b - A . u) (the data term of TV-L1 optical flow):
here A is the identity and b = f, while flow.FlowState takes K = 2, an
(H, W, 2) field A and b = ft.  ADMM splits u = v, soft-shrinks the
auxiliaries r (data) and z (gradient), and alternates:

    z            shrink of grad v, a vector shrink per component (per
                 partial derivative with flow's anisotropic regularizer);
                 it reads only v, so it runs first, from the grad v and
                 |grad v| the last iteration formed
    nu, lambda   from the explicit residual envelope_at(b - A . u, r, mu)
                 = |r| + (b - A . u - r)^2 / (2 mu) at the previous r
                 (taken literally from the update sequence, not
                 recomputed); a constant weight never reads it, so it is
                 not formed
    r            shrink(b - A . u | mu), from the same data gap
    u            pointwise solve of (mu theta I + lambda A A^T) u
                     = mu theta (v - w) + lambda (b - r) A
                 in closed form (update_u); for A = 1 that is
                 (lambda + mu theta) u = mu theta (v - w) + lambda (f - r)
    v            screened system (1 - xi Laplacian) v = u + w - xi div z
                 over the (K, H, W) stack, xi = (1 - lambda)/(eta theta):
                 a constant weight is a float lambda, so xi is a scalar
                 and screened_solve solves exactly by the DCT; a weight
                 field takes red-black Gauss-Seidel sweeps
    w            w + u - v

Initialization u = v = f, everything else zero.  A constant image is a
fixed point: the first iteration already has a zero primal residual.

Each intermediate is computed once and shared.  The dual step
(solver.dual_step) forms u - v, from which it takes the new w and then
the primal residual, kept as a number.  After it, at the end of every
iteration (and in the constructor), LinearState._form_intermediates
forms grad v, |grad v| (not with the anisotropic regularizer, which
never reads it) and the data gap b - A . u of the new fields: the energy
reads them, and so does the next iteration (huber_vec and shrink_vec
both read the norm, the weights and the r-step the gap).  energy() only
reads what is kept.

The state's fields are its public attributes.  Every step reads them
through component-first views taken when it runs (_stack), so a field
assigned from outside between iterations is read as it is; only the kept
intermediates do not see it until they are formed again.

Workspace: a state allocates one _Workspace at construction and reuses
it for every iteration, so a steady-state iteration allocates nothing of
field size.  The steps write u, v, w, r, z and a weight field lambda in
place: the v-step builds its right-hand side in the workspace's rhs
stack and the solve writes v over the old v.  A float lambda, as a
constant-weight run leaves it, is replaced by a field when a weight
field is next formed.  The workspace's slots share memory across the
phases of an iteration (see _Workspace), so it takes no more memory than
the v-solve's temporaries did.
"""

from __future__ import annotations

import numpy as np

from .adaptive import weight_fields
from .grid import divergence, gradient, scalar_grid, smoothing_scratch_size
from .prox import envelope_at, huber, huber_vec, shrink, shrink_vec, vector_norm
from .solver import SolverParams, dual_step, run_admm, screened_solve, screened_system, slot, v_step_buffers


class _Workspace:
    """The buffers of one K-component linear-data state, allocated once,
    for (K, H, W) stacks.

    solver.v_step_buffers allocates the v-step's buffers: one arena that
    holds the v-solve's scratch and then one (H, W) field, and the rhs
    stack.  Between v-solves, the arena's start holds other slots in turn:

        the smoothing's scratch                  weights
        the u-step's K + 3 temporaries           u-step
        u - v                                    dual step
        grad v (2K fields, in z's layout)        end of iteration -> energy
        and |grad v| (K fields)                  and next z-step

    and b - A . u sits past the smoothing's part and |grad v| (end of
    iteration -> energy and next r-step).  The field slot takes the
    envelope, xi, the A . u products of the gap, the energy's terms and
    the signs of the shrinks; the rhs stack takes the v-step's
    right-hand side, the signs of the anisotropic z-step and the energy's
    scratch, and the |grad v| slots the anisotropic regularizer's Huber
    terms."""

    def __init__(self, shape, sigma: float, interleaved: bool):
        k, grid = shape[0], shape[1:]
        n = grid[0] * grid[1]
        gap_at = max(3 * k * n, smoothing_scratch_size(grid, sigma))
        self.solve, self.field, self.rhs = v_step_buffers(shape, grid, gap_at + n)
        self.smoothing = self.solve[:gap_at]
        self.temps = self.solve[: (k + 3) * n].reshape((k + 3,) + grid)
        grad = self.solve[: 2 * k * n]
        planar = np.moveaxis(grad.reshape((2,) + shape), 0, -1)
        self.grad = grad.reshape(shape + (2,)) if interleaved else planar
        self.norm = self.solve[2 * k * n : 3 * k * n].reshape(shape)
        self.gap = self.solve[gap_at : gap_at + n].reshape(grid)


def _stack(field: np.ndarray) -> np.ndarray:
    """The component-first (K, H, W) view of an (H, W) field (K = 1) or
    of an (H, W, K) one."""
    return field[None] if field.ndim == 2 else field.transpose(2, 0, 1)


def _copy(field: np.ndarray) -> np.ndarray:
    """A float64 copy of an (H, W) or (H, W, K) field whose component-first
    stack is C-contiguous: each component is one contiguous plane."""
    return np.moveaxis(_stack(field).copy(), 0, -1).reshape(field.shape)


def _dot(a: np.ndarray, u: np.ndarray, *, out=None, scratch=None) -> np.ndarray:
    """A . u of two (K, H, W) stacks, an (H, W) field: sum_k a_k u_k,
    added in component order, into out with each later product in
    scratch."""
    out = np.multiply(a[0], u[0], out=out)
    for ak, uk in zip(a[1:], u[1:]):
        out += np.multiply(ak, uk, out=scratch)
    return out


class LinearState:
    """Fields of the ADMM for a K-component field u with the data term
    lambda phi_mu(b - A . u): u, v, w (u's shape), r and lam ((H, W), lam
    a float when the weight is constant), z (grad v's shape) and the
    workspace.

    A subclass sets params and its data, calls _start and forms the
    intermediates.  It gives b, A (its (H, W, K) field, or None for the
    identity of one component), solver (its SolverParams) and, if True,
    anisotropic (the z-step and the energy take the regularizer per
    partial derivative; it is fixed once the intermediates are formed).
    Its iterate calls _step with its own module's bindings of the u- and
    v-steps, and it binds energy as is; both sit in the subclass itself,
    where a wrapper can replace them per problem.  The state writes its
    fields in place (see the module docstring), so code that keeps a
    field across an iteration must copy it.  grad v, |grad v| and
    b - A . u of the current fields sit in the workspace, and residual is
    the primal residual of the last dual step (0.0 at the start, where
    u = v).  energy() takes the data term at u and the regularizer at
    grad v."""

    anisotropic = False

    def _start(self, u0: np.ndarray, z: np.ndarray, sigma: float):
        """u and v as copies of u0 (see _copy), w and r zero, lam one, z the
        given zero auxiliary, the workspace for a smoothing sigma and a zero
        residual; the caller then forms the intermediates."""
        self.u = _copy(u0)
        self.v = _copy(u0)
        self.w = np.zeros_like(self.u)
        self.r = np.zeros(u0.shape[:2])
        self.z = z
        self.lam = np.ones(u0.shape[:2])
        # grad v in z's layout: the z-step's shrinks then run over matching strides
        self.workspace = _Workspace(_stack(u0).shape, sigma, z.flags.c_contiguous)
        self.residual = 0.0

    def _form_intermediates(self):
        """grad v, |grad v| and b - A . u into their workspace slots."""
        ws = self.workspace
        gradient(_stack(self.v), out=ws.grad)
        if not self.anisotropic:
            vector_norm(ws.grad, out=ws.norm, scratch=ws.rhs)
        u = _stack(self.u)
        au = u[0] if self.A is None else _dot(_stack(self.A), u, out=ws.gap, scratch=ws.field)
        np.subtract(self.b, au, out=ws.gap)

    def _step(self, u_step, v_w_step):
        """One iteration, with the u-step u_step and the v-step and dual
        step v_w_step."""
        p = self.solver
        ws = self.workspace
        z = self.z.reshape(ws.grad.shape)
        if self.anisotropic:
            for g, zk in zip(ws.grad, z):
                shrink(g, p.eta, out=zk, scratch=slot(ws.rhs, g.shape))
        else:
            shrink_vec(ws.grad, p.eta, norm=ws.norm, out=z)
        adaptive = p.adaptive.constant_lambda is None
        rho = envelope_at(ws.gap, self.r, p.mu, out=ws.field, scratch=ws.temps[0]) if adaptive else None
        self.lam = weight_fields(rho, p.adaptive, out=self.lam, scratch=ws.smoothing)
        shrink(ws.gap, p.mu, out=self.r, scratch=ws.field)
        u_step(self, p)
        v_w_step(self, p)
        self._form_intermediates()

    def energy(self) -> float:
        p = self.solver
        ws = self.workspace
        data = huber(ws.gap, p.mu, out=ws.field, scratch=ws.rhs[0])
        total = np.sum(np.multiply(data, self.lam, out=data))
        # One Huber call per component: on a 128^2 flow state, one call on
        # the whole (2, H, W, 2) stack peaked 1.1 to 1.2 fields higher under
        # tracemalloc, and with the anisotropic regularizer it took twice
        # as long (435-449 against 227-229 us, best of 7 in two runs;
        # 2-core Xeon, numpy 2.4.6).
        reg = ws.field
        for k, g in enumerate(ws.grad):
            term = ws.rhs[0] if k else reg
            if self.anisotropic:
                h = huber(g, p.eta, out=slot(ws.norm, g.shape), scratch=slot(ws.rhs, g.shape))
                np.add(h[..., 0], h[..., 1], out=term)
            else:
                huber_vec(g, p.eta, norm=ws.norm[k], out=term, scratch=ws.rhs[-1])
            if k:
                reg += term
        reg *= np.subtract(1.0, self.lam, out=ws.rhs[0])
        return float(total + np.sum(reg))


class DenoiseState(LinearState):
    """Fields of the denoising ADMM: f, u, v, w, r, z, lam.

    The one-component LinearState with A the identity and b = f.  u, v,
    w and r are (H, W); z is component-planar, an (H, W, 2) view of
    (2, H, W) memory."""

    A = None
    b = property(lambda self: self.f)
    solver = property(lambda self: self.params)

    def __init__(self, f: np.ndarray, params: SolverParams):
        self.f = scalar_grid(f)
        self.params = params
        z = np.moveaxis(np.zeros((2,) + self.f.shape), 0, -1)
        self._start(self.f, z, params.adaptive.smoothing_sigma)
        self._form_intermediates()

    def iterate(self):
        self._step(update_u, update_v_w)

    energy = LinearState.energy


def update_u(state: LinearState, params: SolverParams) -> np.ndarray:
    """Per-pixel rank-one solve of (mu theta I + lambda A A^T) u =
    mu theta (v - w) + lambda (b - r) A in closed form, one correction
    along A from base = v - w:

        u = base + lambda (b - r - A . base) / (mu theta + lambda |A|^2) A

    written into state.u, which it returns, with its temporaries in the
    state's workspace.  For the identity (A None) the multiplies by A,
    which would change no bit, are skipped: the rest is the same sequence
    of operations, and the denominator is lambda + mu theta in lambda's
    shape, so a float lambda divides by one entry.  Where lambda = 0 or A = 0 it returns v - w exactly,
    though a -0.0 there may come back as +0.0 (the correction is a signed
    zero added to it).  The work runs on the component-first (K, H, W)
    views, where the (H, W) factors broadcast over the leading axis; on
    planar fields these are contiguous planes.
    """
    ws = state.workspace
    u = _stack(state.u)
    k = len(u)
    base = np.subtract(_stack(state.v), _stack(state.w), out=ws.temps[:k])
    gain, den, product = ws.temps[k:]
    np.subtract(state.b, state.r, out=gain)
    if state.A is None:
        gain -= base[0]
        den = np.add(state.lam, params.mu * params.theta, out=slot(den, np.shape(state.lam)))
    else:
        a = _stack(state.A)
        for ak, bk in zip(a, base):
            gain -= np.multiply(ak, bk, out=product)
        np.multiply(a[0], a[0], out=den)
        for ak in a[1:]:
            den += np.multiply(ak, ak, out=product)
        den *= state.lam
        den += params.mu * params.theta
    gain *= state.lam
    gain /= den
    if state.A is None:
        np.add(base, gain, out=u)
    else:
        np.multiply(gain, a, out=u)
        u += base
    return state.u


def update_v_w(state: LinearState, params: SolverParams) -> None:
    """One screened v-solve over the component-first (K, H, W) stack
    (exact for a float lambda, gs_sweeps Gauss-Seidel sweeps from v for
    a weight field) from the gradient auxiliaries z, then dual ascent,
    in the state's workspace: the rhs stack takes the divergence of z
    and then the right-hand side, the field slot xi
    (solver.screened_system), and the arena the divergence's bands,
    u + w, the solve and u - v.  The solve writes v into state.v in
    place, and the new u - v gives both the new w and the primal
    residual, kept as state.residual.  u - v is formed as a C-contiguous
    (K, H, W) stack, so the residual sums in that order whatever the
    fields' layout."""
    ws = state.workspace
    u, v, w = _stack(state.u), _stack(state.v), _stack(state.w)
    div_z = divergence(state.z.reshape(ws.grad.shape), out=ws.rhs, scratch=ws.solve)
    rhs, xi = screened_system(div_z, u, w, state.lam, params, xi=ws.field, scratch=ws.solve)
    screened_solve(rhs, xi, v, params.gs_sweeps, out=v, scratch=ws.solve)
    state.residual = dual_step(u, v, w, out=slot(ws.solve, v.shape))


def run_denoise(f: np.ndarray, params: SolverParams, on_check=None):
    """Denoise f (normalized to [0,1]); returns (u, history).

    The state writes its fields in place, so on_check must copy whatever
    it keeps of them; the returned u is the state's own field."""
    state = DenoiseState(f, params)
    return run_admm(state, params, on_check=on_check)
