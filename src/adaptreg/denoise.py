"""Adaptive Huber-Huber denoising, and the linear-data state it shares
with optical flow.

Model: per pixel, lambda * phi_mu(f - u) + (1 - lambda) * phi_eta(|grad u|),
with lambda driven by the data residual.  Denoising is the one-component
case of a state for a K-component field u with a pointwise linear data
term lambda * phi_mu(b - A . u) (the data term of TV-L1 optical flow):
here A is the identity and b = f, while flow.FlowState takes K = 2, an
(H, W, 2) field A and b = ft.  ADMM splits u = v, with scaled dual w and
penalty theta, and z = grad v, with scaled dual y and penalty rho (the
split Bregman form of the regularizer: Goldstein & Osher, SIAM J.
Imaging Sci. 2009; Wang, Yang, Yin & Zhang, SIAM J. Imaging Sci. 2008).
The data term keeps its auxiliary r, the soft shrink of the data gap.
One iteration:

    P            grad v - y into z, from the grad v the last iteration
                 formed
    nu, lambda   from the explicit residual envelope_at(b - A . u, r, mu)
                 = |r| + (b - A . u - r)^2 / (2 mu) at the previous r
                 (taken literally from the update sequence, not
                 recomputed); a constant weight never reads it, so it is
                 not formed
    z            the prox of t phi_eta at P, t = (1 - lambda)/rho, in
                 place: P (1 - t / max(|P|, eta + t)), per vector of a
                 component (huber_prox_vec), or per partial derivative
                 with flow's anisotropic regularizer (huber_prox)
    r            shrink(b - A . u | mu), from the same data gap
    u            pointwise solve of (mu theta I + lambda A A^T) u
                     = mu theta (v - w) + lambda (b - r) A
                 in closed form (update_u); for A = 1 that is
                 (lambda + mu theta) u = mu theta (v - w) + lambda (f - r)
    v            screened system (1 - xi Laplacian) v = u + w - xi div(z + y)
                 over the (K, H, W) stack, with the scalar xi = rho/theta,
                 which screened_solve solves exactly by the DCT, for a
                 constant weight and a weight field alike
    w, y         w + u - v, then y + z - grad v

The weight enters only the pointwise z-step, so every v-system has the
one scalar xi, and the fixed point is a stationary point of the
weighted energy, with 1 - lambda inside the divergence.  rho is one
constant per run (split_weight): the least regularizer weight 1 - lambda
the run can take, over eta.  For a constant weight that is
(1 - lambda)/eta, so xi = (1 - lambda)/(eta theta).

Initialization u = v = f, everything else zero.  A constant image is a
fixed point: the first iteration already has a zero primal residual.

Each intermediate is computed once and shared.  The dual step
(solver.dual_step) forms u - v, from which it takes the new w and then
the primal residual, kept as a number.  The v-step then forms grad v of
the new v, for the dual step of y, and the end of every iteration forms
the data gap b - A . u (LinearState._form_gap; the constructor and
flow's relinearize form both, LinearState._form_intermediates): the
energy reads both, and so does the next iteration (P, the weights and
the r-step).  energy() only reads what is kept.

The stop test reads the kept residual.  Where rms(u - v) is at most
tol_primal, an iteration that would stop, the v-step also forms
rms(z - grad v) and keeps the larger of the two, so a run stops only
once both constraints hold; the other iterations keep rms(u - v) and
pay no pass for the split's residual.

The state's fields are its public attributes.  Every step reads them
through component-first views taken when it runs (_stack), so a field
assigned from outside between iterations is read as it is; only the kept
intermediates do not see it until they are formed again.

Workspace: a state allocates one _Workspace at construction and reuses
it for every iteration, so a steady-state iteration allocates nothing of
field size.  The steps write u, v, w, r, z, y and a weight field lambda
in place: the v-step builds its right-hand side in the workspace's rhs
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
# shrink_vec: bound for the tracer only
from .prox import envelope_at, huber, huber_prox, huber_prox_vec, huber_vec, shrink, shrink_vec, vector_norm
from .solver import SolverParams, dual_step, rms, run_admm, screened_solve, slot, v_step_buffers


class _Workspace:
    """The buffers of one K-component linear-data state, allocated once,
    for (K, H, W) stacks.

    solver.v_step_buffers allocates the v-step's buffers: one arena that
    holds the v-solve's scratch and then one (H, W) field, and the rhs
    stack.  Between v-solves, the arena's start holds other slots in turn:

        the smoothing's scratch                  weights
        the anisotropic z-step's factor          z-step
        the u-step's K + 3 temporaries           u-step
        u - v                                    dual step
        grad v (2K fields, component-planar      v-step -> energy and next P
        like z)
        and then |P| (K fields), and the         isotropic z-step
        factor over it; or z - grad v            v-step, where it would stop
        (2K fields)

    and b - A . u sits past the smoothing's part and |P| (end of
    iteration -> energy and next r-step).  The field slot takes the
    envelope, t, the A . u products of the gap, the energy's terms and
    the signs of the shrinks; the rhs stack takes the v-step's
    right-hand side, the squares of |P| and then eta + t of the z-step,
    and the energy's scratch, and the |P| slots the energy's norms and
    the anisotropic regularizer's Huber terms."""

    def __init__(self, shape, sigma: float):
        k, grid = shape[0], shape[1:]
        n = grid[0] * grid[1]
        gap_at = max(3 * k * n, smoothing_scratch_size(grid, sigma))
        self.solve, self.field, self.rhs = v_step_buffers(shape, grid, gap_at + n)
        self.smoothing = self.solve[:gap_at]
        self.temps = self.solve[: (k + 3) * n].reshape((k + 3,) + grid)
        self.grad = _planar(self.solve, shape + (2,))
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


def _planar(buffer: np.ndarray, shape) -> np.ndarray:
    """A (..., 2) array of this shape over a free buffer, component-planar:
    a view of (2, ...) memory."""
    return np.moveaxis(slot(buffer, shape[-1:] + shape[:-1]), 0, -1)


def split_weight(params: SolverParams) -> float:
    """The weight omega of the split z = grad v, whose penalty is
    rho = omega/eta and whose v-system takes xi = omega/(eta theta):
    the least regularizer weight 1 - lambda the run can take, which is
    1 - constant_lambda for a constant weight and alpha for a weight
    field (lambda <= 1 - alpha).  Where that is 0 (constant_lambda 1, or
    alpha 0), omega is 1, the largest regularizer weight."""
    ap = params.adaptive
    omega = ap.alpha if ap.constant_lambda is None else 1.0 - ap.constant_lambda
    return omega if omega > 0.0 else 1.0


class LinearState:
    """Fields of the ADMM for a K-component field u with the data term
    lambda phi_mu(b - A . u): u, v, w (u's shape), r and lam ((H, W), lam
    a float when the weight is constant), z and y (grad v's shape) and
    the workspace.

    A subclass sets params and its data, calls _start and forms the
    intermediates.  It gives b, A (its (H, W, K) field, or None for the
    identity of one component), solver (its SolverParams) and, if True,
    anisotropic (the z-step and the energy take the regularizer per
    partial derivative).  Its iterate calls _step with its own module's
    bindings of the u- and v-steps, and it binds energy as is; both sit
    in the subclass itself, where a wrapper can replace them per problem.
    The state writes its fields in place (see the module docstring), so
    code that keeps a field across an iteration must copy it.  grad v and
    b - A . u of the current fields sit in the workspace, and residual is
    the primal residual of the last dual step (0.0 at the start, where
    u = v), or the split's rms(z - grad v) where that is larger and the
    former is at most tol_primal (see update_v_w).  energy() takes the data term at u and the regularizer at
    grad v."""

    anisotropic = False

    def _start(self, u0: np.ndarray, sigma: float):
        """u and v as copies of u0 (see _copy), w, r, z and y zero, lam one,
        the workspace for a smoothing sigma and a zero residual; the caller
        then forms the intermediates.  z and y are component-planar, views
        of (2, K, H, W) memory, of shape (H, W, 2) for one component and
        (K, H, W, 2) for more."""
        self.u = _copy(u0)
        self.v = _copy(u0)
        self.w = np.zeros_like(self.u)
        self.r = np.zeros(u0.shape[:2])
        shape = _stack(u0).shape
        grad_shape = (shape if u0.ndim == 3 else shape[1:]) + (2,)
        self.z, self.y = (_planar(np.zeros(2 * self.u.size), grad_shape) for _ in range(2))
        self.lam = np.ones(u0.shape[:2])
        self.workspace = _Workspace(shape, sigma)
        self.residual = 0.0

    def _form_intermediates(self):
        """grad v and b - A . u into their workspace slots."""
        gradient(_stack(self.v), out=self.workspace.grad)
        self._form_gap()

    def _form_gap(self):
        """b - A . u into its workspace slot."""
        ws = self.workspace
        u = _stack(self.u)
        au = u[0] if self.A is None else _dot(_stack(self.A), u, out=ws.gap, scratch=ws.field)
        np.subtract(self.b, au, out=ws.gap)

    def _step(self, u_step, v_w_step):
        """One iteration, with the u-step u_step and the v-step and dual
        steps v_w_step."""
        p = self.solver
        ws = self.workspace
        z = self.z.reshape(ws.grad.shape)
        # P before the weights, whose scratch overwrites grad v
        np.subtract(ws.grad, self.y.reshape(z.shape), out=z)
        adaptive = p.adaptive.constant_lambda is None
        envelope = envelope_at(ws.gap, self.r, p.mu, out=ws.field, scratch=ws.temps[0]) if adaptive else None
        self.lam = weight_fields(envelope, p.adaptive, out=self.lam, scratch=ws.smoothing)
        # t = (1 - lambda)/rho, 0-d for a float lambda
        t = np.subtract(1.0, self.lam, out=slot(ws.field, np.shape(self.lam)))
        t /= split_weight(p) / p.eta
        knee = slot(ws.rhs, t.shape)
        if self.anisotropic:
            # over the derivative-first (2, K, H, W) views, where t broadcasts
            first = np.moveaxis(z, -1, 0)
            huber_prox(first, t, p.eta, out=first, scratch=np.moveaxis(ws.grad, -1, 0), knee=knee)
        else:
            norm = vector_norm(z, out=ws.norm, scratch=ws.rhs)
            huber_prox_vec(z, t, p.eta, norm=norm, out=z, scratch=norm, knee=knee)
        shrink(ws.gap, p.mu, out=self.r, scratch=ws.field)
        u_step(self, p)
        v_w_step(self, p)
        self._form_gap()

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
                h = huber(g, p.eta, out=_planar(ws.norm, g.shape), scratch=_planar(ws.rhs, g.shape))
                np.add(h[..., 0], h[..., 1], out=term)
            else:
                huber_vec(g, p.eta, out=term, scratch=ws.norm[k])
            if k:
                reg += term
        reg *= np.subtract(1.0, self.lam, out=ws.rhs[0])
        return float(total + np.sum(reg))


class DenoiseState(LinearState):
    """Fields of the denoising ADMM: f, u, v, w, r, z, y, lam.

    The one-component LinearState with A the identity and b = f.  u, v,
    w and r are (H, W); z and y are component-planar, (H, W, 2) views of
    (2, H, W) memory."""

    A = None
    b = property(lambda self: self.f)
    solver = property(lambda self: self.params)

    def __init__(self, f: np.ndarray, params: SolverParams):
        self.f = scalar_grid(f)
        self.params = params
        self._start(self.f, params.adaptive.smoothing_sigma)
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
    """The v-step and the two dual steps, over the component-first
    (K, H, W) stack, in the state's workspace.  The v-step solves

        (1 - xi Laplacian) v = u + w - xi div(z + y),   xi = rho/theta,

    exactly: xi is one scalar (split_weight), so screened_solve takes the
    DCT solve whatever the weight, and writes v into state.v in place.  y
    takes z + y, the rhs stack its divergence and then the right-hand
    side, and the arena the divergence's bands, u + w, the solve and
    u - v.  The new u - v gives both the new w and the primal residual,
    kept as state.residual; it is formed as a C-contiguous (K, H, W)
    stack, so the residual sums in that order whatever the fields'
    layout.  Then grad v of the new v goes into the workspace, and y,
    which holds z + y, becomes y + z - grad v.  Last, where that
    residual is at most tol_primal, z - grad v goes into the arena past
    grad v, derivative-first, and state.residual takes its rms where
    that is larger: the run stops only if the split holds too."""
    ws = state.workspace
    u, v, w = _stack(state.u), _stack(state.v), _stack(state.w)
    zy = np.add(state.z, state.y, out=state.y).reshape(ws.grad.shape)
    xi = split_weight(params) / (params.eta * params.theta)
    rhs = divergence(zy, out=ws.rhs, scratch=ws.solve)
    rhs *= xi
    np.subtract(np.add(u, w, out=slot(ws.solve, rhs.shape)), rhs, out=rhs)
    screened_solve(rhs, xi, v, params.gs_sweeps, out=v, scratch=ws.solve)
    state.residual = dual_step(u, v, w, out=slot(ws.solve, v.shape))
    zy -= gradient(v, out=ws.grad)
    if state.residual <= params.tol_primal:
        # an iteration that would stop: the split's residual counts too
        first = np.moveaxis(state.z.reshape(zy.shape), -1, 0)
        gap = np.subtract(first, np.moveaxis(ws.grad, -1, 0), out=slot(ws.solve, first.shape, start=ws.grad.size))
        state.residual = max(state.residual, rms(gap, out=gap))


def run_denoise(f: np.ndarray, params: SolverParams, on_check=None):
    """Denoise f (normalized to [0,1]); returns (u, history).

    The state writes its fields in place, so on_check must copy whatever
    it keeps of them; the returned u is the state's own field."""
    state = DenoiseState(f, params)
    return run_admm(state, params, on_check=on_check)
