"""Adaptive Huber-Huber denoising.

Model: per pixel, lambda * phi_mu(f - u) + (1 - lambda) * phi_eta(|grad u|),
with lambda driven by the data residual.  ADMM splits u = v, soft-shrinks
the auxiliaries r (data) and z (gradient), and alternates:

    z            vector shrink of grad v (it reads only v, so it runs
                 first, from the grad v the energy already computed)
    nu, lambda   from the explicit residual envelope_at(f - u, r, mu) =
                 |r| + (f - u - r)^2 / (2 mu) at the previous r (taken
                 literally from the update sequence, not recomputed)
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
"""

from __future__ import annotations

import numpy as np

from .adaptive import weight_fields
from .grid import divergence, gradient, scalar_grid
from .prox import envelope_at, huber, huber_vec, shrink, shrink_vec
from .solver import ObjectCache, SolverParams, rms, run_admm, screened_solve


class DenoiseState:
    """Fields of the denoising ADMM: f, u, v, w, r, z, lam.

    lam is an (H, W) field, or a float that broadcasts against the
    fields when the weight is constant.  grad v is computed once per v
    object and kept in grad_v, which the energy and the next z-step
    both read; code that writes v in place must call grad_v.clear()."""

    def __init__(self, f: np.ndarray, params: SolverParams):
        self.f = scalar_grid(f)
        self.params = params
        self.u = self.f.copy()
        self.v = self.f.copy()
        self.w = np.zeros_like(self.f)
        self.r = np.zeros_like(self.f)
        self.z = np.zeros(self.f.shape + (2,), dtype=np.float64)
        self.lam = np.ones_like(self.f)
        self.grad_v = ObjectCache()

    def iterate(self):
        p = self.params
        # z reads only v, so it goes first and grad v is not held through
        # the smoothing or the v-solve, the memory peaks.  The old z goes
        # before the new one is made, which can then take its memory.
        self.z = None
        self.z = shrink_vec(self.grad_v.get(self.v, gradient), p.eta)
        self.grad_v.clear()
        q = self.f - self.u
        self.lam = weight_fields(envelope_at(q, self.r, p.mu), p.adaptive)
        self.r = shrink(q, p.mu)
        del q  # not held through the v-solve, the memory peak
        self.u = update_u(self, p)
        self.v = update_v(self, p)
        self.w = self.w + (self.u - self.v)

    def primal_residual(self) -> float:
        return rms(self.u - self.v)

    def energy(self) -> float:
        p = self.params
        data = huber(self.f - self.u, p.mu)
        data *= self.lam
        reg = huber_vec(self.grad_v.get(self.v, gradient), p.eta)
        reg *= 1.0 - self.lam
        return float(np.sum(data) + np.sum(reg))

    def mean_lambda(self) -> float:
        return float(np.mean(self.lam))

    def solution(self) -> np.ndarray:
        return self.u


def update_u(state: DenoiseState, params: SolverParams) -> np.ndarray:
    """Pointwise solve of (lambda + mu theta) u = mu theta (v - w) + lambda (f - r).

    Written incrementally, u = (v - w) + lambda ((f - r) - (v - w)) / (lambda
    + mu theta), which returns v - w bitwise where lambda = 0 and f where the
    two targets coincide.
    """
    base = state.v - state.w
    gap = (state.f - state.r) - base
    return base + state.lam * gap / (state.lam + params.mu * params.theta)


def update_v(state: DenoiseState, params: SolverParams) -> np.ndarray:
    """Screened solve of (1 - xi Laplacian) v = u + w - xi div z: exact
    for a float lambda (scalar xi), gs_sweeps Gauss-Seidel sweeps from v
    for a weight field."""
    xi = (1.0 - state.lam) / (params.eta * params.theta)
    rhs = state.u + state.w - xi * divergence(state.z)
    return screened_solve(rhs, xi, state.v, params.gs_sweeps)


def run_denoise(f: np.ndarray, params: SolverParams, on_check=None):
    """Denoise f (normalized to [0,1]); returns (u, history)."""
    state = DenoiseState(f, params)
    return run_admm(state, params, on_check=on_check)
