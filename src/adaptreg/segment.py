"""Convex-relaxed multi-label segmentation with adaptive weights.

Each label i carries a relaxed membership u_i in [0, 1], a region
intensity c_i, and its own split/dual/auxiliary fields, all stacked
label-major.  One iteration runs these steps on the whole stack:

    z            vector shrink of grad v (it reads only v, so it runs
                 first, from the grad v the energy already computed)
    lambda       from the residual d * u, d the misfit of the previous c, r
    c            c_i = sum(lambda_i (f - r_i) u_i) / sum(lambda_i u_i)
    r            shrink(f - c_i | mu)
    d            |r_i| + (f - c_i - r_i)^2 / (2 mu), computed once here and
                 read by the u-step, the energy and the next weight step
    u            u_i = max(0, v_i - w_i - (lambda_i/theta) d_i
                                - (tau_excl/theta) sum_{j != i} u_j)
    v            one screened solve (exact by the DCT for a constant
                 weight, a float lambda and so a scalar xi; else
                 Gauss-Seidel sweeps), projected onto sum_i v_i = 1
    w            w += u - v

All steps but u are pointwise per label.  The exclusivity sum couples
the labels, so the u-step sweeps them in ascending order, Gauss-Seidel
style: labels already updated this iteration contribute their new u_j.

The final labeling is the pixelwise argmax of the memberships.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .adaptive import weight_fields
from .grid import convolve_gaussian, divergence, gradient, scalar_grid
from .prox import envelope_at, huber_vec, project_stack_sum_to_one, shrink, shrink_vec
from .solver import ObjectCache, SolverParams, check_count, rms, run_admm, screened_solve

DEGENERATE_REGION_WEIGHT = 1e-12


@dataclass
class SegmentParams:
    solver: SolverParams
    n_labels: int
    tau_excl: float = 0.5

    def __post_init__(self):
        check_count("n_labels", self.n_labels, 2)
        if not 0.0 <= self.tau_excl < math.inf:
            raise ValueError("tau_excl must be nonnegative and finite")


class LabelState:
    """Per-label fields, stacked label-major: u, v, w, r (n,H,W),
    z (n,H,W,2), lam (n,H,W), c (n,).  lam is a float that broadcasts
    against the stack when the weight is constant.  Degenerate region
    updates are logged as (iteration, label) pairs."""

    def __init__(self, f, u, v, w, r, z, lam, c):
        self.f = f
        self.u = u
        self.v = v
        self.w = w
        self.r = r
        self.z = z
        self.lam = lam
        self.c = c
        self.iteration = 0
        self.degenerate_events: list[tuple[int, int]] = []

    @property
    def n_labels(self) -> int:
        return self.u.shape[0]


def _lloyd_1d(values: np.ndarray, centers: np.ndarray, iters: int = 50) -> np.ndarray:
    """Plain 1-D k-means refinement; a center whose cluster empties is
    reseeded at the value farthest from all surviving centers."""
    centers = centers.astype(np.float64).copy()
    for _ in range(iters):
        dist = np.abs(values[None, :] - centers[:, None])
        nearest = np.argmin(dist, axis=0)
        moved = 0.0
        for i in range(len(centers)):
            member = values[nearest == i]
            if member.size:
                new = member.mean()
            else:
                new = values[np.argmax(np.min(dist, axis=0))]
            moved = max(moved, abs(new - centers[i]))
            centers[i] = new
        if moved < 1e-12:
            break
    return np.sort(centers)


def warm_start_labels(f: np.ndarray, n_labels: int) -> LabelState:
    """Deterministic intensity warm start: c_i from 1-D k-means on a
    Gaussian (sigma 1) low-pass copy of f (seeded at evenly spaced
    quantiles), each pixel assigned to the c_i nearest its raw value.

    The relaxed iteration cannot separate region intensities that start
    collapsed: under a per-pixel random layout the first c step averages
    intensity-blind memberships, every c_i lands on the global mean and
    the labels stay interchangeable from then on.  Plain quantile
    seeding has the same failure when one gray level holds most of the
    mass, hence the k-means refinement.  The centers come from a
    slightly blurred image so heavy per-region noise cannot drag them
    off their modes, but the assignment uses the raw values: assigning
    on the blurred image would hand every region boundary a thin ring
    of intermediate-level labels, which the solver then has to undo.
    """
    if n_labels < 2:
        raise ValueError("n_labels must be at least 2")
    f = scalar_grid(f)
    fs = convolve_gaussian(f, 1.0)
    seeds = np.quantile(fs, (np.arange(n_labels) + 0.5) / n_labels)
    c = _lloyd_1d(fs.ravel(), seeds)
    assignment = np.argmin(np.abs(f[None] - c[:, None, None]), axis=0)
    u = (assignment[None] == np.arange(n_labels)[:, None, None]).astype(np.float64)
    return LabelState(
        f=f,
        u=u,
        v=u.copy(),
        w=np.zeros_like(u),
        r=np.zeros_like(u),
        z=np.zeros(u.shape + (2,), dtype=np.float64),
        lam=np.ones_like(u),
        c=c,
    )


def misfit(state: LabelState, mu: float) -> np.ndarray:
    """d_i = |r_i| + (f - c_i - r_i)^2 / (2 mu) at the current fields, (n, H, W)."""
    return envelope_at(state.f - state.c[:, None, None], state.r, mu)


def update_c(state: LabelState) -> np.ndarray:
    """Weighted region intensities, (n,).  A label whose region weight
    sum degenerates (empty region) keeps its previous value and is
    logged; labels are logged in ascending order."""
    weights = state.lam * state.u
    den = np.sum(weights, axis=(1, 2))
    num = np.sum(weights * (state.f - state.r), axis=(1, 2))
    degenerate = den <= DEGENERATE_REGION_WEIGHT
    state.degenerate_events.extend((state.iteration, int(i)) for i in np.flatnonzero(degenerate))
    return np.divide(num, den, out=state.c.copy(), where=~degenerate)


def update_u(state: LabelState, params: SegmentParams, d: np.ndarray) -> np.ndarray:
    """Membership step: gradient of the linear data and exclusivity
    terms against the augmentation, clipped at zero.  d is
    misfit(state, mu) at the current c and r.  The labels are swept in
    ascending order, and the exclusivity sum reads the memberships
    already updated in this sweep (Gauss-Seidel).
    """
    sp = params.solver
    base = state.v - state.w - (state.lam / sp.theta) * d
    u = state.u.copy()
    others = np.empty_like(base[0])
    for i in range(state.n_labels):
        # Ascending from +0.0, as np.sum over the other labels adds them.
        others.fill(0.0)
        for j in range(state.n_labels):
            if j != i:
                others += u[j]
        u[i] = np.maximum(0.0, base[i] - (params.tau_excl / sp.theta) * others)
    return u


def update_v_all(state: LabelState, params: SegmentParams) -> None:
    """One screened solve over the (n, H, W) label stack, then projection
    onto sum_i v_i = 1.  The solve is exact for a float lambda (scalar
    xi) and gs_sweeps Gauss-Seidel sweeps from v for a weight field.

    Each label's system only reads that label's own fields, so the
    stacked solve matches solving the labels one by one.
    """
    sp = params.solver
    xi = (1.0 - state.lam) / (sp.eta * sp.theta)
    rhs = state.u + state.w - xi * divergence(state.z)
    state.v = project_stack_sum_to_one(screened_solve(rhs, xi, state.v, sp.gs_sweeps))


def extract_labels(state: LabelState) -> np.ndarray:
    """Pixelwise argmax membership; ties go to the smallest label."""
    return np.argmax(state.u, axis=0).astype(np.int64)


class SegmentState:
    """run_admm adapter wrapping a LabelState built for f and its parameters.

    grad v of the label stack is computed once per s.v object and kept
    in grad_v, which the energy and the next z-step both read; code that
    writes s.v in place must call grad_v.clear()."""

    def __init__(self, f: np.ndarray, params: SegmentParams, state: LabelState | None = None):
        f = scalar_grid(f)
        if state is None:
            state = warm_start_labels(f, params.n_labels)
        elif not np.array_equal(state.f, f):
            raise ValueError("the label state was built for a different image")
        elif state.n_labels != params.n_labels:
            raise ValueError("the label state has %d labels, not %d" % (state.n_labels, params.n_labels))
        self.params = params
        self.s = state
        # misfit(s, mu) at the current c and r, recomputed whenever they
        # change: the weight step, the u-step and the energy all read it.
        self.d = misfit(state, params.solver.mu)
        self.grad_v = ObjectCache()

    def iterate(self):
        p = self.params
        sp = p.solver
        s = self.s
        s.iteration += 1
        # z reads only v, so it goes first and grad v is not held through
        # the smoothing or the v-solve, the memory peaks.  The old z goes
        # before the new one is made, which can then take its memory.
        s.z = None
        s.z = shrink_vec(self.grad_v.get(s.v, gradient), sp.eta)
        self.grad_v.clear()
        s.lam = weight_fields(self.d * s.u, sp.adaptive)
        s.c = update_c(s)
        s.r = shrink(s.f - s.c[:, None, None], sp.mu)
        self.d = misfit(s, sp.mu)
        s.u = update_u(s, p, self.d)
        update_v_all(s, p)
        s.w = s.w + (s.u - s.v)

    def primal_residual(self) -> float:
        return rms(self.s.u - self.s.v)

    def energy(self) -> float:
        p = self.params
        sp = p.solver
        s = self.s
        data = s.lam * self.d
        data *= s.u
        data = np.sum(data, axis=(1, 2))
        reg = huber_vec(self.grad_v.get(s.v, gradient), sp.eta)
        reg *= 1.0 - s.lam
        reg = np.sum(reg, axis=(1, 2))
        # A strict left-to-right sum, label by label and data before
        # regularizer; np.sum and sum() group the terms and round otherwise.
        total = float(np.add.accumulate(np.column_stack((data, reg)).ravel())[-1])
        overlap = (np.sum(s.u, axis=0) ** 2 - np.sum(s.u**2, axis=0)) / 2.0
        return total + p.tau_excl * float(np.sum(overlap))

    def mean_lambda(self) -> float:
        return float(np.mean(self.s.lam))

    def solution(self):
        return self


def run_segment(f: np.ndarray, params: SegmentParams, state: LabelState | None = None, on_check=None):
    """Segment f (normalized to [0,1]); returns (labels, LabelState, history).

    A given state must have been built for f with params.n_labels
    labels; otherwise ValueError.
    """
    wrapper = SegmentState(f, params, state=state)
    _, history = run_admm(wrapper, params.solver, on_check=on_check)
    return extract_labels(wrapper.s), wrapper.s, history
