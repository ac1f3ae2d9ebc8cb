"""Convex-relaxed multi-label segmentation with adaptive weights.

Each label i carries a relaxed membership u_i in [0, 1], a region
intensity c_i, and its own split/dual/auxiliary fields, all stacked
label-major.  One iteration runs these steps on the whole stack:

    z            vector shrink of grad v (it reads only v, so it runs
                 first, from the grad v the last iteration formed)
    lambda       from the residual d * u, d the misfit of the previous c, r
                 (a constant weight forms no residual)
    c            c_i = sum(lambda_i (f - r_i) u_i) / sum(lambda_i u_i)
    r            shrink(f - c_i | mu)
    d            |r_i| + (f - c_i - r_i)^2 / (2 mu), computed once here,
                 over the f - c_i the r-step read, and read by the
                 u-step, the energy and the next weight step
    u            u_i = max(0, v_i - w_i - (lambda_i/theta) d_i
                                - (tau_excl/theta) sum_{j != i} u_j)
    v            one screened solve (exact by the DCT for a constant
                 weight, a float lambda and so a scalar xi; else
                 Gauss-Seidel sweeps), projected onto sum_i v_i = 1
    w            w += u - v by solver.dual_step, from the u - v that
                 also gives the primal residual, kept as a number

All steps but u are pointwise per label.  The exclusivity sum couples
the labels, so the u-step sweeps them in ascending order, Gauss-Seidel
style: labels already updated this iteration contribute their new u_j.
After the dual step, and in the constructor, SegmentState forms grad v
of the new v, which the energy and the next z-step read.

The steps write z, lambda (when it is a field), r, u and w into the
label state's own arrays, so code that keeps a field across an
iteration must copy it; v is a new array after every v-step.  The warm
start makes z component-planar: an (n, H, W, 2) view of (2, n, H, W)
memory.

The final labeling is the pixelwise argmax of the memberships.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .adaptive import weight_fields
from .grid import convolve_gaussian, divergence, gradient, scalar_grid
from .prox import envelope_at, huber_vec, project_stack_sum_to_one, shrink, shrink_vec
from .solver import SolverParams, check_count, dual_step, rms, run_admm, screened_solve

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
    updates are logged as (iteration, label) pairs.  A segmentation run
    writes u, w, r, z and a field lam in place."""

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
        z=np.moveaxis(np.zeros((2,) + u.shape), 0, -1),
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
    terms against the augmentation, clipped at zero, written into
    state.u, which it returns.  d is misfit(state, mu) at the current c
    and r.  The labels are swept in ascending order, and the exclusivity
    sum reads the memberships already updated in this sweep
    (Gauss-Seidel): for label i it is (new u_0 + ... + u_{i-1}), summed
    in ascending order from +0.0, plus the sweep-start u_{i+1} + ... +
    u_{n-1}, summed from the last label down.  The second sums are
    formed once, before the sweep, so the step takes O(n) adds.
    """
    sp = params.solver
    base = state.v - state.w
    base -= (state.lam / sp.theta) * d
    u = state.u
    # later[i] = u_{i+1} + ... + u_{n-1} at the start of the sweep; the
    # last label's is zero, which adds nothing to a sum from +0.0
    later = np.empty_like(base)
    later[-1] = 0.0
    for i in range(state.n_labels - 2, -1, -1):
        np.add(u[i + 1], later[i + 1], out=later[i])
    earlier = np.zeros_like(base[0])
    for i in range(state.n_labels):
        others = np.add(earlier, later[i], out=later[i])
        others *= params.tau_excl / sp.theta
        np.maximum(0.0, np.subtract(base[i], others, out=base[i]), out=u[i])
        earlier += u[i]
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
    rhs = divergence(state.z)
    rhs *= xi
    np.subtract(state.u + state.w, rhs, out=rhs)
    state.v = project_stack_sum_to_one(screened_solve(rhs, xi, state.v, sp.gs_sweeps, out=rhs))


def extract_labels(state: LabelState) -> np.ndarray:
    """Pixelwise argmax membership; ties go to the smallest label."""
    return np.argmax(state.u, axis=0).astype(np.int64)


class SegmentState:
    """run_admm adapter wrapping a LabelState built for f and its parameters.

    It keeps what the energy and the next iteration read: d, the misfit
    of the current c and r; grad_v, the gradient of the label stack s.v;
    and residual, the primal residual of the last dual step.  A field of
    s assigned or written between iterations is not seen by them.  The
    iteration writes the fields of s in place (see the module
    docstring)."""

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
        self.d = misfit(state, params.solver.mu)
        self.residual = rms(state.u - state.v)
        self._form_intermediates()

    def _form_intermediates(self):
        """grad v of the label stack."""
        self.grad_v = gradient(self.s.v)

    def iterate(self):
        p = self.params
        sp = p.solver
        s = self.s
        s.iteration += 1
        shrink_vec(self.grad_v, sp.eta, out=s.z)
        self.grad_v = None
        # lambda may be a float, as a constant-weight run leaves it
        lam = s.lam if np.shape(s.lam) == s.u.shape else None
        adaptive = sp.adaptive.constant_lambda is None
        s.lam = weight_fields(self.d * s.u if adaptive else None, sp.adaptive, out=lam)
        s.c = update_c(s)
        gap = s.f - s.c[:, None, None]
        shrink(gap, sp.mu, out=s.r)
        # d over f - c, read by the u-step, the energy and the next weight step
        self.d = envelope_at(gap, s.r, sp.mu, out=gap)
        update_u(s, p, self.d)
        update_v_all(s, p)
        self.residual = dual_step(s.u, s.v, s.w)
        self._form_intermediates()

    def primal_residual(self) -> float:
        return self.residual

    def energy(self) -> float:
        p = self.params
        sp = p.solver
        s = self.s
        # the overlap first: its temporaries are freed before the stacked terms
        overlap = float(np.sum((np.sum(s.u, axis=0) ** 2 - np.sum(s.u**2, axis=0)) / 2.0))
        data = s.lam * self.d
        data *= s.u
        total = np.sum(data)
        reg = huber_vec(self.grad_v, sp.eta, out=data)
        reg *= 1.0 - s.lam
        return float(total + np.sum(reg)) + p.tau_excl * overlap

    def mean_lambda(self) -> float:
        return float(np.mean(self.s.lam))

    def solution(self):
        return self


def run_segment(f: np.ndarray, params: SegmentParams, state: LabelState | None = None, on_check=None):
    """Segment f (normalized to [0,1]); returns (labels, LabelState, history).

    A given state must have been built for f with params.n_labels
    labels; otherwise ValueError.  Its arrays are updated in place, and
    it is the LabelState returned.  The run writes its fields in place,
    so on_check must copy whatever it keeps of them.
    """
    wrapper = SegmentState(f, params, state=state)
    _, history = run_admm(wrapper, params.solver, on_check=on_check)
    return extract_labels(wrapper.s), wrapper.s, history
