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
    v            the screened solves, with sum_i v_i = 1: for a weight
                 field, Gauss-Seidel sweeps on the whole stack, then
                 the projection onto that sum; for a constant weight (a
                 float lambda, so a scalar xi), the projection of the
                 first n - 1 right-hand sides, their exact DCT solve
                 and the last label as 1 minus their sum
    w            w += u - v by solver.dual_step, from the u - v that
                 also gives the primal residual, kept as a number

All steps but u are pointwise per label.  The exclusivity sum couples
the labels, so the u-step sweeps them in ascending order, Gauss-Seidel
style: labels already updated this iteration contribute their new u_j.
After the dual step, and in the constructor, SegmentState forms grad v
of the new v, which the energy and the next z-step read.

The steps write z, lambda (when it is a field), r, u, v, w and grad v
into the state's own arrays, so code that keeps a field across an
iteration must copy it.  The v-step forms its right-hand side and xi in
buffers the state allocates once, solves into v through the state's
solve scratch and projects in place (v after the sweeps, the solved
right-hand sides before the exact solve); the dual step forms u - v in
the scratch.
z and grad v are component-planar: (n, H, W, 2) views of (2, n, H, W)
memory.

The final labeling is the pixelwise argmax of the memberships.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .adaptive import weight_fields
from .grid import convolve_gaussian, divergence, gradient, scalar_grid
from .prox import envelope_at, huber_vec, project_stack_sum_to_one, shrink, shrink_vec
from .solver import SolverParams, check_count, dual_step, run_admm, screened_solve, slot, v_step_buffers

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


def _runs(ordered: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(start, stop) per center: the run of the sorted values nearest to
    it by |v - c|, ties to the lower index, as np.argmin over the
    centers assigns them (unless two distinct centers lie within the
    rounding of a distance of each other, where np.argmin can also tie
    outside the interval between them).  A center equal to one of lower
    index takes an empty run.  Of two value-adjacent centers c_p < c_q,
    p keeps the values below c_p and q those from c_q on; on [c_p, c_q),
    where the comparison is monotone in the value, q's run starts at the
    first value that it wins, found by binary search."""
    value, kept = np.unique(centers, return_index=True)
    at = np.searchsorted(ordered, value).tolist()
    cuts = [0]
    for k in range(len(kept) - 1):
        cp, cq = value[k], value[k + 1]
        tie = kept[k + 1] < kept[k]

        def beats(x):
            dq, dp = abs(x - cq), abs(x - cp)
            return dq < dp or (tie and dq == dp)

        cuts.append(bisect.bisect_left(ordered, True, at[k], at[k + 1], key=beats))
    cuts.append(len(ordered))
    start = np.zeros(len(centers), dtype=np.intp)
    stop = np.zeros_like(start)
    start[kept], stop[kept] = cuts[:-1], cuts[1:]
    return start, stop


def _lloyd_1d(values: np.ndarray, centers: np.ndarray, iters: int = 50) -> np.ndarray:
    """Plain 1-D k-means refinement, returned sorted.  Each iteration
    assigns every value to its nearest center (ties to the lower index)
    and moves each center to the mean of its values; a center whose
    cluster empties is reseeded at the value farthest from all the
    iteration's centers, and the loop stops once no center moved by
    1e-12.  In 1-D the clusters are runs of the sorted values, so the
    values are sorted once and an iteration takes n - 1 binary searches
    and n means over runs; only an iteration where a cluster empties
    forms the dense distances, for the reseed."""
    centers = centers.astype(np.float64).copy()
    ordered = np.sort(values)
    for _ in range(iters):
        start, stop = _runs(ordered, centers)
        far = None
        if np.any(start == stop):
            far = values[np.argmax(np.min(np.abs(values[None, :] - centers[:, None]), axis=0))]
        moved = 0.0
        for i in range(len(centers)):
            new = ordered[start[i] : stop[i]].mean() if stop[i] > start[i] else far
            moved = max(moved, abs(new - centers[i]))
            centers[i] = new
        if moved < 1e-12:
            break
    return np.sort(centers)


def warm_start_labels(f: np.ndarray, n_labels: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic intensity warm start (u, c): c_i from 1-D k-means on
    a Gaussian (sigma 1) low-pass copy of f (seeded at evenly spaced
    quantiles; _lloyd_1d, over the copy's values sorted once), and
    one-hot memberships u (n, H, W) that assign each pixel to the c_i
    nearest its raw value, ties to the lower c_i, as np.argmin over the
    centers does (see _runs): the raw values are sorted once, and each
    pixel is looked up among the first values of the runs of _runs.

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
    check_count("n_labels", n_labels, 2)
    f = scalar_grid(f)
    fs = convolve_gaussian(f, 1.0)
    seeds = np.quantile(fs, (np.arange(n_labels) + 0.5) / n_labels)
    c = _lloyd_1d(fs.ravel(), seeds)
    # c is sorted, so the nonempty runs of the sorted raw values come in
    # label order, and a pixel takes the last run whose first value is at
    # most its own
    ordered = np.sort(f, axis=None)
    start, stop = _runs(ordered, c)
    held = np.flatnonzero(stop > start)
    assignment = held[np.searchsorted(ordered[start[held[1:]]], f, side="right")]
    u = (assignment[None] == np.arange(n_labels)[:, None, None]).astype(np.float64)
    return u, c


def misfit(state: SegmentState, mu: float) -> np.ndarray:
    """d_i = |r_i| + (f - c_i - r_i)^2 / (2 mu) at the current fields, (n, H, W)."""
    return envelope_at(state.f - state.c[:, None, None], state.r, mu)


def update_c(state: SegmentState) -> np.ndarray:
    """Weighted region intensities, (n,).  A label whose region weight
    sum degenerates (empty region) keeps its previous value and is
    logged; labels are logged in ascending order."""
    weights = state.lam * state.u
    den = np.sum(weights, axis=(1, 2))
    num = np.sum(weights * (state.f - state.r), axis=(1, 2))
    degenerate = den <= DEGENERATE_REGION_WEIGHT
    state.degenerate_events.extend((state.iteration, int(i)) for i in np.flatnonzero(degenerate))
    return np.divide(num, den, out=state.c.copy(), where=~degenerate)


def update_u(state: SegmentState, params: SegmentParams, d: np.ndarray) -> np.ndarray:
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
    # (lambda / theta) d goes through later before the suffix sums
    # overwrite it; a float lambda scales d in the one multiply
    later = np.empty_like(base)
    scale = np.divide(state.lam, sp.theta, out=later) if np.ndim(state.lam) else state.lam / sp.theta
    np.multiply(scale, d, out=later)
    base -= later
    u = state.u
    # later[i] = u_{i+1} + ... + u_{n-1} at the start of the sweep; the
    # last label's is zero, which adds nothing to a sum from +0.0
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


def screened_system(div_z, u, w, lam, params: SolverParams, *, xi=None, scratch=None):
    """The system (1 - xi laplacian) v = u + w - xi div z of the v-step,
    as (rhs, xi): xi = (1 - lam)/(eta theta) in lam's shape, a 0-d array
    for a float lam, and rhs written over div_z, the divergence of z that
    the caller passes.  xi, if given, is a free buffer that takes xi, and
    scratch a free buffer whose head takes u + w; without them both are
    allocated."""
    xi = np.subtract(1.0, lam, out=slot(xi, np.shape(lam)))
    xi /= params.eta * params.theta
    div_z *= xi
    np.subtract(np.add(u, w, out=slot(scratch, div_z.shape)), div_z, out=div_z)
    return div_z, xi


def update_v_all(state: SegmentState, params: SegmentParams, *, rhs=None, xi=None, scratch=None) -> None:
    """The v-step: the screened systems of the (n, H, W) label stack,
    solved and projected onto sum_i v_i = 1, written into state.v.  rhs,
    xi and scratch are the buffers of solver.v_step_buffers, or None: rhs
    takes the divergence of z and then the right-hand side, xi's head
    takes xi (screened_system), and the flat scratch takes the
    divergence's bands, u + w, the solve and the projection's correction.

    For a weight field, each label's system only reads that label's own
    fields and xi_i, so one stacked solve of gs_sweeps Gauss-Seidel
    sweeps from v matches solving the labels one by one, and v is
    projected after it.  For a float lambda, xi is one scalar, and the
    exact solve S keeps constants (S 1 = 1), so it commutes with the
    projection: the first n - 1 right-hand sides are projected (with the
    correction formed from the whole stack), the exact solve runs on
    them only, and the last label is 1 - sum_{i<n-1} v_i.  That equals
    solving every label and then projecting up to rounding.
    """
    sp = params.solver
    v = state.v
    div_z = divergence(state.z, out=rhs, scratch=scratch)
    rhs, xi = screened_system(div_z, state.u, state.w, state.lam, sp, xi=xi, scratch=scratch)
    correction = slot(scratch, state.f.shape)
    if np.ndim(xi):
        screened_solve(rhs, xi, v, sp.gs_sweeps, out=v, scratch=scratch)
        project_stack_sum_to_one(v, out=v, scratch=correction)
    else:
        # only the n - 1 right-hand sides that are solved
        head = project_stack_sum_to_one(rhs, out=rhs[:-1], scratch=correction)
        screened_solve(head, xi, v[:-1], sp.gs_sweeps, out=v[:-1], scratch=scratch)
        np.subtract(1.0, np.sum(v[:-1], axis=0, out=v[-1]), out=v[-1])


def extract_labels(state: SegmentState) -> np.ndarray:
    """Pixelwise argmax membership; ties go to the smallest label."""
    return np.argmax(state.u, axis=0).astype(np.int64)


class SegmentState:
    """Per-label fields of the segmentation ADMM, stacked label-major:
    u, v, w, r (n,H,W), z (n,H,W,2), lam (n,H,W), c (n,).  lam is a
    float that broadcasts against the stack when the weight is constant.
    solve_scratch, xi and rhs are the v-step's buffers, allocated once
    (solver.v_step_buffers); the dual step's u - v takes the scratch's
    head.
    Degenerate region updates are logged as (iteration, label) pairs.

    start is a (u, c) pair as warm_start_labels(f, params.n_labels)
    returns it, and that warm start when None; u and c that are not
    finite float64 arrays of those shapes raise ValueError.  The state
    adopts u, which the run writes in place; v starts as a copy of it,
    w, r and z at zero and lam at one.

    It keeps what the energy and the next iteration read: d, the misfit
    of the current c and r; grad_v, the gradient of the stack v; and
    residual, the primal residual of the last dual step (0.0 at the
    start, where u = v).  A field assigned or written between iterations
    is not seen by them.  The iteration writes the fields in place (see
    the module docstring).  energy() takes the data term at u and the
    regularizer at grad v."""

    def __init__(self, f: np.ndarray, params: SegmentParams, start=None):
        self.f = scalar_grid(f)
        self.params = params
        self.n_labels = params.n_labels
        u, c = warm_start_labels(self.f, self.n_labels) if start is None else start
        shape = (self.n_labels,) + self.f.shape
        if not all(isinstance(a, np.ndarray) and a.dtype == np.float64 and np.all(np.isfinite(a))
                   for a in (u, c)):
            raise ValueError("the start needs u and c as finite float64 arrays")
        if np.shape(u) != shape or np.shape(c) != shape[:1]:
            raise ValueError("the start needs u of shape %s and c of shape %s, got %s and %s"
                             % (shape, shape[:1], np.shape(u), np.shape(c)))
        self.u = u
        self.v = u.copy()
        self.w = np.zeros_like(u)
        self.r = np.zeros_like(u)
        self.z = np.moveaxis(np.zeros((2,) + shape), 0, -1)
        self.lam = np.ones_like(u)
        self.solve_scratch, self.xi, self.rhs = v_step_buffers(shape, shape)
        self.grad_v = np.moveaxis(np.empty((2,) + shape), 0, -1)
        self.c = c
        self.iteration = 0
        self.degenerate_events: list[tuple[int, int]] = []
        self.residual = 0.0
        self.d = misfit(self, params.solver.mu)
        self._form_intermediates()

    def _form_intermediates(self):
        """grad v of the label stack."""
        gradient(self.v, out=self.grad_v)

    def iterate(self):
        p = self.params
        sp = p.solver
        self.iteration += 1
        shrink_vec(self.grad_v, sp.eta, out=self.z)
        adaptive = sp.adaptive.constant_lambda is None
        self.lam = weight_fields(self.d * self.u if adaptive else None, sp.adaptive, out=self.lam)
        self.c = update_c(self)
        gap = self.f - self.c[:, None, None]
        shrink(gap, sp.mu, out=self.r)
        # d over f - c, read by the u-step, the energy and the next weight step
        self.d = envelope_at(gap, self.r, sp.mu, out=gap)
        update_u(self, p, self.d)
        update_v_all(self, p, rhs=self.rhs, xi=self.xi, scratch=self.solve_scratch)
        self.residual = dual_step(self.u, self.v, self.w, out=slot(self.solve_scratch, self.u.shape))
        self._form_intermediates()

    def energy(self) -> float:
        p = self.params
        u = self.u
        # the overlap first: its temporaries are freed before the stacked terms
        overlap = float(np.sum((np.sum(u, axis=0) ** 2 - np.sum(u**2, axis=0)) / 2.0))
        data = self.lam * self.d
        data *= u
        total = np.sum(data)
        reg = huber_vec(self.grad_v, p.solver.eta, out=data)
        reg *= 1.0 - self.lam
        return float(total + np.sum(reg)) + p.tau_excl * overlap


def run_segment(f: np.ndarray, params: SegmentParams, state=None, on_check=None):
    """Segment f (normalized to [0,1]); returns (labels, SegmentState, history).

    state is the (u, c) start of the SegmentState (see there).  The run
    writes the state's fields in place, the start's u among them, so
    on_check must copy whatever it keeps of them.
    """
    state = SegmentState(f, params, start=state)
    _, history = run_admm(state, params.solver, on_check=on_check)
    return extract_labels(state), state, history
