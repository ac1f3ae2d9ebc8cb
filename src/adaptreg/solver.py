"""Shared ADMM scaffolding: parameter bundle, iteration driver, history.

The three problems (denoising, segmentation, optical flow) plug into the
same driver through a small duck-typed state protocol:

    state.iterate()     run one full update sweep, in the order its
                        module documents
    state.energy()      data term at u plus regularizer at grad v: it
                        can read below the minimum while u != v
    state.u             the solution the driver hands back
    state.lam           fidelity weight in [0, 1], a float or a field
    state.residual      RMS of u - v of the last dual step; the
                        linear-data state may read a larger residual
                        of its gradient split where that is at most
                        tol_primal

The three problems run on two state bodies: denoising and optical flow
share the linear-data state of module denoise (a K-component field,
K = 1 and K = 2), and segmentation has its own.  Both take their
v-step's buffers from v_step_buffers and their dual step with
dual_step, which forms the new w and the primal residual from one
u - v.  Each module forms its own v-system and solves it with
screened_solve: segmentation's xi is a field for a weight field, and
the linear-data state's is one scalar xi = rho/theta for either weight.

The package runs on one thread, so a run is bitwise deterministic.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .adaptive import AdaptiveParams
from .grid import laplacian


@dataclass
class SolverParams:
    """Knobs shared by every ADMM instance.

    mu and eta are the Huber thresholds of the data and regularizer
    terms, theta the scalar augmentation weight.  Iteration control:
    the driver stops at max_iters or after the first iteration whose
    primal residual is at most tol_primal.
    gs_sweeps is the exact number of inner Gauss-Seidel passes of each
    segmentation v-update with a weight field, the one v-system with a
    spatially varying xi (screened_solve); the inner solve has no early
    exit.  The passes run in float32 on the correction to a float64
    defect, in chunks of at most 20 that each restart from a fresh
    float64 defect, so more passes keep converging to float64 accuracy.
    Every other v-system has a scalar xi: a segmentation run with a
    constant weight (adaptive.constant_lambda set, a float lambda), and
    every denoising and flow run, whose gradient split moves the weight
    out of the v-system.  screened_solve solves those exactly by the DCT,
    and gs_sweeps has no effect on them.
    Non-finite mu, eta, theta or tol_primal, and max_iters or gs_sweeps
    that are not integers, raise ValueError.
    """

    mu: float
    eta: float
    theta: float
    adaptive: AdaptiveParams
    max_iters: int = 300
    tol_primal: float = 1e-6
    gs_sweeps: int = 20

    def __post_init__(self):
        if not (0.0 < self.mu < math.inf and 0.0 < self.eta < math.inf):
            raise ValueError("Huber thresholds mu and eta must be positive and finite")
        if not 0.0 < self.theta < math.inf:
            raise ValueError("theta must be positive and finite")
        check_count("max_iters", self.max_iters, 0)
        if not 0.0 < self.tol_primal < math.inf:
            raise ValueError("tol_primal must be positive and finite")
        check_count("gs_sweeps", self.gs_sweeps, 1)


def check_count(name: str, value, least: int) -> None:
    """Raise ValueError unless value is an integer (not a bool) >= least."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError("%s must be an integer >= %d, got %r" % (name, least, value))


@dataclass
class IterationRecord:
    """One iteration of a run.  energy is math.nan on every record but a
    run's last, since run_admm forms the energy only there."""

    iter: int
    energy: float
    primal_residual: float
    mean_lambda: float


class DivergenceError(RuntimeError):
    """Raised when the primal residual, formed every iteration, or the
    energy of a run's last iteration stops being finite."""

    def __init__(self, iteration: int):
        super().__init__("divergence detected at iteration %d" % iteration)
        self.iteration = iteration


def rms(a: np.ndarray, *, out: np.ndarray | None = None) -> float:
    """Root mean square over all entries of an array.  out, if given,
    takes the squares and may be a; np.mean sums in memory order, so out
    must be laid out as the fresh product a * a would be (a itself is,
    when contiguous).  A square that overflows gives inf without a
    warning: run_admm checks the residual with isfinite."""
    a = np.asarray(a, dtype=np.float64)
    with np.errstate(over="ignore"):
        return float(np.sqrt(np.mean(np.multiply(a, a, out=out))))


def dual_step(u: np.ndarray, v: np.ndarray, w: np.ndarray, *, out: np.ndarray | None = None) -> float:
    """Dual ascent w += u - v; returns the primal residual, the rms of
    u - v, summed in the memory order of the difference.  out, if given,
    takes u - v and then its squares."""
    d = np.subtract(u, v, out=out)
    w += d
    return rms(d, out=d)


def slot(buffer, shape, dtype=np.float64, start: int = 0) -> np.ndarray:
    """An array of this shape and dtype over the memory of a free
    contiguous buffer, from its entry start on (counted from the end when
    negative), or a fresh uninitialized C-ordered array without a
    buffer."""
    if buffer is None:
        return np.empty(shape, dtype)
    return buffer.reshape(-1)[start:].view(dtype)[: math.prod(shape)].reshape(shape)


def v_step_buffers(shape, xi_shape, least: int = 0):
    """The buffers a state allocates once for its v-steps, as (scratch,
    xi, rhs) for an rhs of this shape: one block holds the flat solve
    scratch, of at least solve_scratch_size(shape) and least entries, and
    after it a field of xi_shape for xi; rhs is a separate field."""
    m = math.prod(xi_shape)
    block = np.empty(max(solve_scratch_size(shape), least) + m)
    return block[:-m], block[-m:].reshape(xi_shape), np.empty(shape)


def run_admm(state, params: SolverParams, start_iter: int = 0, on_check=None):
    """Drive a problem state to convergence or the iteration cap.

    Returns (state.u, history).  history holds one IterationRecord per
    iteration (1-based, offset by start_iter so chained runs keep a
    global counter).  The run stops early after the first iteration with
    state.residual <= tol_primal.  The energy is formed only on the
    run's last iteration, the one that converged or hit the cap; every
    earlier record carries math.nan.  A non-finite primal residual, or a
    non-finite last energy, raises DivergenceError.  The residual is an
    RMS, so one whose square overflows is infinite and counts as
    divergence too.  on_check, if given, is called as on_check(state,
    record) after every iteration; it may call state.energy() for an
    energy the record does not carry.  A state may reuse its arrays
    between iterations (the three problem states write their fields in
    place), so on_check must copy whatever it keeps.
    """
    history: list[IterationRecord] = []
    for k in range(1, params.max_iters + 1):
        state.iterate()
        it = start_iter + k
        residual = state.residual
        if not math.isfinite(residual):
            raise DivergenceError(it)
        last = k == params.max_iters or residual <= params.tol_primal
        energy = state.energy() if last else math.nan
        if last and not math.isfinite(energy):
            raise DivergenceError(it)
        record = IterationRecord(it, energy, residual, float(np.mean(state.lam)))
        history.append(record)
        if on_check is not None:
            on_check(state, record)
        if last:
            break
    return state.u, history


def history_to_csv(history) -> str:
    """Render a history as CSV (header + one row per record).

    Floats use repr so the file round-trips exactly; the format never
    depends on locale.
    """
    lines = ["iter,energy,primal_residual,mean_lambda"]
    for rec in history:
        lines.append(
            "%d,%r,%r,%r" % (rec.iter, rec.energy, rec.primal_residual, rec.mean_lambda)
        )
    return "\n".join(lines) + "\n"


# Row and column parity of the four sub-lattices in sweep order: the two
# red ones, then the two black ones.  The two of one color never neighbor
# each other.
_SUBLATTICES = ((0, 0), (1, 1), (0, 1), (1, 0))


def _cells(h: int, w: int, py: int, px: int):
    """Index of sub-lattice (py, px) of an (H, W) grid inside its plane."""
    return (Ellipsis, slice(1, 1 + (h - py + 1) // 2), slice(1, 1 + (w - px + 1) // 2))


def _frame(h: int, w: int) -> tuple:
    """Frame of the parity planes of an (H, W) grid: a sub-lattice plus a
    pad cell on every side."""
    return ((h + 1) // 2 + 2, (w + 1) // 2 + 2)


def _zero_pads(planes: np.ndarray) -> None:
    """Zero the pad cells of (..., *frame) parity planes, in place: the
    first and the last two rows and columns of every frame.  That covers
    every plane's pad; the cells it also zeroes inside the planes that
    reach the second-to-last row or column are written afterwards."""
    for edge in (0, -2, -1):
        planes[..., edge, :] = 0.0
        planes[..., :, edge] = 0.0


def _neighbor_count(n: int, parity: int) -> np.ndarray:
    """Neighbors along an axis of length n, at the indices of one parity."""
    idx = np.arange(parity, n, 2)
    return 2.0 - (idx == 0) - (idx == n - 1)


@lru_cache(maxsize=16)
def _count_planes(h: int, w: int) -> np.ndarray:
    """The neighbor count c of every sub-lattice of an (H, W) grid, as
    read-only (4, *frame) float32 planes with 0 on every pad cell."""
    count = np.zeros((4,) + _frame(h, w), np.float32)
    for k, (py, px) in enumerate(_SUBLATTICES):
        np.add(_neighbor_count(h, py)[:, None], _neighbor_count(w, px), out=count[k][_cells(h, w, py, px)])
    count.flags.writeable = False
    return count


def _plane_fields(d: np.ndarray, xi: np.ndarray, fields: np.ndarray, den: np.ndarray) -> None:
    """d/(1 + xi*c) and the gain xi/(1 + xi*c) of every sub-lattice, c
    the neighbor count, into fields, a field-major (2 fields,
    4 sub-lattices, ..., *frame) float32 block.  d and xi are rounded to
    float32 and the rest is formed in float32.  den, a (4, ..., *frame)
    float32 array, takes 1 + xi*c on the way.  The pads of both fields
    are zeroed first, so they hold 0 whatever the memory held."""
    h, w = d.shape[-2:]
    _zero_pads(fields)
    dt, g = fields
    for k, (py, px) in enumerate(_SUBLATTICES):
        cells = _cells(h, w, py, px)
        dt[k][cells] = d[..., py::2, px::2]
        g[k][cells] = xi[..., py::2, px::2]
    count = _count_planes(h, w).reshape((4,) + (1,) * (d.ndim - 2) + den.shape[-2:])
    np.multiply(g, count, out=den)
    den += 1.0
    dt /= den
    g /= den


def _sweep(planes: np.ndarray, fields: np.ndarray, sweeps: int) -> None:
    """Red-black Gauss-Seidel sweeps in place on the (4, ..., *frame)
    parity planes of e: e = T*g + d/(1 + xi*c), T the neighbor sum,
    formed in the center's own run; 16 ufunc calls each."""
    n = planes[0].size
    stride = planes.shape[-1]
    e = planes.reshape(-1)
    fields = fields.reshape(2, -1)
    lo, hi = stride + 1, n - stride - 1

    def run(k, s=0):
        return e[k * n + lo + s : k * n + hi + s]

    sums = []
    for k, (py, px) in enumerate(_SUBLATTICES):
        # Left and right neighbors sit in the plane of the other column
        # parity, up and down in the plane of the other row parity.  At
        # column (row) parity 0 the right (down) neighbor shares the
        # center's frame cell and the left (up) one lies a cell (frame
        # row) before it; at parity 1 the left (up) one shares it.
        across = _SUBLATTICES.index((py, 1 - px))
        along = _SUBLATTICES.index((1 - py, px))
        sums.append((
            run(k),
            run(across, px - 1),
            run(across, px),
            run(along, (py - 1) * stride),
            run(along, py * stride),
        ))
    # The two planes of a color are adjacent, so one run from the first
    # plane's run start to the second's run end covers both.  The pad rows
    # in between hold zero fields, so they stay +0.0.
    colors = []
    for k in (0, 2):
        tail = slice(k * n + lo, (k + 1) * n + hi)
        colors.append((sums[k : k + 2], e[tail], fields[:, tail]))
    for _ in range(sweeps):
        for color_sums, center, (dt, g) in colors:
            # center = (((left + right) + up) + down) * g + dt
            for total, left, right, up, down in color_sums:
                np.add(left, right, out=total)
                total += up
                total += down
            center *= g
            center += dt


def _check_rhs(rhs) -> np.ndarray:
    """rhs as float64, checked to be a stack of nonempty (H, W) grids."""
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.ndim < 2 or rhs.size == 0:
        raise ValueError("rhs must be a nonempty (..., H, W) stack, got shape %s" % (rhs.shape,))
    return rhs


def _check_xi(least, most) -> None:
    """Raise ValueError unless xi, of these extremes, is finite and >= 0."""
    if not (0.0 <= least and most < math.inf):
        raise ValueError("xi must be finite and nonnegative")


def solve_scratch_size(shape) -> int:
    """Entries of the flat float64 scratch that screened_solve takes for
    an rhs of this shape, enough for either kind of xi: the float64
    defect and the iterate between chunks, then laplacian's two
    difference runs or, as float32, the two plane fields and the planes
    of the correction (the masks of where xi is 0 reuse the defect's
    entries); or the field and spectrum of the exact solve.  65536
    entries at 128^2."""
    h, w = shape[-2:]
    entries = math.prod(shape[:-2])
    n = entries * h * w
    plane = entries * math.prod(_frame(h, w))
    return max(2 * n + max(2 * n, 6 * plane), _exact_scratch_size(shape))


# Sweeps per float32 chunk.  Each chunk starts from a fresh float64
# defect, so a long solve still converges to float64 accuracy.
_CHUNK = 20


def _correct(rhs, xi, v, sweeps: int, out, scratch, zeros: bool) -> np.ndarray:
    """v + e into out, or a fresh array: e from `sweeps` float32
    Gauss-Seidel sweeps from zero on (1 - xi laplacian) e = the float64
    defect of v.  zeros says whether xi has any; out takes rhs there.  The
    defect, and then the masks of where xi is 0 and where not, take the
    first rhs.size entries of a flat float64 scratch, and the float32
    block at entry 2 rhs.size, where laplacian's scratch goes first."""
    h, w = rhs.shape[-2:]
    block = None if scratch is None else scratch[2 * rhs.size :]
    # the defect rhs - (v - xi laplacian v)
    d = laplacian(v, out=slot(scratch, rhs.shape), scratch=block)
    d *= xi
    np.subtract(v, d, out=d)
    np.subtract(rhs, d, out=d)
    shape = (4,) + rhs.shape[:-2] + _frame(h, w)
    size = math.prod(shape)
    # A defect beyond float32's range becomes inf, and the sweeps turn it
    # into NaN, which the run's residual check reports as divergence.
    with np.errstate(over="ignore", invalid="ignore"):
        # in a scratch, the planes of e follow the two plane fields; they
        # hold 1 + xi*c until the fields are formed
        fields = slot(block, (2,) + shape, np.float32)
        planes = slot(block, shape, np.float32, size)
        _plane_fields(d, xi, fields, planes)
        del d
        planes.fill(0.0)
        _sweep(planes, fields, sweeps)
    del fields  # free before allocating the output
    if out is None:
        out = np.empty(rhs.shape)
    masks = None
    if zeros:
        # in the defect's slot, dead since the fields were formed
        masks = slot(scratch, (2,) + rhs.shape, bool)
        np.logical_not(np.equal(xi, 0.0, out=masks[0]), out=masks[1])
    for plane, (py, px) in zip(planes, _SUBLATTICES):
        sub = (Ellipsis, slice(py, None, 2), slice(px, None, 2))
        where = True if masks is None else masks[1][sub]
        np.add(v[sub], plane[_cells(h, w, py, px)], out=out[sub], where=where)
    if masks is not None:
        np.copyto(out, rhs, where=masks[0])
    return out


def screened_solve(
    rhs: np.ndarray,
    xi,
    v0: np.ndarray,
    sweeps: int,
    *,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Solve (1 - xi * laplacian) v = rhs on a stack: exactly for a scalar
    xi, by exactly `sweeps` Gauss-Seidel sweeps from v0 for a field xi.

    rhs and v0 have shape (..., H, W); every leading index is a separate
    grid, and xi broadcasts against rhs (one (H, W) weight can serve a
    whole stack).  Five-point Laplacian with replicate (Neumann)
    boundary, so boundary pixels simply see fewer neighbors.  A scalar
    (0-d) xi, which a constant weight gives, returns
    exact_screened_solve(rhs, xi); v0 and sweeps are then checked but
    not used.  A field xi takes the sweeps, even when it is uniform.
    Callers pass rhs, xi, v0 and sweeps by position and the buffers by
    keyword.

    Mixed precision: the sweeps solve for the correction e = v - v0 in
    float32, while the defect they solve for and the result stay
    float64.  In chunks of at most 20 sweeps, the solve forms the
    defect d = rhs - (v - xi laplacian v) of its iterate v in float64,
    runs the sweeps on (1 - xi laplacian) e = d in float32 from e = 0,
    and adds e to v in float64.  Gauss-Seidel is affine, so in exact
    arithmetic this is sweeping v itself; only the rounding of e
    changes.  Each chunk restarts from a float64 defect, so a long
    solve still reaches float64 accuracy.  Kept exactly (bitwise):
    sweeps = 0 returns v0; cells with xi = 0 return rhs (the solve
    writes rhs there, as the exact solve gives it); and a constant rhs
    with v0 = rhs returns rhs, since its defect is exactly zero.  The
    sweeps round the defect and xi to float32, so a value beyond
    float32's range (about 3.4e38) turns the result into NaN.

    Buffers: out, if given, is a float64 array of rhs's shape, of any
    strides, that receives the result; it may be rhs or v0 itself, since
    both are read before out is written.  scratch, if given, is a flat
    float64 buffer of at least solve_scratch_size(rhs.shape) entries for
    every intermediate of either solve, whatever it held before; a field
    xi's solve uses part of it as float32.  The result is out, or else a
    fresh array, never a view of the scratch.  With both, a solve
    allocates nothing of field size but the neighbor counts, cached per
    grid shape.  Without a scratch, a field xi's solve allocates the
    same parts as separate arrays and zeroes the same pad cells in them.
    The defect, with laplacian's two difference runs, sets its peak of
    about three rhs sizes; the two float32 field planes and the planes
    of e take about 1.5, and the field planes are freed before out is
    allocated.  A scalar xi's solve takes about two rhs sizes.

    The sweeps use red-black ordering: each half sweep updates one
    checkerboard color from the other, which makes the result
    independent of traversal order.

    Parity-plane layout: each of the four sub-lattices of row and column
    parity lives in its own zero-padded plane, and all planes share one
    frame (ceil(H/2) + 2, ceil(W/2) + 2) per stack entry.  Sub-lattice
    cell (i, j) sits at frame cell (i + 1, j + 1) in every plane.
    Flattened over the whole stack, a sub-lattice's neighbor sum is one
    contiguous run that skips the first and last frame row, and its four
    neighbors are the same run shifted by 0 or 1 (left, right) in the
    plane of the other column parity and by 0 or one frame row (up,
    down) in the plane of the other row parity.  The run also covers the
    pad cells between its rows and between stack entries.  The fields
    d/(1 + xi*c) and the gain g sit in one field-major block (2 fields,
    4 sub-lattices, ..., *frame), so the two planes of one color are
    adjacent in e and in both fields, and the pointwise rest of the
    update runs once per color over a single run that spans both planes,
    the pad rows between them included.  A sweep thus takes 16 ufunc
    calls: 3 per sub-lattice for the neighbor sum, formed in the center's
    own run, and 2 per color for the rest.  Pad cells carry 0 in both
    fields, so the update writes +0.0 there while the neighbors are
    finite, and a pad cell keeps standing in for a missing neighbor.  (A
    non-finite value turns its pad neighbors to NaN, which then reach
    the next row and the next stack entry.)  Every chunk zeroes the pad
    cells of the fields and the planes of e it uses, so a non-finite
    value never outlives the call that met it.

    The update (d + xi*T)/(1 + xi*c), T the neighbor sum and c the
    neighbor count, runs as e = T*g + d/(1 + xi*c) with the gain
    g = xi/(1 + xi*c) and d/(1 + xi*c) formed once per chunk: no divide
    in a sweep.

    Raises ValueError when rhs is not a stack of nonempty grids, v0 does
    not have the shape of rhs, xi does not broadcast to it or is not
    finite and nonnegative, or sweeps is not an integer >= 0.
    """
    rhs = _check_rhs(rhs)
    v0 = np.asarray(v0)
    if v0.shape != rhs.shape:
        raise ValueError("v0 shape %s differs from rhs shape %s" % (v0.shape, rhs.shape))
    check_count("sweeps", sweeps, 0)
    if np.ndim(xi) == 0:
        return exact_screened_solve(rhs, xi, out=out, scratch=scratch)
    least = np.min(xi)
    _check_xi(least, np.max(xi))
    try:
        xi = np.broadcast_to(xi, rhs.shape)
    except ValueError:
        raise ValueError(
            "xi shape %s does not broadcast to rhs shape %s" % (np.shape(xi), rhs.shape)
        ) from None
    if sweeps == 0:
        out = np.empty(rhs.shape) if out is None else out
        out[...] = v0
        return out
    zeros = least == 0.0
    v = v0
    # the iterate between chunks, in the scratch's second field
    between = slot(scratch, rhs.shape, start=rhs.size) if sweeps > _CHUNK else None
    while sweeps > _CHUNK:
        v = _correct(rhs, xi, v, _CHUNK, between, scratch, zeros)
        sweeps -= _CHUNK
    return _correct(rhs, xi, v, sweeps, out, scratch, zeros)


@lru_cache(maxsize=8)
def _twiddles(n: int) -> np.ndarray:
    """exp(-i pi k / 2n), k = 0 .. n // 2, and its conjugate, read-only:
    the factors between the FFT of a length-n even-odd sequence and its
    DCT-II."""
    twiddle = np.exp(-0.5j * np.pi / n * np.arange(n // 2 + 1))
    twiddles = np.stack((twiddle, twiddle.conj()))
    twiddles.flags.writeable = False
    return twiddles


def _parities(even_odd: np.ndarray, natural: np.ndarray, axis: int):
    """The two (even-odd view, natural view) pairs along axis (-1 or -2):
    entries 0 .. m - 1 of the even-odd order x0, x2, x4, ..., x5, x3, x1
    are the even entries in order, and the rest, reversed, the odd
    ones."""
    n = even_odd.shape[axis]
    m = (n + 1) // 2
    rest = (slice(None),) * (-1 - axis)
    return (
        (even_odd[(..., slice(m)) + rest], natural[(..., slice(0, None, 2)) + rest]),
        (even_odd[(..., slice(n - 1, m - 1, -1)) + rest], natural[(..., slice(1, None, 2)) + rest]),
    )


def _dct_rows(x: np.ndarray, shift, out=None, spectrum=None) -> np.ndarray:
    """Unnormalized DCT-II along the last axis of y = x - shift (shift
    broadcasts, and the even-odd reorder subtracts it),
    X_k = sum_j y_j cos(pi k (2j + 1) / 2n), through one real FFT (Makhoul):
    with Z_k = exp(-i pi k / 2n) rfft(even-odd y)_k, X_k = Re Z_k and
    X_{n-k} = -Im Z_k.  The rows of the result come in even-odd order,
    ready for the column transform.  out and the flat complex spectrum
    are optional buffers."""
    n = x.shape[-1]
    m = (n + 1) // 2
    # the even-odd y until the FFT has read it
    out = np.empty(x.shape) if out is None else out
    for dst, src in _parities(out, x, -1):
        np.subtract(src, shift, out=dst)
    z = np.fft.rfft(out, axis=-1, out=slot(spectrum, x.shape[:-1] + (n // 2 + 1,), np.complex128))
    z *= _twiddles(n)[0]
    for dst, src in _parities(out, z, -2):
        dst[..., : n // 2 + 1] = src.real
        # np.multiply, not np.negative: numpy 2.4's negative miscomputes
        # strided inputs written to differently strided outputs.
        np.multiply(src.imag[..., 1:m], -1.0, out=dst[..., n - 1 : n - m : -1])
    return out


def _idct_rows(c: np.ndarray, rhs: np.ndarray, out=None, spectrum=None) -> np.ndarray:
    """rhs plus the inverse of _dct_rows of c, whose rows come in
    even-odd order: Z_k = c_k - i c_{n-k} (c_n = 0), built in natural row
    order, undo the twiddle, inverse real FFT over c, and add rhs at the
    natural positions of the even-odd entries.  The result goes into
    out, which may be rhs, or else a fresh array allocated once Z is
    freed; spectrum is an optional buffer for Z."""
    n = c.shape[-1]
    half = n // 2 + 1
    z = slot(spectrum, c.shape[:-1] + (half,), np.complex128)
    for src, dst in _parities(c, z, -2):
        dst.real = src[..., :half]
        dst.imag[..., 0] = 0.0
        np.multiply(src[..., n - 1 : n - half : -1], -1.0, out=dst.imag[..., 1:])
    z *= _twiddles(n)[1]
    x = np.fft.irfft(z, n=n, axis=-1, out=c)
    del z, dst  # free the spectrum before out is allocated
    m = (n + 1) // 2
    out = np.empty(c.shape) if out is None else out
    np.add(x[..., :m], rhs[..., ::2], out=out[..., ::2])
    np.add(x[..., n - 1 : m - 1 : -1], rhs[..., 1::2], out=out[..., 1::2])
    return out


def _kappa(n: int) -> np.ndarray:
    """Eigenvalues 2 - 2 cos(pi k / n) = 4 sin^2(pi k / 2n) of the negated
    Neumann second difference of length n; the DCT-II diagonalizes it."""
    return 4.0 * np.sin(0.5 * np.pi / n * np.arange(n)) ** 2


@lru_cache(maxsize=4)
def _column_gains(h: int, w: int, xi: float):
    """Gain -xi k / (1 + xi k), k = kappa_y + kappa_x, in the half-spectrum
    layout of the column transform, where Z_k = c_k - i c_{h-k}: the
    factors of Re Z_k (frequency k) and of Im Z_k (frequency (h - k) mod
    h), as one (2, h // 2 + 1, W) array, with the (2, h // 2 + 1, 1)
    column twiddles.  Formed in place as -1 / (1 + 1 / (xi k)), exactly 0
    where xi k is: at frequency (0, 0), and everywhere for xi = 0."""
    k = np.arange(h // 2 + 1)
    gains = np.add.outer(_kappa(h)[np.stack((k, -k))], _kappa(w))
    gains *= xi
    with np.errstate(divide="ignore"):
        np.divide(1.0, gains, out=gains)
    gains += 1.0
    np.divide(-1.0, gains, out=gains)
    gains.flags.writeable = False
    return gains, _twiddles(h)[:, :, None]


def _exact_scratch_size(shape) -> int:
    """Entries of the flat float64 scratch of exact_screened_solve: one
    field and a complex spectrum as large as the bigger of the row and
    the column half spectra."""
    h, w = shape[-2:]
    entries = math.prod(shape[:-2])
    return entries * (h * w + 2 * max(h * (w // 2 + 1), (h // 2 + 1) * w))


def exact_screened_solve(
    rhs: np.ndarray,
    xi: float,
    *,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Exact solve of (1 - xi * laplacian) v = rhs for one scalar xi >= 0.

    rhs has shape (..., H, W); every leading index is a separate grid.
    Same five-point Neumann Laplacian as screened_solve, which the
    DCT-II diagonalizes: frequency k along an axis of length n has
    eigenvalue -kappa_k, kappa_k = 2 - 2 cos(pi k / n).  Each transform
    is one real FFT of the even-odd reordered sequence (Makhoul, IEEE
    TASSP 1980): explicit DCT coefficients along the rows; along the
    columns the gain scales the real and imaginary parts of the twiddled
    half spectrum, which hold frequencies k and H - k.  numpy's FFT runs
    on one thread, so the result does not depend on any thread setting.

    Residual form: v = rhs + IDCT(g DCT(rhs - c)), g = -xi k / (1 + xi k)
    with k = kappa_y + kappa_x and c = rhs[..., :1, :1], each grid's own
    corner value.  g is 0 at frequency (0, 0), so c changes nothing in
    exact arithmetic, but the spectrum stays as small as the grid's
    variation.  A constant grid becomes exactly zero (a mean need not
    round back to the constant) and xi = 0 gives a zero gain, so both
    return rhs, up to the sign of a zero.

    Only the reorder of each row before its forward FFT is a copy pass
    of its own, and it subtracts c.  The row DCT is assembled straight
    into even-odd row order for the column FFT, the inverse row spectrum
    is built in natural row order straight from the column inverse FFT,
    and the final add of rhs reads the even and the reversed odd half of
    each row.  Every transform writes over one field, so with the gains
    of (H, W, xi) cached a call peaks at about two fields besides rhs and
    out.  out and scratch are the buffers screened_solve describes; the
    scratch holds that field and then every spectrum, each over the
    last, and every FFT writes there through out=.  The result never
    shares memory with the scratch.

    Raises ValueError when rhs is not a stack of nonempty grids or xi
    is not a finite nonnegative scalar.
    """
    if np.ndim(xi) != 0:
        raise ValueError("xi must be a scalar, got shape %s" % (np.shape(xi),))
    rhs = _check_rhs(rhs)
    xi = float(xi)
    _check_xi(xi, xi)
    h, w = rhs.shape[-2:]
    gains, twiddles = _column_gains(h, w, xi)
    field = spectrum = None
    if scratch is not None:
        field = slot(scratch, rhs.shape)
        spectrum = scratch[rhs.size : _exact_scratch_size(rhs.shape)].view(np.complex128)
    rows = _dct_rows(rhs, rhs[..., :1, :1], field, spectrum)
    z = np.fft.rfft(rows, axis=-2, out=slot(spectrum, rhs.shape[:-2] + (h // 2 + 1, w), np.complex128))
    z *= twiddles[0]
    z.real *= gains[0]
    z.imag *= gains[1]
    z *= twiddles[1]
    np.fft.irfft(z, n=h, axis=-2, out=rows)
    del z  # free the spectrum before the row transform allocates its own
    return _idct_rows(rows, rhs, out, spectrum)
