"""Shared ADMM scaffolding: parameter bundle, iteration driver, history.

The three problems (denoising, segmentation, optical flow) plug into the
same driver through a small duck-typed state protocol:

    state.iterate()            run one full update sweep (weights first,
                               then r, z, u, v, w in the documented order)
    state.primal_residual()    RMS of u - v over all scalar entries
    state.energy()             current model energy (run_admm forms it
                               only on a run's last iteration)
    state.mean_lambda()        mean fidelity weight, in [0, 1]
    state.solution()           object handed back to the caller

The three problem states take their dual step with dual_step, which
forms the new w and the primal residual from one u - v; their
primal_residual() returns the residual kept from it.

The driver itself is single-threaded over iterations; any parallelism
lives inside the per-pixel updates and is bitwise deterministic.
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
    v-update with a spatially varying weight (screened_solve); the inner
    solve has no early exit.  A constant weight
    (adaptive.constant_lambda set) is a float lambda, so xi is a scalar
    and screened_solve takes the exact DCT solve, on which gs_sweeps has
    no effect.
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
    run's last, since run_admm forms the energy only there; a caller that
    wants it earlier calls state.energy() in its on_check."""

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


def run_admm(state, params: SolverParams, start_iter: int = 0, on_check=None):
    """Drive a problem state to convergence or the iteration cap.

    Returns (solution, history).  history holds one IterationRecord per
    iteration (1-based, offset by start_iter so chained runs keep a
    global counter).  The run stops early after the first iteration with
    primal_residual <= tol_primal.  The energy is formed only on the
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
        residual = state.primal_residual()
        if not math.isfinite(residual):
            raise DivergenceError(it)
        last = k == params.max_iters or residual <= params.tol_primal
        energy = state.energy() if last else math.nan
        if last and not math.isfinite(energy):
            raise DivergenceError(it)
        record = IterationRecord(it, energy, residual, state.mean_lambda())
        history.append(record)
        if on_check is not None:
            on_check(state, record)
        if last:
            break
    return state.solution(), history


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


def _neighbor_count(n: int, parity: int) -> np.ndarray:
    """Neighbors along an axis of length n, at the indices of one parity."""
    idx = np.arange(parity, n, 2)
    return 2.0 - (idx == 0) - (idx == n - 1)


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


def _slot(scratch, start: int, shape) -> np.ndarray:
    """Entries start, start + 1, ... of a flat scratch as an array of this
    shape, or a fresh uninitialized array without a scratch."""
    if scratch is None:
        return np.empty(shape)
    return scratch[start : start + math.prod(shape)].reshape(shape)


def _plane_fields(rhs: np.ndarray, xi: np.ndarray, frame, scratch=None) -> np.ndarray:
    """rhs, c*rhs and the gain xi/(1 + xi*c) of every sub-lattice, c the
    neighbor count, as a field-major (3 fields, 4 sub-lattices, ...,
    *frame) block of planes: one field of both sub-lattices of a color
    is one contiguous run.  Pad cells hold 0 in all three.  With a flat
    scratch given, the block is its start and the count planes follow
    it; without one, both are fresh arrays.  Their pads are zeroed
    first, so what the memory held before does not matter."""
    h, w = rhs.shape[-2:]
    shape = (3, 4) + rhs.shape[:-2] + frame
    fields = _slot(scratch, 0, shape)
    # One count plane per sub-lattice, broadcast over the stack; 0 on pad.
    count = _slot(scratch, fields.size, (4,) + (1,) * (rhs.ndim - 2) + frame)
    # c*rhs is written everywhere below; rhs and the gain only inside.
    _zero_pads(fields[::2])
    _zero_pads(count)
    b, bc, e = fields
    for k, (py, px) in enumerate(_SUBLATTICES):
        cells = _cells(h, w, py, px)
        b[k][cells] = rhs[..., py::2, px::2]
        e[k][cells] = xi[..., py::2, px::2]
        np.add(_neighbor_count(h, py)[:, None], _neighbor_count(w, px), out=count[k][cells])
    # The gain in place: 1 + xi*c goes into the c*rhs slot for the divide.
    np.multiply(e, count, out=bc)
    bc += 1.0
    e /= bc
    np.multiply(count, b, out=bc)
    return fields


def _sweep(planes: np.ndarray, fields: np.ndarray, sweeps: int, scratch, start: int) -> None:
    """Red-black Gauss-Seidel sweeps in place on the (4, ..., *frame)
    parity planes of v: v = rhs + (T - c*rhs) * gain, 18 ufunc calls each.
    The neighbor sums take a run buffer of up to one plane: the entries
    of a flat scratch from start on, or a fresh array without one."""
    n = planes[0].size
    stride = planes.shape[-1]
    v = planes.reshape(-1)
    fields = fields.reshape(3, -1)
    lo, hi = stride + 1, n - stride - 1

    def run(k, s=0):
        return v[k * n + lo + s : k * n + hi + s]

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
        colors.append((sums[k : k + 2], v[tail], fields[:, tail]))
    scratch = _slot(scratch, start, (hi - lo,))
    for _ in range(sweeps):
        for color_sums, center, (b, bc, e) in colors:
            # center = b + (((left + right) + (up + down)) - bc) * e
            for total, left, right, up, down in color_sums:
                np.add(left, right, out=scratch)
                np.add(up, down, out=total)
                total += scratch
            center -= bc
            center *= e
            center += b


def _check_system(rhs, xi) -> np.ndarray:
    """rhs as float64, after the checks both screened solves share: rhs
    is a stack of nonempty (H, W) grids and xi is finite and
    nonnegative."""
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.ndim < 2 or rhs.size == 0:
        raise ValueError("rhs must be a nonempty (..., H, W) stack, got shape %s" % (rhs.shape,))
    if not (0.0 <= np.min(xi) and np.max(xi) < math.inf):
        raise ValueError("xi must be finite and nonnegative")
    return rhs


def solve_scratch_size(shape) -> int:
    """Entries of the flat float64 scratch that screened_solve takes for
    an rhs of this shape, enough for either kind of xi: the plane block,
    the v planes and one plane for the neighbor sums of the sweeps, or
    the two fields and the spectrum of the exact solve."""
    h, w = shape[-2:]
    entries = math.prod(shape[:-2])
    plane = entries * math.prod(_frame(h, w))
    return max(17 * plane, _exact_scratch_size(shape))


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

    Buffers: out, if given, is a float64 array of rhs's shape, of any
    strides, that receives the result; it may be rhs or v0 itself, since
    both are read before out is written.  scratch, if given, is a flat
    float64 buffer of at least solve_scratch_size(rhs.shape) entries for
    every intermediate of either solve, whatever it held before.  With
    both, a solve allocates nothing of field size.  Without a scratch, a
    field xi's solve allocates the same parts as separate arrays and
    zeroes the same pad cells in them, and it frees the field planes
    before it allocates out; it takes about 4.3 rhs sizes of fresh
    memory (three field planes, the v planes and a quarter-size run
    buffer).  A scalar xi's solve takes about three.

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
    rhs, c*rhs and the gain e sit in one field-major block (3 fields,
    4 sub-lattices, ..., *frame), so the two planes of one color are
    adjacent in v and in every field, and the pointwise rest of the
    update runs once per color over a single run that spans both planes,
    the pad rows between them included.  A sweep thus takes 18 ufunc
    calls: 3 per sub-lattice for the neighbor sum and 3 per color for
    the rest.  Pad cells carry 0 in all three fields, so the update
    writes +0.0 there while the neighbors are finite, and a pad cell
    keeps standing in for a missing neighbor.  (A non-finite value turns
    its pad neighbors to NaN, which then reach the next row and the next
    stack entry.)  Every call zeroes the pad cells of the planes and
    fields it uses, also in a reused scratch, so a non-finite value never
    outlives the call that met it.  The neighbor sum is taken pairwise,
    (left + right) + (up + down), so that for a constant field it rounds
    identically to count * value.

    The update (rhs + xi*T)/(1 + xi*c), T the neighbor sum and c the
    neighbor count, runs as v = rhs + (T - c*rhs) * e with the gain
    e = xi/(1 + xi*c) formed once per call: no divide in a sweep, and
    exact (bitwise) at xi = 0 (e = 0) and on constants (T = c*rhs).

    Raises ValueError when rhs is not a stack of nonempty grids, v0 does
    not have the shape of rhs, xi does not broadcast to it or is not
    finite and nonnegative, or sweeps is not an integer >= 0.
    """
    rhs = _check_system(rhs, xi)
    v0 = np.asarray(v0)
    if v0.shape != rhs.shape:
        raise ValueError("v0 shape %s differs from rhs shape %s" % (v0.shape, rhs.shape))
    check_count("sweeps", sweeps, 0)
    if np.ndim(xi) == 0:
        return exact_screened_solve(rhs, xi, out=out, scratch=scratch)
    try:
        xi = np.broadcast_to(xi, rhs.shape)
    except ValueError:
        raise ValueError(
            "xi shape %s does not broadcast to rhs shape %s" % (np.shape(xi), rhs.shape)
        ) from None
    h, w = rhs.shape[-2:]
    frame = _frame(h, w)
    shape = (4,) + rhs.shape[:-2] + frame
    fields = _plane_fields(rhs, xi, frame, scratch)
    # in a scratch, the v planes follow the plane block, where the count
    # planes were, and the sweep's run buffer follows them
    size = math.prod(shape)
    planes = _slot(scratch, 3 * size, shape)
    _zero_pads(planes)
    for plane, (py, px) in zip(planes, _SUBLATTICES):
        plane[_cells(h, w, py, px)] = v0[..., py::2, px::2]
    _sweep(planes, fields, sweeps, scratch, 4 * size)
    del fields  # free before allocating the output, so the sweep sets the peak
    if out is None:
        out = np.empty(rhs.shape)
    for plane, (py, px) in zip(planes, _SUBLATTICES):
        out[..., py::2, px::2] = plane[_cells(h, w, py, px)]
    return out


@lru_cache(maxsize=8)
def _twiddle(n: int) -> np.ndarray:
    """exp(-i pi k / 2n) for k = 0 .. n // 2: the factors that turn the
    FFT of a length-n sequence in even-odd order into its DCT-II."""
    twiddle = np.exp(-0.5j * np.pi / n * np.arange(n // 2 + 1))
    twiddle.flags.writeable = False
    return twiddle


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


def _part(buffer, shape):
    """The first entries of a flat buffer as an array of this shape, or
    None without a buffer."""
    return None if buffer is None else buffer[: math.prod(shape)].reshape(shape)


def _dct_rows(x: np.ndarray, out=None, spectrum=None) -> np.ndarray:
    """Unnormalized DCT-II along the last axis,
    X_k = sum_j x_j cos(pi k (2j + 1) / 2n), through one real FFT (Makhoul):
    with Z_k = exp(-i pi k / 2n) rfft(even-odd x)_k, X_k = Re Z_k and
    X_{n-k} = -Im Z_k.  The rows of the result come in even-odd order,
    ready for the column transform: the assembly of X writes them
    there.  out and the flat complex spectrum are optional buffers."""
    n = x.shape[-1]
    m = (n + 1) // 2
    # the even-odd x until the FFT has read it
    out = np.empty(x.shape) if out is None else out
    for dst, src in _parities(out, x, -1):
        dst[...] = src
    z = np.fft.rfft(out, axis=-1, out=_part(spectrum, x.shape[:-1] + (n // 2 + 1,)))
    z *= _twiddle(n)
    for dst, src in _parities(out, z, -2):
        dst[..., : n // 2 + 1] = src.real
        # np.multiply, not np.negative: numpy 2.4's negative miscomputes
        # strided inputs written to differently strided outputs.
        np.multiply(src.imag[..., 1:m], -1.0, out=dst[..., n - 1 : n - m : -1])
    return out


def _idct_rows(c: np.ndarray, rhs: np.ndarray, out=None, spectrum=None, x=None) -> np.ndarray:
    """rhs plus the inverse of _dct_rows of c, whose rows come in
    even-odd order: Z_k = c_k - i c_{n-k} (c_n = 0), built in natural row
    order, undo the twiddle, inverse real FFT, and add rhs at the natural
    positions of the even-odd entries.  The result goes into out, which
    may be rhs, or else overwrites c; spectrum and x are optional
    buffers for Z and the inverse FFT."""
    n = c.shape[-1]
    half = n // 2 + 1
    shape = c.shape[:-1] + (half,)
    z = np.empty(shape, dtype=np.complex128) if spectrum is None else _part(spectrum, shape)
    for src, dst in _parities(c, z, -2):
        dst.real = src[..., :half]
        dst.imag[..., 0] = 0.0
        np.multiply(src[..., n - 1 : n - half : -1], -1.0, out=dst.imag[..., 1:])
    z *= _twiddle(n).conj()
    x = np.fft.irfft(z, n=n, axis=-1, out=x)
    m = (n + 1) // 2
    out = c if out is None else out
    np.add(x[..., :m], rhs[..., ::2], out=out[..., ::2])
    np.add(x[..., n - 1 : m - 1 : -1], rhs[..., 1::2], out=out[..., 1::2])
    return out


def _kappa(n: int) -> np.ndarray:
    """Eigenvalues 2 - 2 cos(pi k / n) = 4 sin^2(pi k / 2n) of the negated
    Neumann second difference of length n; the DCT-II diagonalizes it."""
    return 4.0 * np.sin(0.5 * np.pi / n * np.arange(n)) ** 2


@lru_cache(maxsize=4)
def _column_gains(h: int, w: int, xi: float):
    """Gain xi / (1 + xi (kappa_y + kappa_x)) in the half-spectrum
    layout of the column transform, where Z_k = c_k - i c_{h-k}: the
    factor of Re Z_k (frequency k) and of Im Z_k (frequency h - k), as
    (h // 2 + 1, W) arrays, with the twiddle column and its conjugate."""
    gain = np.add.outer(_kappa(h), _kappa(w))
    gain *= xi
    gain += 1.0
    np.divide(xi, gain, out=gain)
    half = h // 2 + 1
    g_imag = np.zeros((half, w))
    g_imag[1:] = gain[h - 1 : h - half : -1]
    twiddle = _twiddle(h)[:, None]
    out = (gain[:half].copy(), g_imag, twiddle, twiddle.conj())
    for a in out:
        a.flags.writeable = False
    return out


def _exact_scratch_size(shape) -> int:
    """Entries of the flat float64 scratch of exact_screened_solve: two
    fields and a complex spectrum as large as the bigger of the row and
    the column half spectra."""
    h, w = shape[-2:]
    entries = math.prod(shape[:-2])
    return entries * (2 * h * w + 2 * max(h * (w // 2 + 1), (h // 2 + 1) * w))


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
    eigenvalue -kappa_k, kappa_k = 2 - 2 cos(pi k / n).  So the solve
    transforms along both axes, divides by 1 + xi (kappa_y + kappa_x)
    and transforms back.  Each transform is one real FFT of the
    even-odd reordered sequence (Makhoul, IEEE TASSP 1980).  Along the
    rows the DCT coefficients are formed explicitly; along the columns
    the gain is applied to the real and imaginary parts of the twiddled
    half spectrum, which hold frequencies k and H - k.  numpy's FFT runs
    on one thread, so the result does not depend on any thread setting.

    Only the reorder of each row before its forward FFT is a copy pass
    of its own.  The other reorders ride on passes that copy anyway: the
    row DCT is assembled straight into even-odd row order for the column
    FFT, the inverse row spectrum is built in natural row order straight
    from the column inverse FFT, and the final add of rhs reads the even
    and the reversed odd half of each row for the even and odd columns.
    The result overwrites the column pass's output, so once the gains
    of (H, W, xi) are cached a call peaks at about three fields besides
    rhs.  out and scratch are the buffers screened_solve describes; the
    scratch holds the Laplacian and the column pass's output in its
    first field, the row transforms in its second, and every spectrum
    after them, each one over the last.  Every FFT writes its output
    there through out=.

    Residual form: v = rhs + e with (1 - xi laplacian) e = xi laplacian
    rhs, the Laplacian of rhs taken in space.  A constant rhs has an
    exactly zero Laplacian and xi = 0 a zero gain, so both return rhs
    bitwise.

    Raises ValueError when rhs is not a stack of nonempty grids or xi
    is not a finite nonnegative scalar.
    """
    if np.ndim(xi) != 0:
        raise ValueError("xi must be a scalar, got shape %s" % (np.shape(xi),))
    rhs = _check_system(rhs, xi)
    h, w = rhs.shape[-2:]
    g_real, g_imag, twiddle, twiddle_conj = _column_gains(h, w, float(xi))
    first = second = spectrum = lap_scratch = None
    if scratch is not None:
        n = rhs.size
        first = scratch[:n].reshape(rhs.shape)
        second = scratch[n : 2 * n].reshape(rhs.shape)
        lap_scratch = scratch[n:]
        spectrum = scratch[2 * n : _exact_scratch_size(rhs.shape)].view(np.complex128)
    rows = _dct_rows(laplacian(rhs, out=first, scratch=lap_scratch), second, spectrum)
    z = np.fft.rfft(rows, axis=-2, out=_part(spectrum, rhs.shape[:-2] + (h // 2 + 1, w)))
    z *= twiddle
    z.real *= g_real
    z.imag *= g_imag
    z *= twiddle_conj
    rows = np.fft.irfft(z, n=h, axis=-2, out=first)
    del z  # free the spectrum before the row transform allocates its own
    return _idct_rows(rows, rhs, out, spectrum, second)
