"""Shared ADMM scaffolding: parameter bundle, iteration driver, history.

The three problems (denoising, segmentation, optical flow) plug into the
same driver through a small duck-typed state protocol:

    state.iterate()            run one full update sweep (weights first,
                               then r, z, u, v, w in the documented order)
    state.primal_residual()    RMS of u - v over all scalar entries
    state.energy()             current model energy (finite unless diverged)
    state.mean_lambda()        mean fidelity weight, in [0, 1]
    state.solution()           object handed back to the caller

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
    iter: int
    energy: float
    primal_residual: float
    mean_lambda: float


class DivergenceError(RuntimeError):
    """Raised when the tracked energy stops being finite."""

    def __init__(self, iteration: int):
        super().__init__("divergence detected at iteration %d" % iteration)
        self.iteration = iteration


def rms(a: np.ndarray) -> float:
    """Root mean square over all entries of an array."""
    a = np.asarray(a, dtype=np.float64)
    return float(np.sqrt(np.mean(a * a)))


class ObjectCache:
    """One value derived from one object, kept while that same object
    (by identity) is asked for again.  The states keep grad v in one, so
    the energy and the next z-step share a single gradient per v.  Code
    that writes the object in place must clear() the cache."""

    def __init__(self):
        self.clear()

    def clear(self) -> None:
        self._key = self._value = None

    def get(self, key, compute):
        """compute(key), or the value kept for this very key object."""
        if self._key is not key:
            self._value = compute(key)
            self._key = key
        return self._value


def run_admm(state, params: SolverParams, start_iter: int = 0, on_check=None):
    """Drive a problem state to convergence or the iteration cap.

    Returns (solution, history).  Every iteration is checked: history
    holds one IterationRecord per iteration (1-based, offset by
    start_iter so chained runs keep a global counter).  The run stops
    early after the first iteration with primal_residual <= tol_primal;
    a non-finite energy raises DivergenceError.  on_check, if given, is
    called as on_check(state, record) after every iteration.
    """
    history: list[IterationRecord] = []
    for k in range(1, params.max_iters + 1):
        state.iterate()
        it = start_iter + k
        energy = state.energy()
        if not math.isfinite(energy):
            raise DivergenceError(it)
        residual = state.primal_residual()
        record = IterationRecord(it, energy, residual, state.mean_lambda())
        history.append(record)
        if on_check is not None:
            on_check(state, record)
        if residual <= params.tol_primal:
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


def _plane_fields(rhs: np.ndarray, xi: np.ndarray, frame) -> np.ndarray:
    """rhs, c*rhs and the gain xi/(1 + xi*c) of every sub-lattice, c the
    neighbor count, as a field-major (3 fields, 4 sub-lattices, ...,
    *frame) block of planes: one field of both sub-lattices of a color
    is one contiguous run.  Pad cells hold 0 in all three."""
    h, w = rhs.shape[-2:]
    fields = np.zeros((3, 4) + rhs.shape[:-2] + frame)
    b, bc, e = fields
    # One count plane per sub-lattice, broadcast over the stack; 0 on pad.
    count = np.zeros((4,) + (1,) * (rhs.ndim - 2) + frame)
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


def _sweep(planes: np.ndarray, fields: np.ndarray, sweeps: int) -> None:
    """Red-black Gauss-Seidel sweeps in place on the (4, ..., *frame)
    parity planes of v: v = rhs + (T - c*rhs) * gain, 18 ufunc calls each."""
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
    scratch = np.empty(hi - lo)
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


def screened_solve(rhs: np.ndarray, xi, v0: np.ndarray, sweeps: int) -> np.ndarray:
    """Solve (1 - xi * laplacian) v = rhs on a stack: exactly for a scalar
    xi, by exactly `sweeps` Gauss-Seidel sweeps from v0 for a field xi.

    rhs and v0 have shape (..., H, W); every leading index is a separate
    grid, and xi broadcasts against rhs (one (H, W) weight can serve a
    whole stack).  Five-point Laplacian with replicate (Neumann)
    boundary, so boundary pixels simply see fewer neighbors.  A scalar
    (0-d) xi, which a constant weight gives, returns
    exact_screened_solve(rhs, xi); v0 and sweeps are then checked but
    not used.  A field xi takes the sweeps, even when it is uniform.

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
    stack entry.)  The neighbor sum is taken pairwise, (left + right) +
    (up + down), so that for a constant field it rounds identically to
    count * value.

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
        return exact_screened_solve(rhs, xi)
    try:
        xi = np.broadcast_to(xi, rhs.shape)
    except ValueError:
        raise ValueError(
            "xi shape %s does not broadcast to rhs shape %s" % (np.shape(xi), rhs.shape)
        ) from None
    h, w = rhs.shape[-2:]
    frame = ((h + 1) // 2 + 2, (w + 1) // 2 + 2)
    fields = _plane_fields(rhs, xi, frame)
    planes = np.zeros((4,) + rhs.shape[:-2] + frame)
    for plane, (py, px) in zip(planes, _SUBLATTICES):
        plane[_cells(h, w, py, px)] = v0[..., py::2, px::2]
    _sweep(planes, fields, sweeps)
    del fields  # free before allocating the output, so the sweep sets the peak
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


def _even_odd(x: np.ndarray, axis: int) -> np.ndarray:
    """x reordered along axis as x0, x2, x4, ..., x5, x3, x1."""
    out = np.empty(x.shape)
    src, dst = np.moveaxis(x, axis, -1), np.moveaxis(out, axis, -1)
    m = (src.shape[-1] + 1) // 2
    dst[..., :m] = src[..., ::2]
    dst[..., m:] = src[..., 1::2][..., ::-1]
    return out


def _natural(v: np.ndarray, axis: int, out: np.ndarray) -> np.ndarray:
    """Inverse of _even_odd, written into out."""
    src, dst = np.moveaxis(v, axis, -1), np.moveaxis(out, axis, -1)
    m = (src.shape[-1] + 1) // 2
    dst[..., ::2] = src[..., :m]
    dst[..., 1::2][..., ::-1] = src[..., m:]
    return out


def _dct_rows(x: np.ndarray) -> np.ndarray:
    """Unnormalized DCT-II along the last axis,
    X_k = sum_j x_j cos(pi k (2j + 1) / 2n), through one real FFT (Makhoul):
    with Z_k = exp(-i pi k / 2n) rfft(even-odd x)_k, X_k = Re Z_k and
    X_{n-k} = -Im Z_k."""
    n = x.shape[-1]
    m = (n + 1) // 2
    z = np.fft.rfft(_even_odd(x, -1), axis=-1)
    z *= _twiddle(n)
    out = np.empty(x.shape)
    out[..., : n // 2 + 1] = z.real
    # np.multiply, not np.negative: numpy 2.4's negative miscomputes
    # strided inputs written to differently strided outputs.
    np.multiply(z.imag[..., 1:m], -1.0, out=out[..., n - 1 : n - m : -1])
    return out


def _idct_rows(c: np.ndarray) -> np.ndarray:
    """Inverse of _dct_rows: Z_k = c_k - i c_{n-k} (c_n = 0), undo the
    twiddle, inverse real FFT, natural order."""
    n = c.shape[-1]
    half = n // 2 + 1
    z = np.empty(c.shape[:-1] + (half,), dtype=np.complex128)
    z.real = c[..., :half]
    z.imag[..., 0] = 0.0
    np.multiply(c[..., n - 1 : n - half : -1], -1.0, out=z.imag[..., 1:])
    z *= _twiddle(n).conj()
    return _natural(np.fft.irfft(z, n=n, axis=-1), -1, np.empty(c.shape))


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


def exact_screened_solve(rhs: np.ndarray, xi: float) -> np.ndarray:
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
    rows = _dct_rows(laplacian(rhs))
    z = np.fft.rfft(_even_odd(rows, -2), axis=-2)
    z *= twiddle
    z.real *= g_real
    z.imag *= g_imag
    z *= twiddle_conj
    _natural(np.fft.irfft(z, n=h, axis=-2), -2, rows)
    out = _idct_rows(rows)
    out += rhs
    return out
