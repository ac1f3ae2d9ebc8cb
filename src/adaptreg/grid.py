"""Dense 2-D field operations shared by all solvers.

Conventions used throughout the package:

* a scalar grid is a float64 array of shape (H, W); row index y, column
  index x,
* a vector grid is a float64 array of shape (H, W, 2) whose component 0
  is the x (column) direction and component 1 the y (row) direction.

The discrete gradient uses forward differences with a zero last
column/row, and the divergence is its exact negative adjoint (backward
differences), so that <grad u, p> = -<u, div p> holds in exact
arithmetic for every pair of fields.

The stencils and the Gaussian's x pass take their last-axis (and row)
shifts over the flattened (..., H*W) grid, as one contiguous run instead
of one short loop per row.  Such a run also computes entries that wrap
from one row's end into the next row's start; each kernel overwrites or
zeroes them before anything reads them, so every output entry sees the
same operands in the same order as a pass over 2-D slices would.
"""

from __future__ import annotations

import math

import numpy as np


# Bytes per operand of one band of the smoothing loop, 32 rows at
# W = 512: a band's accumulator, term buffer and source rows then stay in
# cache together.  divergence takes its interior y differences through a
# scratch buffer of this size.
BAND_BYTES = 128 * 1024


def scalar_grid(data) -> np.ndarray:
    """Coerce array-like data to a nonempty (H, W) float64 grid and check
    it is finite."""
    a = np.asarray(data, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"scalar grid must be 2-D, got shape {a.shape}")
    return _nonempty_finite(a, "scalar")


def vector_grid(data) -> np.ndarray:
    """Coerce array-like data to a nonempty (H, W, 2) float64 grid and
    check it is finite."""
    a = np.asarray(data, dtype=np.float64)
    if a.ndim != 3 or a.shape[2] != 2:
        raise ValueError(f"vector grid must have shape (H, W, 2), got {a.shape}")
    return _nonempty_finite(a, "vector")


def _nonempty_finite(a: np.ndarray, kind: str) -> np.ndarray:
    if a.size == 0:
        raise ValueError(f"{kind} grid is empty, shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{kind} grid contains non-finite values")
    return a


def gradient(u: np.ndarray, *, out: np.ndarray | None = None) -> np.ndarray:
    """Forward-difference gradient of a scalar grid or a stack of them.

    (..., H, W) -> (..., H, W, 2): every leading index is a separate
    grid, with (grad u)_x(y, x) = u(y, x+1) - u(y, x) and
    (grad u)_y(y, x) = u(y+1, x) - u(y, x); the last column/row of each
    component is zero (replicate boundary).

    Each component is one flat run over the (..., H*W) grid, u shifted
    by 1 (x) or by W (y) minus u.  The x run's entries in the last
    column wrap into the next row; they are zeroed with the last row of
    the y component before anything reads them.

    out, if given, receives the result.  It may be interleaved (C-ordered
    (..., H, W, 2)) or component-planar (an (..., H, W, 2) view of
    (2, ..., H, W) memory): each component only needs to flatten to a
    view over (..., H*W).
    """
    h, w = u.shape[-2:]
    flat = u.reshape(u.shape[:-2] + (h * w,))
    g = np.empty(u.shape + (2,), dtype=np.float64) if out is None else out
    np.subtract(flat[..., 1:], flat[..., :-1], out=g[..., 0].reshape(flat.shape)[..., :-1])
    np.subtract(flat[..., w:], flat[..., :-w], out=g[..., 1].reshape(flat.shape)[..., :-w])
    g[..., :, -1, 0] = 0.0
    g[..., -1, :, 1] = 0.0
    return g


def divergence(
    p: np.ndarray, *, out: np.ndarray | None = None, scratch: np.ndarray | None = None
) -> np.ndarray:
    """Discrete divergence, the negative adjoint of :func:`gradient`.

    Backward differences with the boundary convention that makes
    <grad u, p> + <u, div p> = 0 exactly for all u, p.  p may carry
    leading stack axes, (..., H, W, 2) -> (..., H, W), and may be
    interleaved or component-planar.

    The x differences are one flat run over the (..., H*W) grid, then
    added to +0.0, which only turns a -0.0 into +0.0; the entries of
    column 0, which wrap in from the previous row (or were never
    written), and column W - 1 are then overwritten by their boundary
    terms.  The y differences of the interior rows are one flat run too,
    taken in chunks of about BAND_BYTES through one scratch buffer
    instead of a field-sized temporary.  Every entry thus gets the value
    of adding each pass to a zeroed field.

    out, if given, is a C-contiguous (..., H, W) buffer for the result;
    scratch, if given, a flat float64 buffer for the chunks (its first
    BAND_BYTES are used, fewer on small grids).
    """
    h, w = p.shape[-3:-1]
    px = p[..., 0]
    py = p[..., 1]
    d = np.empty(p.shape[:-1], dtype=np.float64) if out is None else out
    if w >= 2:
        pxf = px.reshape(d.shape[:-2] + (h * w,))
        df = d.reshape(pxf.shape)
        np.subtract(pxf[..., 1:], pxf[..., :-1], out=df[..., 1:])
        df[..., 1:] += 0.0
        np.add(0.0, px[..., :, 0], out=d[..., :, 0])
        np.subtract(0.0, px[..., :, -2], out=d[..., :, -1])
    else:
        d.fill(0.0)
    if h >= 2:
        d[..., 0, :] += py[..., 0, :]
        pyf = py.reshape(d.shape[:-2] + (h * w,))
        df = d.reshape(pyf.shape)
        end = (h - 1) * w
        lead = d.shape[:-2]
        chunk = max(1, BAND_BYTES // (d.itemsize * math.prod(lead)))
        shape = lead + (min(chunk, end - w),)
        if scratch is None:
            scratch = np.empty(math.prod(shape))
        scratch = scratch[: math.prod(shape)].reshape(shape)
        for lo in range(w, end, chunk):
            hi = min(lo + chunk, end)
            diff = scratch[..., : hi - lo]
            np.subtract(pyf[..., lo:hi], pyf[..., lo - w : hi - w], out=diff)
            df[..., lo:hi] += diff
        d[..., -1, :] -= py[..., -2, :]
    return d


def laplacian(
    u: np.ndarray, *, out: np.ndarray | None = None, scratch: np.ndarray | None = None
) -> np.ndarray:
    """5-point Laplacian with Neumann boundary of a (..., H, W) stack.

    Bitwise equal to divergence(gradient(u)), without the (..., H, W, 2)
    gradient in between.  Along x it adds px(j) to zero and then
    subtracts px(j - 1), which rounds exactly like adding the difference
    px(j) - px(j - 1) to zero; along y the differences are added to the
    x part as divergence adds them.  Exactly zero on a constant grid.

    Both passes run over the flattened (..., H*W) grid.  The x
    differences are one flat run whose wrap entries (last column) are
    zeroed, so adding and subtracting them changes no value and no sign
    of zero; the y differences and their interior-row differences are
    flat runs too, the latter in the x buffer.

    out, if given, is a C-contiguous buffer for the result; scratch, if
    given, a flat float64 buffer of at least 2 u.size entries for the
    two difference runs.
    """
    h, w = u.shape[-2:]
    n = h * w
    flat = u.reshape(u.shape[:-2] + (n,))
    d = np.empty(flat.shape) if out is None else out.reshape(flat.shape)
    y_size = flat[..., w:].size
    if scratch is None:
        scratch = np.empty(u.size + y_size)
    diff = scratch[: u.size].reshape(flat.shape)
    py = scratch[u.size : u.size + y_size].reshape(flat.shape[:-1] + (n - w,))
    if w >= 2:
        np.subtract(flat[..., 1:], flat[..., :-1], out=diff[..., :-1])
        diff.reshape(u.shape)[..., :, -1] = 0.0
        # the x part added to a zeroed field
        np.add(0.0, diff, out=d)
        d[..., 1:] -= diff[..., :-1]
    else:
        d.fill(0.0)
    if h >= 2:
        np.subtract(flat[..., w:], flat[..., :-w], out=py)
        d[..., :w] += py[..., :w]
        np.subtract(py[..., w:], py[..., :-w], out=diff[..., : n - 2 * w])
        d[..., w : n - w] += diff[..., : n - 2 * w]
        d[..., n - w :] -= py[..., n - 2 * w :]
    return d.reshape(u.shape)


def central_gradient(u: np.ndarray) -> np.ndarray:
    """Central-difference gradient, one-sided at the borders.

    Used when linearizing warped frames; the regularizers keep the
    forward-difference :func:`gradient`.
    """
    h, w = u.shape
    g = np.zeros((h, w, 2), dtype=np.float64)
    if w >= 2:
        g[:, 1:-1, 0] = (u[:, 2:] - u[:, :-2]) / 2.0
        g[:, 0, 0] = u[:, 1] - u[:, 0]
        g[:, -1, 0] = u[:, -1] - u[:, -2]
    if h >= 2:
        g[1:-1, :, 1] = (u[2:, :] - u[:-2, :]) / 2.0
        g[0, :, 1] = u[1, :] - u[0, :]
        g[-1, :, 1] = u[-1, :] - u[-2, :]
    return g


def gaussian_kernel(sigma: float) -> np.ndarray:
    """Discrete Gaussian of standard deviation sigma, radius ceil(3*sigma), sum 1.

    sigma = 0 gives the single tap [1.0], the identity that
    convolve_gaussian applies at sigma 0.  A negative or non-finite
    sigma raises ValueError.
    """
    _check_sigma(sigma)
    if sigma == 0:
        return np.ones(1)
    radius = math.ceil(3.0 * sigma)
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-(x * x) / (2.0 * sigma * sigma))
    return k / k.sum()


def _check_sigma(sigma):
    if not 0.0 <= sigma < math.inf:
        raise ValueError("sigma must be nonnegative and finite, got %r" % (sigma,))


def _band_rows(h: int, w: int) -> int:
    """Rows of one band of the smoothing loop: about BAND_BYTES of float64."""
    return min(h, max(1, BAND_BYTES // (w * 8)))


def smoothing_scratch_size(shape, sigma: float) -> int:
    """Entries of the flat float64 scratch that convolve_gaussian needs on
    a field of this shape: the larger padded copy and two band buffers."""
    _check_sigma(sigma)
    if sigma == 0:
        return 0
    radius = math.ceil(3.0 * sigma)
    h, w = shape[-2:]
    entries = math.prod(shape[:-2])
    padded = entries * max(h * (w + 2 * radius), (h + 2 * radius) * w)
    return padded + 2 * _band_rows(h, w) * (w + 2 * radius)


def convolve_gaussian(
    u: np.ndarray,
    sigma: float,
    *,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Separable Gaussian smoothing; sigma = 0 returns the input unchanged.

    u has shape (..., H, W); every leading index is a separate grid,
    smoothed exactly as it would be on its own.  The kernel is truncated
    at radius ceil(3*sigma) and renormalized to sum 1. Mirror padding
    keeps the mean of the field exactly preserved (the effective
    smoothing matrix is doubly stochastic).  sigma must be nonnegative
    and finite, else ValueError.

    Each pass copies its mirror-padded input into the scratch, then adds
    the taps in order into a zeroed accumulator, over bands of output
    rows of about BAND_BYTES, one stack entry at a time, so that a
    band's operands stay in cache (a 128^2 grid is one band).  Every tap
    is one flat run over the band: along x the band's padded rows,
    W + 2 radius wide, into an accumulator of that width whose first W
    columns are copied out (the other 2 radius mix a row with the next
    one and are dropped); along y the padded rows shifted by whole rows.
    Every output entry still sees the same products added in the same
    order, so the result is bitwise that of the unbanded whole-array
    loop over 2-D slices.

    out, if given, is a C-contiguous float64 buffer for the result and
    may be u itself (each pass reads only its padded copy).  scratch, if
    given, is a flat float64 buffer of at least
    smoothing_scratch_size(u.shape, sigma) entries.
    """
    _check_sigma(sigma)
    if sigma == 0:
        if out is None:
            return u.copy()
        np.copyto(out, u)
        return out
    k = gaussian_kernel(sigma)
    radius = (len(k) - 1) // 2
    if out is None:
        out = np.empty(u.shape, dtype=u.dtype)
    if scratch is None:
        scratch = np.empty(smoothing_scratch_size(u.shape, sigma), dtype=u.dtype)
    _convolve_axis(u, k, radius, -1, out, scratch)
    _convolve_axis(out, k, radius, -2, out, scratch)
    return out


def _along(axis: int, *bounds) -> tuple:
    """An index that takes slice(*bounds) along axis -1 or -2."""
    index = slice(*bounds)
    return (Ellipsis, index) if axis == -1 else (Ellipsis, index, slice(None))


def _pad_symmetric(u, radius, axis, padded):
    """np.pad(u, radius, mode="symmetric") along axis, written into padded."""
    n = u.shape[axis]
    flip = _along(axis, None, None, -1)
    padded[_along(axis, radius, radius + n)] = u
    if radius > n:
        # Mirror the part written so far outward on both sides, each step
        # at most its width, so every mirror lies a multiple of n from u.
        lo, hi = radius, radius + n
        while lo:
            step = min(lo, hi - lo)
            padded[_along(axis, lo - step, lo)] = padded[_along(axis, lo, lo + step)][flip]
            padded[_along(axis, hi, hi + step)] = padded[_along(axis, hi - step, hi)][flip]
            lo, hi = lo - step, hi + step
        return
    reverse = u[flip]
    padded[_along(axis, radius)] = reverse[_along(axis, n - radius, None)]
    padded[_along(axis, radius + n, None)] = reverse[_along(axis, radius)]


def _convolve_axis(u, k, radius, axis, out, scratch):
    """One pass of convolve_gaussian from u into out, which may be u; the
    padded copy and the band buffers go into scratch."""
    h, w = u.shape[-2:]
    # Tap t reads a band's flat padded rows shifted by t entries (x) or t
    # rows (y); along x the accumulator has the padded row width.
    width, shift = (w + 2 * radius, 1) if axis == -1 else (w, w)
    pshape = u.shape[:-2] + ((h, width) if axis == -1 else (h + 2 * radius, w))
    size = math.prod(pshape)
    rows = _band_rows(h, w)
    band_size = rows * (w + 2 * radius)
    padded = scratch[:size].reshape(pshape)
    _pad_symmetric(u, radius, axis, padded)
    acc = scratch[size : size + band_size].reshape(rows, width) if axis == -1 else None
    term = scratch[size + band_size : size + 2 * band_size]
    for entry in np.ndindex(u.shape[:-2]):
        source = padded[entry].reshape(-1)
        for top in range(0, h, rows):
            band = out[entry][top : top + rows]
            if axis == -1:
                run = acc[: len(band)].reshape(-1)[: len(band) * width - 2 * radius]
            else:
                run = band.reshape(-1)
            run.fill(0.0)
            _add_taps(run, source[top * width :], k, shift, term)
            if axis == -1:
                band[...] = acc[: len(band), :w]
    return out


def _add_taps(acc, source, k, shift, term):
    """acc += k[t] * source[t * shift:][:acc.size], t in order, through term;
    acc, source and term are flat."""
    n = acc.size
    term = term[:n]
    for t, weight in enumerate(k):
        np.multiply(weight, source[t * shift : t * shift + n], out=term)
        acc += term


def bilinear_sample(f: np.ndarray, sx: np.ndarray, sy: np.ndarray) -> np.ndarray:
    """Sample a scalar grid at fractional coordinates, clamped to the domain."""
    h, w = f.shape
    sx = np.clip(sx, 0.0, float(w - 1))
    sy = np.clip(sy, 0.0, float(h - 1))
    x0 = np.clip(np.floor(sx).astype(np.int64), 0, max(w - 2, 0))
    y0 = np.clip(np.floor(sy).astype(np.int64), 0, max(h - 2, 0))
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = sx - x0
    fy = sy - y0
    top = (1.0 - fx) * f[y0, x0] + fx * f[y0, x1]
    bottom = (1.0 - fx) * f[y1, x0] + fx * f[y1, x1]
    return (1.0 - fy) * top + fy * bottom


def warp_bilinear(f: np.ndarray, displacement: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """Resample f at x + scale*displacement(x) with bilinear interpolation.

    Sample coordinates outside the domain clamp to the nearest valid
    pixel, which avoids spurious border residuals in the solvers.
    """
    if f.shape != displacement.shape[:2]:
        raise ValueError("image and displacement shapes do not match")
    ys, xs = np.indices(f.shape, dtype=np.float64)
    return bilinear_sample(f, xs + scale * displacement[..., 0], ys + scale * displacement[..., 1])
