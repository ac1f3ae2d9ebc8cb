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
"""

from __future__ import annotations

import math

import numpy as np


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


def gradient(u: np.ndarray) -> np.ndarray:
    """Forward-difference gradient of a scalar grid or a stack of them.

    (..., H, W) -> (..., H, W, 2): every leading index is a separate
    grid, with (grad u)_x(y, x) = u(y, x+1) - u(y, x) and
    (grad u)_y(y, x) = u(y+1, x) - u(y, x); the last column/row of each
    component is zero (replicate boundary).
    """
    g = np.zeros(u.shape + (2,), dtype=np.float64)
    g[..., :, :-1, 0] = u[..., :, 1:] - u[..., :, :-1]
    g[..., :-1, :, 1] = u[..., 1:, :] - u[..., :-1, :]
    return g


def divergence(p: np.ndarray) -> np.ndarray:
    """Discrete divergence, the negative adjoint of :func:`gradient`.

    Backward differences with the boundary convention that makes
    <grad u, p> + <u, div p> = 0 exactly for all u, p.  p may carry
    leading stack axes, (..., H, W, 2) -> (..., H, W).
    """
    h, w = p.shape[-3:-1]
    px = p[..., 0]
    py = p[..., 1]
    d = np.zeros(p.shape[:-1], dtype=np.float64)
    if w >= 2:
        d[..., :, 0] += px[..., :, 0]
        d[..., :, 1:-1] += px[..., :, 1:-1] - px[..., :, :-2]
        d[..., :, -1] -= px[..., :, -2]
    if h >= 2:
        d[..., 0, :] += py[..., 0, :]
        d[..., 1:-1, :] += py[..., 1:-1, :] - py[..., :-2, :]
        d[..., -1, :] -= py[..., -2, :]
    return d


def laplacian(u: np.ndarray) -> np.ndarray:
    """5-point Laplacian with Neumann boundary of a (..., H, W) stack.

    Bitwise equal to divergence(gradient(u)), without the (..., H, W, 2)
    gradient in between.  Along x it adds px(j) to zero and then
    subtracts px(j - 1), which rounds exactly like adding the difference
    px(j) - px(j - 1) to zero; along y the differences are added to the
    x part as divergence adds them.  Exactly zero on a constant grid.
    """
    h, w = u.shape[-2:]
    d = np.zeros(u.shape, dtype=np.float64)
    if w >= 2:
        px = u[..., :, 1:] - u[..., :, :-1]
        d[..., :, :-1] += px
        d[..., :, 1:] -= px
    if h >= 2:
        py = u[..., 1:, :] - u[..., :-1, :]
        d[..., 0, :] += py[..., 0, :]
        d[..., 1:-1, :] += py[..., 1:, :] - py[..., :-1, :]
        d[..., -1, :] -= py[..., -1, :]
    return d


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
    """Discrete Gaussian of standard deviation sigma, radius ceil(3*sigma), sum 1."""
    radius = math.ceil(3.0 * sigma)
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-(x * x) / (2.0 * sigma * sigma))
    return k / k.sum()


def convolve_gaussian(u: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian smoothing; sigma = 0 returns the input unchanged.

    u has shape (..., H, W); every leading index is a separate grid,
    smoothed exactly as it would be on its own.  The kernel is truncated
    at radius ceil(3*sigma) and renormalized to sum 1. Mirror padding
    keeps the mean of the field exactly preserved (the effective
    smoothing matrix is doubly stochastic).  sigma must be nonnegative
    and finite, else ValueError.
    """
    if not 0.0 <= sigma < math.inf:
        raise ValueError("sigma must be nonnegative and finite, got %r" % (sigma,))
    if sigma == 0:
        return u.copy()
    k = gaussian_kernel(sigma)
    radius = (len(k) - 1) // 2
    out = _convolve_axis(u, k, radius, axis=-1)
    out = _convolve_axis(out, k, radius, axis=-2)
    return out


def _convolve_axis(u, k, radius, axis):
    padding = [(0, 0)] * u.ndim
    padding[axis] = (radius, radius)
    padded = np.pad(u, padding, mode="symmetric")
    n = u.shape[axis]
    acc = np.zeros_like(u)
    term = np.empty_like(u)
    for t, weight in enumerate(k):
        if axis == -1:
            np.multiply(weight, padded[..., t : t + n], out=term)
        else:
            np.multiply(weight, padded[..., t : t + n, :], out=term)
        acc += term
    return acc


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
    h, w = f.shape
    ys, xs = np.meshgrid(
        np.arange(h, dtype=np.float64), np.arange(w, dtype=np.float64), indexing="ij"
    )
    return bilinear_sample(f, xs + scale * displacement[..., 0], ys + scale * displacement[..., 1])
