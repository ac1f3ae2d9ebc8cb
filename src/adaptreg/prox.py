"""Proximal kernels: Huber loss, soft shrinkage, and the label-stack projection.

The Huber loss is the Moreau-Yosida envelope of the absolute value,

    phi_mu(x) = inf_r { |r| + (x - r)^2 / (2 mu) },

whose minimizer is the soft shrinkage T(x | mu).  A brute-force
minimizer of the envelope is provided as an independent oracle for that
identity.

Kernel contract of huber, huber_vec, shrink and shrink_vec:

* the two components of a 2-vector field (last axis) are read directly,
  never reduced over, and every intermediate is written with out= into
  one of a few output-sized buffers instead of a fresh temporary;
* the result is bitwise equal, sign of zero included, to the textbook
  formula evaluated with full-size temporaries (NaN stays NaN, its
  payload may differ);
* a scalar or 0-d input gives a Python float, arrays broadcast
  pointwise, and the threshold t of shrink may be an array that
  broadcasts against x.
"""

from __future__ import annotations

import numpy as np


def _norm(v: np.ndarray) -> np.ndarray:
    """sqrt(v_0^2 + v_1^2) over the last axis, as a fresh (...,) array."""
    v0 = v[..., 0]
    v1 = v[..., 1]
    norm = np.multiply(v0, v0, out=np.empty(v.shape[:-1]))
    norm += v1 * v1
    return np.sqrt(norm, out=norm)


def _huber(x: np.ndarray, ax: np.ndarray, mu: float) -> np.ndarray:
    """Huber loss of x given its magnitude ax; ax is overwritten and may
    be x itself (it is read as x before it is written)."""
    if mu <= 0:
        raise ValueError("huber threshold must be positive")
    quadratic = ax <= mu
    sq = x * x
    sq /= 2.0 * mu
    ax -= mu / 2.0
    return np.where(quadratic, sq, ax)


def huber(x, mu: float):
    """Huber loss: x^2/(2 mu) for |x| <= mu, |x| - mu/2 beyond."""
    x = np.asarray(x, dtype=np.float64)
    out = _huber(x, np.abs(x), mu)
    return out if out.ndim else float(out)


def huber_vec(v, mu: float):
    """Huber loss of the Euclidean norm of 2-vectors (last axis)."""
    norm = _norm(np.asarray(v, dtype=np.float64))
    # |norm| is norm itself
    out = _huber(norm, norm, mu)
    return out if out.ndim else float(out)


def shrink(x, t):
    """Soft shrinkage T(x | t): move x toward zero by t, clipping at zero."""
    x = np.asarray(x, dtype=np.float64)
    out = np.abs(x, out=np.empty(np.broadcast_shapes(x.shape, np.shape(t))))
    out -= t
    np.maximum(out, 0.0, out=out)
    np.multiply(np.sign(x), out, out=out)
    return out if out.ndim else float(out)


def shrink_vec(v, t: float):
    """Isotropic shrinkage of 2-vectors: v * max(0, 1 - t/|v|)."""
    v = np.asarray(v, dtype=np.float64)
    factor = _norm(v)
    # Guard the 0/0 at v = 0; the factor is 0 there anyway.
    np.copyto(factor, 1.0, where=~(factor > 0.0))
    np.divide(t, factor, out=factor)
    np.subtract(1.0, factor, out=factor)
    np.maximum(0.0, factor, out=factor)
    out = np.empty(v.shape)
    np.multiply(v[..., 0], factor, out=out[..., 0])
    np.multiply(v[..., 1], factor, out=out[..., 1])
    return out


def moreau_envelope_bruteforce(x: float, mu: float, grid_step: float):
    """Brute-force minimization of |r| + (x - r)^2/(2 mu) over a dense r grid.

    Returns (value, argmin).  Serves as the oracle that the envelope
    equals huber(x, mu) and the minimizer equals shrink(x, mu).
    """
    if grid_step <= 0:
        raise ValueError("grid step must be positive")
    hi = abs(x) + mu
    n = int(np.floor(2.0 * hi / grid_step)) + 1
    r = -hi + grid_step * np.arange(n + 1, dtype=np.float64)
    values = np.abs(r) + (x - r) ** 2 / (2.0 * mu)
    i = int(np.argmin(values))
    return float(values[i]), float(r[i])


def project_stack_sum_to_one(arr: np.ndarray) -> np.ndarray:
    """Euclidean projection of a (n, H, W) stack onto {sum_i v_i(x) = 1}.

    Subtracts (sum_i v_i - 1)/n from every layer pointwise.
    """
    n = arr.shape[0]
    if n == 0:
        raise ValueError("empty label stack")
    correction = (arr.sum(axis=0) - 1.0) / n
    return arr - correction[None, ...]
