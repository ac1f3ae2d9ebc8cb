"""Proximal kernels: Huber loss, soft shrinkage, and the label-stack projection.

All operations accept scalars or numpy arrays and broadcast pointwise.
The Huber loss is the Moreau-Yosida envelope of the absolute value,

    phi_mu(x) = inf_r { |r| + (x - r)^2 / (2 mu) },

whose minimizer is the soft shrinkage T(x | mu).  A brute-force
minimizer of the envelope is provided as an independent oracle for that
identity.
"""

from __future__ import annotations

import numpy as np


def huber(x, mu: float):
    """Huber loss: x^2/(2 mu) for |x| <= mu, |x| - mu/2 beyond."""
    if mu <= 0:
        raise ValueError("huber threshold must be positive")
    x = np.asarray(x, dtype=np.float64)
    ax = np.abs(x)
    out = np.where(ax <= mu, x * x / (2.0 * mu), ax - mu / 2.0)
    return out if out.ndim else float(out)


def huber_vec(v, mu: float):
    """Huber loss of the Euclidean norm of 2-vectors (last axis)."""
    v = np.asarray(v, dtype=np.float64)
    return huber(np.sqrt(np.sum(v * v, axis=-1)), mu)


def shrink(x, t):
    """Soft shrinkage T(x | t): move x toward zero by t, clipping at zero."""
    x = np.asarray(x, dtype=np.float64)
    out = np.sign(x) * np.maximum(np.abs(x) - t, 0.0)
    return out if out.ndim else float(out)


def shrink_vec(v, t: float):
    """Isotropic shrinkage of 2-vectors: v * max(0, 1 - t/|v|)."""
    v = np.asarray(v, dtype=np.float64)
    norm = np.sqrt(np.sum(v * v, axis=-1))
    # Guard the 0/0 at v = 0; the factor is 0 there anyway.
    factor = np.maximum(0.0, 1.0 - t / np.where(norm > 0.0, norm, 1.0))
    return v * factor[..., None]


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
