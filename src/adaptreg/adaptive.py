"""Residual-driven regularization weights.

The data-fit residual rho(x) >= 0 is mapped to a confidence field

    nu = exp(-(G_sigma * rho) / beta),        nu in (0, 1],

and then to a fidelity weight lambda = max(nu - alpha, 0) by soft
shrinkage.  Pixels that the current model explains well (small
residual) get lambda near 1 - alpha and little smoothing; pixels with
large residual hand their weight 1 - lambda to the regularizer.  The
shrinkage keeps 1 - lambda in [alpha, 1], so the regularizer never
switches off entirely.

Setting ``constant_lambda`` bypasses the residual entirely and yields
the classical constant-weight model used as a baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import convolve_gaussian
from .prox import shrink


@dataclass
class AdaptiveParams:
    """Parameters of the residual -> weight map.

    Attributes
    ----------
    beta : float
        Decay scale of the confidence map; larger beta tolerates larger
        residuals before the fidelity weight drops.
    alpha : float
        Shrinkage offset in [0, 1); also the guaranteed floor of the
        regularization weight 1 - lambda.
    smoothing_sigma : float
        Standard deviation of the Gaussian applied to the residual
        before the exponential; 0 disables smoothing.
    constant_lambda : float or None
        If set, lambda is this constant everywhere and the residual is
        ignored (constant-regularization baseline).
    """

    beta: float
    alpha: float
    smoothing_sigma: float = 0.0
    constant_lambda: float | None = None

    def __post_init__(self):
        if not 0.0 < self.beta < math.inf:
            raise ValueError("beta must be positive and finite")
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError("alpha must lie in [0, 1)")
        if not 0.0 <= self.smoothing_sigma < math.inf:
            raise ValueError("smoothing_sigma must be nonnegative and finite")
        if self.constant_lambda is not None and not 0.0 <= self.constant_lambda <= 1.0:
            raise ValueError("constant_lambda must lie in [0, 1]")


def residual_to_nu(rho: np.ndarray, params: AdaptiveParams) -> np.ndarray:
    """Confidence field nu = exp(-(G_sigma * rho)/beta) from a residual."""
    rho = np.asarray(rho, dtype=np.float64)
    if np.any(rho < 0):
        raise ValueError("residual must be nonnegative")
    nu = convolve_gaussian(rho, params.smoothing_sigma)
    np.negative(nu, out=nu)
    nu /= params.beta
    return np.exp(nu, out=nu)


def nu_to_lambda(nu: np.ndarray, alpha: float) -> np.ndarray:
    """Fidelity weight lambda = max(nu - alpha, 0)."""
    return shrink(nu, alpha)


def weight_fields(rho: np.ndarray, params: AdaptiveParams) -> np.ndarray:
    """Fidelity weight lambda for a residual field; the regularizer
    weight is 1 - lambda.

    With ``constant_lambda`` set the residual only fixes the output
    shape; otherwise lambda follows the residual pointwise.
    """
    rho = np.asarray(rho, dtype=np.float64)
    if params.constant_lambda is not None:
        return np.full_like(rho, float(params.constant_lambda))
    return nu_to_lambda(residual_to_nu(rho, params), params.alpha)
