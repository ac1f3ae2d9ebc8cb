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
the classical constant-weight model used as a baseline; lambda is then
a float that broadcasts against every field.
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
        If set, lambda is this constant as a float and the residual is
        ignored (constant-regularization baseline).  Segmentation's
        v-step then gets a scalar xi, which screened_solve solves exactly
        by the DCT, as it solves every v-step of denoising and flow.
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


def residual_to_nu(
    rho: np.ndarray, params: AdaptiveParams, *, out=None, scratch=None
) -> np.ndarray:
    """Confidence field nu = exp(-(G_sigma * rho)/beta) from a residual;
    out and scratch go to convolve_gaussian."""
    rho = np.asarray(rho, dtype=np.float64)
    if np.any(rho < 0):
        raise ValueError("residual must be nonnegative")
    nu = convolve_gaussian(rho, params.smoothing_sigma, out=out, scratch=scratch)
    nu /= -params.beta
    return np.exp(nu, out=nu)


def weight_fields(
    rho: np.ndarray | None, params: AdaptiveParams, *, out=None, scratch=None
) -> np.ndarray | float:
    """Fidelity weight lambda for a residual field; the regularizer
    weight is 1 - lambda.

    With ``constant_lambda`` set, lambda is that constant as a float,
    which broadcasts against rho, and the residual is not read (it may
    be None); otherwise lambda is a field that follows the residual
    pointwise.  out, if an array, receives that field; any other out (as
    the float a constant-weight run leaves) gives a new field, so a state
    can pass its lambda whatever the weight was.  scratch, if given, is
    a flat float64 buffer of at least
    max(rho.size, smoothing_scratch_size(rho.shape, smoothing_sigma))
    entries for the smoothing and the shrink.
    """
    if params.constant_lambda is not None:
        return float(params.constant_lambda)
    if not isinstance(out, np.ndarray):
        out = None
    nu = residual_to_nu(rho, params, out=out, scratch=scratch)
    sign = None if scratch is None else scratch[: nu.size].reshape(nu.shape)
    return shrink(nu, params.alpha, out=nu, scratch=sign)
