"""Residual-to-weight map."""

import numpy as np
import pytest

from adaptreg.adaptive import (
    AdaptiveParams,
    residual_to_nu,
    weight_fields,
)
from adaptreg.grid import convolve_gaussian, smoothing_scratch_size
from adaptreg.prox import shrink
from adaptreg.synth import Splitmix64
from helpers import assert_same_bits, weight_fields_reference


def test_zero_residual_has_full_confidence():
    p = AdaptiveParams(beta=0.7, alpha=0.0)
    nu = residual_to_nu(np.zeros((4, 4)), p)
    assert np.all(nu == 1.0)


def test_residual_equal_beta_decays_to_inv_e():
    p = AdaptiveParams(beta=0.3, alpha=0.0)
    nu = residual_to_nu(np.full((2, 2), 0.3), p)
    assert np.allclose(nu, np.exp(-1.0), atol=1e-15)


def test_nu_matches_exp_oracle():
    rng = Splitmix64(300)
    rho = rng.uniforms(64).reshape(8, 8) * 2.0
    p = AdaptiveParams(beta=0.45, alpha=0.1)
    nu = residual_to_nu(rho, p)
    assert np.allclose(nu, np.exp(-rho / 0.45), atol=1e-15)


def test_nu_smoothing_matches_convolution_oracle():
    rng = Splitmix64(301)
    rho = rng.uniforms(100).reshape(10, 10)
    p = AdaptiveParams(beta=0.5, alpha=0.0, smoothing_sigma=1.5)
    nu = residual_to_nu(rho, p)
    ref = np.exp(-convolve_gaussian(rho, 1.5) / 0.5)
    assert np.array_equal(nu, ref)


def test_negative_residual_rejected():
    p = AdaptiveParams(beta=1.0, alpha=0.0)
    with pytest.raises(ValueError):
        residual_to_nu(np.array([[-0.1]]), p)


def test_nu_to_lambda_shrinks():
    # weight_fields maps nu to lambda = max(nu - alpha, 0) by shrink
    assert shrink(np.array(1.0), 0.01) == 0.99
    assert shrink(np.array(0.005), 0.01) == 0.0
    assert shrink(np.array(0.01), 0.01) == 0.0


def test_weight_fields_range_and_complement():
    rng = Splitmix64(302)
    rho = rng.uniforms(256).reshape(16, 16) * 4.0
    alpha = 0.05
    p = AdaptiveParams(beta=0.8, alpha=alpha, smoothing_sigma=1.0)
    lam = weight_fields(rho, p)
    assert np.all(lam >= 0.0)
    assert np.all(lam <= 1.0 - alpha)
    # the regularizer weight 1 - lambda never drops below alpha
    assert np.all(1.0 - lam >= alpha)


def test_weight_fields_monotone_in_residual():
    # a pointwise larger residual can only lower lambda
    rng = Splitmix64(303)
    rho = rng.uniforms(64).reshape(8, 8)
    p = AdaptiveParams(beta=0.6, alpha=0.02)
    lam_small = weight_fields(rho, p)
    lam_big = weight_fields(rho + 0.5, p)
    assert np.all(lam_big <= lam_small + 1e-15)


def test_weight_fields_huge_residual_floors_at_zero():
    p = AdaptiveParams(beta=0.1, alpha=0.01)
    lam = weight_fields(np.full((3, 3), 50.0), p)
    assert np.all(lam == 0.0)
    assert np.all(1.0 - lam == 1.0)


def test_weight_fields_constant_mode_ignores_residual():
    rng = Splitmix64(304)
    rho = rng.uniforms(36).reshape(6, 6) * 3.0
    p = AdaptiveParams(beta=1.0, alpha=0.01, constant_lambda=0.35)
    lam = weight_fields(rho, p)
    assert type(lam) is float and lam == 0.35
    assert 1.0 - lam == 0.65


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize("name", ["beta", "smoothing_sigma"])
def test_params_reject_non_finite(name, value):
    with pytest.raises(ValueError, match=name):
        AdaptiveParams(**{"beta": 1.0, "alpha": 0.1, name: value})


def test_params_validation():
    with pytest.raises(ValueError):
        AdaptiveParams(beta=0.0, alpha=0.1)
    with pytest.raises(ValueError):
        AdaptiveParams(beta=-1.0, alpha=0.1)
    with pytest.raises(ValueError):
        AdaptiveParams(beta=1.0, alpha=1.0)
    with pytest.raises(ValueError):
        AdaptiveParams(beta=1.0, alpha=-0.01)
    with pytest.raises(ValueError):
        AdaptiveParams(beta=1.0, alpha=0.1, smoothing_sigma=-0.5)
    with pytest.raises(ValueError):
        AdaptiveParams(beta=1.0, alpha=0.1, constant_lambda=1.5)
    # boundary values are legal
    AdaptiveParams(beta=1.0, alpha=0.0, constant_lambda=0.0)
    AdaptiveParams(beta=1.0, alpha=0.99, constant_lambda=1.0)


@pytest.mark.parametrize("sigma", [0.0, 1.0, 2.0])
@pytest.mark.parametrize("shape", [(3, 4), (31, 47), (128, 128)], ids=["3x4", "31x47", "128x128"])
def test_weight_fields_writes_into_given_buffers(shape, sigma):
    # Buffers full of NaN, as a reused workspace slot may hold; on the
    # 3x4 grid the radius-6 pad reflects more than once.
    rho = Splitmix64(71).uniforms(shape[0] * shape[1]).reshape(shape) * 2.0
    params = AdaptiveParams(beta=0.05, alpha=0.1, smoothing_sigma=sigma)
    size = max(rho.size, smoothing_scratch_size(shape, sigma))
    out = np.full(shape, np.nan)
    lam = weight_fields(rho, params, out=out, scratch=np.full(size, np.nan))
    assert lam is out
    assert_same_bits(lam, weight_fields_reference(rho, params))
