"""Differential operators, convolution, and interpolation."""

import tracemalloc

import numpy as np
import pytest

from adaptreg.grid import (
    bilinear_sample,
    central_gradient,
    convolve_gaussian,
    divergence,
    gaussian_kernel,
    gradient,
    laplacian,
    scalar_grid,
    vector_grid,
    warp_bilinear,
)
from adaptreg.synth import Splitmix64


def rand_grid(rng, h, w):
    return rng.normals(h * w).reshape(h, w)


def test_gradient_of_constant_is_zero():
    u = np.full((7, 9), 3.25)
    assert np.array_equal(gradient(u), np.zeros((7, 9, 2)))


def test_gradient_forward_difference_1x2():
    g = gradient(np.array([[0.0, 3.0]]))
    assert g[0, 0, 0] == 3.0
    assert g[0, 1, 0] == 0.0
    assert np.all(g[..., 1] == 0.0)


def test_gradient_matches_loop_oracle():
    rng = Splitmix64(100)
    u = rand_grid(rng, 8, 8)
    g = gradient(u)
    for y in range(8):
        for x in range(8):
            gx = u[y, x + 1] - u[y, x] if x < 7 else 0.0
            gy = u[y + 1, x] - u[y, x] if y < 7 else 0.0
            assert g[y, x, 0] == gx
            assert g[y, x, 1] == gy
    # a stack, also one seen through a non-contiguous view: each slice is
    # the gradient of its own grid
    for stack in (rng.normals(3 * 56).reshape(3, 7, 8), rng.normals(2 * 40).reshape(5, 8, 2)):
        for view in (stack, np.moveaxis(stack, -1, 0)):
            gs = gradient(view)
            assert gs.shape == view.shape + (2,)
            for i in range(view.shape[0]):
                assert np.array_equal(gs[i], gradient(view[i]))
    for shape in ((2, 1, 5), (2, 5, 1), (2, 1, 1)):
        s = rng.normals(int(np.prod(shape))).reshape(shape)
        assert np.array_equal(gradient(s), np.stack([gradient(s[0]), gradient(s[1])]))


def test_divergence_of_zero_is_zero():
    assert np.array_equal(divergence(np.zeros((5, 6, 2))), np.zeros((5, 6)))


def test_divergence_is_negative_adjoint_of_gradient():
    rng = Splitmix64(101)
    for _ in range(100):
        u = rand_grid(rng, 16, 16)
        p = rng.normals(512).reshape(16, 16, 2)
        lhs = float(np.sum(gradient(u) * p))
        rhs = float(np.sum(u * divergence(p)))
        assert abs(lhs + rhs) <= 1e-10 * (
            np.linalg.norm(u) * np.linalg.norm(p) + 1.0
        )
    # a stack of fields: each slice is the divergence of its own field
    ps = rng.normals(3 * 512).reshape(3, 16, 16, 2)
    d = divergence(ps)
    assert d.shape == (3, 16, 16)
    for i in range(3):
        assert np.array_equal(d[i], divergence(ps[i]))
        u = rand_grid(rng, 16, 16)
        lhs = float(np.sum(gradient(u) * ps[i]))
        rhs = float(np.sum(u * d[i]))
        assert abs(lhs + rhs) <= 1e-10 * (np.linalg.norm(u) * np.linalg.norm(ps[i]) + 1.0)


def test_divergence_of_constant_horizontal_field():
    c = 1.75
    p = np.zeros((6, 8, 2))
    p[..., 0] = c
    d = divergence(p)
    # Backward difference of a constant vanishes in the interior; the
    # boundary terms carry the adjointness bookkeeping.
    assert np.all(d[:, 1:-1] == 0.0)
    assert np.all(d[:, 0] == c)
    assert np.all(d[:, -1] == -c)


def test_laplacian_equals_div_grad_bitwise():
    rng = Splitmix64(102)
    for _ in range(10):
        u = rand_grid(rng, 12, 10)
        assert np.array_equal(laplacian(u), divergence(gradient(u)))


@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (5, 1), (2, 2), (2, 3, 7, 9)])
def test_laplacian_equals_div_grad_on_thin_grids_and_stacks(shape):
    rng = Splitmix64(108)
    u = rng.normals(int(np.prod(shape))).reshape(shape)
    u[..., ::3, ::2] = -0.0
    lap, ref = laplacian(u), divergence(gradient(u))
    assert np.array_equal(lap, ref)
    assert np.array_equal(np.signbit(lap), np.signbit(ref))


def test_laplacian_five_point_stencil_on_delta():
    u = np.zeros((7, 7))
    u[3, 3] = 1.0
    lap = laplacian(u)
    assert lap[3, 3] == -4.0
    for dy, dx in ((0, 1), (0, -1), (1, 0), (-1, 0)):
        assert lap[3 + dy, 3 + dx] == 1.0


def test_laplacian_of_constant_is_zero():
    assert np.array_equal(laplacian(np.full((5, 5), 2.0)), np.zeros((5, 5)))


def test_convolve_sigma_zero_is_identity():
    rng = Splitmix64(103)
    u = rand_grid(rng, 9, 9)
    out = convolve_gaussian(u, 0.0)
    assert np.array_equal(out, u)
    assert out is not u


def test_convolve_preserves_constants():
    u = np.full((16, 16), 0.6)
    for sigma in (0.5, 1.0, 3.0):
        assert np.allclose(convolve_gaussian(u, sigma), 0.6, atol=1e-12)


def test_convolve_impulse_center_matches_kernel_oracle():
    sigma = 1.0
    radius = int(np.ceil(3.0 * sigma))
    taps = np.exp(-np.arange(-radius, radius + 1) ** 2 / (2.0 * sigma**2))
    taps /= taps.sum()
    u = np.zeros((15, 15))
    u[7, 7] = 1.0
    out = convolve_gaussian(u, sigma)
    assert abs(out[7, 7] - taps[radius] ** 2) <= 1e-12
    assert abs(out[7, 8] - taps[radius] * taps[radius + 1]) <= 1e-12


def test_convolve_preserves_mean():
    rng = Splitmix64(104)
    u = rand_grid(rng, 20, 14)
    for sigma in (0.7, 2.0):
        out = convolve_gaussian(u, sigma)
        assert abs(out.mean() - u.mean()) <= 1e-10 * (1.0 + abs(u.mean()))
    # a stack is smoothed slice by slice, bitwise, also when the kernel
    # radius exceeds the grid
    for shape in ((3, 20, 14), (2, 3, 2)):
        stack = rng.normals(int(np.prod(shape))).reshape(shape)
        for sigma in (0.0, 0.7, 2.0):
            out = convolve_gaussian(stack, sigma)
            for i in range(shape[0]):
                assert np.array_equal(out[i], convolve_gaussian(stack[i], sigma))



def test_convolve_peak_memory():
    # The second pass holds the first pass's output, its padded copy
    # (1.02 fields at sigma 2 on 512^2), the accumulator and the one
    # reusable term buffer: 4.02 fields.  The bound leaves no room for a
    # full-size temporary per tap.
    rng = Splitmix64(106)
    u = rand_grid(rng, 512, 512)
    tracemalloc.start()
    try:
        convolve_gaussian(u, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * u.nbytes

def test_gaussian_kernel_normalized():
    for sigma in (0.5, 1.5, 4.0):
        k = gaussian_kernel(sigma)
        assert k.size == 2 * int(np.ceil(3.0 * sigma)) + 1
        assert abs(k.sum() - 1.0) <= 1e-12


def test_warp_zero_displacement_is_identity():
    rng = Splitmix64(105)
    f = rand_grid(rng, 8, 8)
    assert np.array_equal(warp_bilinear(f, np.zeros((8, 8, 2))), f)


def test_warp_integer_shift_is_exact():
    rng = Splitmix64(106)
    f = rand_grid(rng, 6, 6)
    disp = np.zeros((6, 6, 2))
    disp[..., 0] = 1.0
    out = warp_bilinear(f, disp)
    assert np.array_equal(out[:, :-1], f[:, 1:])


def test_warp_half_pixel_averages_on_ramp():
    f = np.tile(np.arange(6.0), (4, 1))
    disp = np.zeros((4, 6, 2))
    disp[..., 0] = 0.5
    out = warp_bilinear(f, disp)
    assert np.allclose(out[:, :-1], f[:, :-1] + 0.5, atol=1e-12)


def test_warp_scale_argument():
    rng = Splitmix64(107)
    f = rand_grid(rng, 6, 6)
    disp = np.zeros((6, 6, 2))
    disp[..., 0] = 2.0
    assert np.array_equal(
        warp_bilinear(f, disp, scale=0.5), warp_bilinear(f, 0.5 * disp)
    )


def test_warp_out_of_range_clamps():
    f = np.array([[1.0, 2.0], [3.0, 4.0]])
    disp = np.full((2, 2, 2), 50.0)
    out = warp_bilinear(f, disp)
    assert np.all(out == 4.0)


def test_bilinear_sample_matches_hand_values():
    f = np.array([[0.0, 1.0], [2.0, 3.0]])
    assert bilinear_sample(f, np.array([0.5]), np.array([0.5]))[0] == 1.5
    assert bilinear_sample(f, np.array([1.0]), np.array([0.0]))[0] == 1.0


def test_central_gradient_interior_and_border():
    f = np.tile(np.arange(5.0) ** 2, (3, 1))
    g = central_gradient(f)
    assert g[1, 2, 0] == (f[1, 3] - f[1, 1]) / 2.0
    assert g[1, 0, 0] == f[1, 1] - f[1, 0]
    assert g[1, 4, 0] == f[1, 4] - f[1, 3]


def test_scalar_grid_rejects_non_finite():
    with pytest.raises(ValueError):
        scalar_grid(np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError):
        scalar_grid(np.array([[1.0, np.inf]]))


def test_scalar_grid_rejects_wrong_rank():
    with pytest.raises(ValueError):
        scalar_grid(np.zeros((2, 2, 2)))


@pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)])
def test_grids_reject_zero_size(shape):
    with pytest.raises(ValueError, match="empty"):
        scalar_grid(np.zeros(shape))
    with pytest.raises(ValueError, match="empty"):
        vector_grid(np.zeros(shape + (2,)))


@pytest.mark.parametrize("sigma", [np.inf, np.nan, -0.5])
def test_convolve_gaussian_rejects_bad_sigma(sigma):
    with pytest.raises(ValueError, match="finite"):
        convolve_gaussian(np.zeros((4, 4)), sigma)


def test_vector_grid_rejects_wrong_shape():
    with pytest.raises(ValueError):
        vector_grid(np.zeros((4, 4)))
    with pytest.raises(ValueError):
        vector_grid(np.array([[[np.nan, 0.0]]]))
