"""Differential operators, convolution, and interpolation."""

import math
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
    smoothing_scratch_size,
    vector_grid,
    warp_bilinear,
)
from adaptreg.synth import Splitmix64
from helpers import assert_same_bits, divergence_reference, gradient_reference, laplacian_reference


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


# (3, 130, 131) takes divergence's interior y differences in four
# chunks of BAND_BYTES, the last one short.
STENCIL_SHAPES = ((1, 1), (1, 9), (9, 1), (2, 2), (7, 9), (8, 8), (128, 128), (3, 7, 9), (2, 3, 7, 9),
                  (3, 130, 131))
EDGE_VALUES = (-0.0, math.inf, 0.0, -math.inf, math.nan, -0.0, 1.5)


def stencil_field(shape, seed, zeros):
    """Normal noise, or only +-0.0 when zeros is set, with a third of the
    entries +-0.0 either way, and -0.0, +-inf or NaN in the first and last
    column of every row: a row-end entry that a flat run does not
    overwrite leaks into the next row's start."""
    rng = Splitmix64(seed)
    n = int(np.prod(shape))
    u = np.where(rng.uniforms(n) < 0.5, 0.0, -0.0) if zeros else rng.normals(n)
    u = np.where(rng.uniforms(n) < 0.33, np.copysign(0.0, rng.normals(n)), u).reshape(shape)
    rows = np.arange(int(np.prod(shape[:-1]))).reshape(shape[:-1])
    u[..., 0] = np.take(EDGE_VALUES, rows % len(EDGE_VALUES))
    u[..., -1] = np.take(EDGE_VALUES, (rows + 3) % len(EDGE_VALUES))
    return u


@pytest.mark.parametrize("zeros", [False, True], ids=["noise", "zeros"])
@pytest.mark.parametrize("layout", ["c", "component-first"])
@pytest.mark.parametrize("shape", STENCIL_SHAPES, ids=["x".join(map(str, s)) for s in STENCIL_SHAPES])
def test_stencils_match_frozen_formulas(shape, layout, zeros):
    # The flat-run stencils against the slice-by-slice formulas, on
    # C-ordered fields and on the np.moveaxis views flow hands them: a
    # component-first (2, H, W) view of an (H, W, 2) field, and an
    # (..., H, W, 2) view of a component-first stack.
    if layout == "c":
        u = stencil_field(shape, 130, zeros)
        p = stencil_field(shape + (2,), 131, zeros)
    else:
        u = np.moveaxis(stencil_field(shape[-2:] + (2,), 130, zeros), -1, 0)
        p = np.moveaxis(stencil_field((2,) + shape, 131, zeros), 0, -1)
        if shape[-2:] != (1, 1):
            assert not u.flags.c_contiguous and not p.flags.c_contiguous
    with np.errstate(all="ignore"):
        assert_same_bits(gradient(u), gradient_reference(u))
        assert_same_bits(laplacian(u), laplacian_reference(u))
        assert_same_bits(divergence(p), divergence_reference(p))


@pytest.mark.parametrize("layout", ["c", "component-first"])
@pytest.mark.parametrize("shape", STENCIL_SHAPES, ids=["x".join(map(str, s)) for s in STENCIL_SHAPES])
def test_stencils_write_into_given_buffers(shape, layout):
    # Buffers full of NaN, as a reused workspace slot may hold; the
    # gradient goes into interleaved and into component-planar memory.
    u = stencil_field(shape, 132, False)
    p = stencil_field(shape + (2,), 133, False)
    if layout == "component-first":
        p = np.moveaxis(np.ascontiguousarray(np.moveaxis(p, -1, 0)), 0, -1)
    size = u.size
    with np.errstate(all="ignore"):
        ref = gradient_reference(u)
        for out in (np.full(shape + (2,), np.nan), np.moveaxis(np.full((2,) + shape, np.nan), 0, -1)):
            assert gradient(u, out=out) is out
            assert_same_bits(out, ref)
        out = divergence(p, out=np.full(shape, np.nan), scratch=np.full(size, np.nan))
        assert_same_bits(out, divergence_reference(p))
        out = laplacian(u, out=np.full(shape, np.nan), scratch=np.full(2 * size, np.nan))
        assert_same_bits(out, laplacian_reference(u))


@pytest.mark.parametrize(
    "op, shape, bound",
    [
        # The output alone: the two components are written straight into it.
        (gradient, (512, 512), 2.05),
        # The output and the scratch of BAND_BYTES that takes the
        # interior y differences.
        (divergence, (512, 512, 2), 1.11),
        # The output, the x buffer (which then takes the interior y
        # differences) and the y differences.
        (laplacian, (512, 512), 3.05),
    ],
    ids=["gradient", "divergence", "laplacian"],
)
def test_stencil_peak_memory(op, shape, bound):
    # Measured 2.00, 1.06 and 3.00 fields of 512^2: one more field-sized
    # temporary fails the bound.
    x = Splitmix64(109).normals(int(np.prod(shape))).reshape(shape)
    field = 512 * 512 * x.itemsize
    tracemalloc.start()
    try:
        op(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * field


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
    # (1.02 fields at sigma 2 on 512^2), the accumulator and the term
    # buffer of one band of rows (0.06 fields): 3.09 fields.  The bound
    # leaves no room for a field-sized term buffer, let alone a full-size
    # temporary per tap.
    rng = Splitmix64(106)
    u = rand_grid(rng, 512, 512)
    tracemalloc.start()
    try:
        convolve_gaussian(u, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.3 * u.nbytes


def test_narrow_field_smoothing_peak_memory():
    # Along x, a 70000x1 field at sigma 2 mirrors its one column 6 times
    # on each side.  With out and scratch given, the mirror steps' copies
    # peak at 3.0 fields; np.pad's padded array and its own temporaries
    # took 19.
    u = rand_grid(Splitmix64(110), 70000, 1)
    out = np.empty_like(u)
    scratch = np.empty(smoothing_scratch_size(u.shape, 2.0))
    tracemalloc.start()
    try:
        convolve_gaussian(u, 2.0, out=out, scratch=scratch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.0 * u.nbytes


def test_gaussian_kernel_normalized():
    for sigma in (0.5, 1.5, 4.0):
        k = gaussian_kernel(sigma)
        assert k.size == 2 * int(np.ceil(3.0 * sigma)) + 1
        assert abs(k.sum() - 1.0) <= 1e-12


@pytest.mark.filterwarnings("error")
def test_gaussian_kernel_of_sigma_zero_is_the_identity_tap():
    k = gaussian_kernel(0.0)
    assert k.dtype == np.float64 and np.array_equal(k, [1.0])
    u = rand_grid(Splitmix64(107), 5, 4)
    assert np.array_equal(convolve_gaussian(u, 0.0), u)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("sigma", [-0.5, -5e-324, -math.inf, math.inf, math.nan])
def test_gaussian_kernel_rejects_negative_or_non_finite_sigma(sigma):
    with pytest.raises(ValueError, match="sigma"):
        gaussian_kernel(sigma)


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
