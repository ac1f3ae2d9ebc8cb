"""The single-pass pointwise kernels against their frozen textbook formulas.

huber, huber_vec, envelope_at, shrink, shrink_vec and the separable
Gaussian must
equal the formulas in helpers bitwise, sign of zero included, on every
layout the solvers hand them.  The Gaussian is also checked on fields
large enough for its banded loop.  NaN must land on the same entries; its
payload may differ.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from adaptreg.grid import (
    BAND_BYTES,
    _convolve_axis,
    convolve_gaussian,
    gaussian_kernel,
    smoothing_scratch_size,
)
from adaptreg.prox import envelope_at, huber, huber_vec, shrink, shrink_vec, vector_norm
from adaptreg.synth import Splitmix64
from helpers import (
    assert_same_bits,
    convolve_axis_reference,
    convolve_gaussian_reference,
    envelope_reference,
    huber_reference,
    huber_vec_reference,
    shrink_reference,
    shrink_vec_reference,
)

SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, math.inf, -math.inf, math.nan)
ELEMENTS = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(-3.0, 3.0),
    st.floats(allow_nan=True, allow_infinity=True),
)
# Huber thresholds and shrink steps: the solvers' values, extremes, and
# subnormals.
THRESHOLDS = st.one_of(
    st.sampled_from((0.08, 0.16, 0.5, 1.0, 5e-324, 1e300, math.inf)),
    st.floats(min_value=5e-324, max_value=1e6),
)
LAYOUTS = ("0-d", "1-D", "grid", "stack", "component-first")

KERNEL_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def fields(draw, vector, mu=None):
    """An array in one of the layouts the solvers use.  Vector fields end
    in a length-2 component axis; the 0-d layout of a vector field is a
    single 2-vector.  The component-first layout is the non-contiguous
    moveaxis view the flow solver hands its component stack around in.
    With mu given, a few entries (vectors) sit exactly on |x| = mu."""
    layout = draw(st.sampled_from(LAYOUTS))
    n, h, w = draw(st.integers(1, 3)), draw(st.integers(1, 6)), draw(st.integers(1, 6))
    tail = (2,) if vector else ()
    shape = {
        "0-d": (),
        "1-D": (n * w,),
        "grid": (h, w, 2),
        "stack": (n, h, w, 2),
        "component-first": (h, w, 2),
    }[layout] + tail
    x = draw(hnp.arrays(np.float64, shape, elements=ELEMENTS))
    if mu is not None:
        cells = x.reshape(-1, 2) if vector else x.reshape(-1)
        for i in draw(st.lists(st.integers(0, len(cells) - 1), max_size=3)):
            kink = draw(st.sampled_from((mu, -mu)))
            if vector:
                cells[i] = (kink, 0.0) if draw(st.booleans()) else (0.0, kink)
            else:
                cells[i] = kink
    if layout == "component-first":
        x = np.moveaxis(x, 2, 0)
    return x


@KERNEL_SETTINGS
@given(data=st.data(), vector=st.booleans(), mu=THRESHOLDS)
def test_huber_matches_frozen_formula(data, vector, mu):
    x = data.draw(fields(vector, mu))
    kernel, reference = (huber_vec, huber_vec_reference) if vector else (huber, huber_reference)
    before = x.copy()
    with np.errstate(all="ignore"):
        assert_same_bits(kernel(x, mu), reference(x, mu))
    assert np.array_equal(x, before, equal_nan=True)


@KERNEL_SETTINGS
@given(data=st.data(), t=THRESHOLDS)
def test_shrink_vec_matches_frozen_formula(data, t):
    v = data.draw(fields(vector=True))
    before = v.copy()
    with np.errstate(all="ignore"):
        assert_same_bits(shrink_vec(v, t), shrink_vec_reference(v, t))
    assert np.array_equal(v, before, equal_nan=True)


@KERNEL_SETTINGS
@given(data=st.data(), scalar_t=THRESHOLDS)
def test_shrink_matches_frozen_formula_with_broadcast_threshold(data, scalar_t):
    x = data.draw(fields(vector=False))
    # t is a scalar or an array that broadcasts against x, possibly to a
    # larger shape than x's own
    t_shape = data.draw(st.one_of(st.none(), hnp.broadcastable_shapes(x.shape, max_dims=x.ndim + 1)))
    if t_shape is None:
        t = scalar_t
    else:
        t = data.draw(hnp.arrays(np.float64, t_shape, elements=st.one_of(ELEMENTS, THRESHOLDS)))
    with np.errstate(all="ignore"):
        assert_same_bits(shrink(x, t), shrink_reference(x, t))


@KERNEL_SETTINGS
@given(data=st.data(), mu=THRESHOLDS)
def test_envelope_at_matches_frozen_formula_with_broadcast_r(data, mu):
    x = data.draw(fields(vector=False))
    # r is a scalar or an array that broadcasts against x, possibly to a
    # larger shape than x's own
    r_shape = data.draw(st.one_of(st.none(), hnp.broadcastable_shapes(x.shape, max_dims=x.ndim + 1)))
    if r_shape is None:
        r = data.draw(ELEMENTS)
    else:
        r = data.draw(hnp.arrays(np.float64, r_shape, elements=ELEMENTS))
    x_before = x.copy()
    r_before = np.copy(r)
    with np.errstate(all="ignore"):
        assert_same_bits(envelope_at(x, r, mu), envelope_reference(x, r, mu))
    assert np.array_equal(x, x_before, equal_nan=True)
    assert np.array_equal(r, r_before, equal_nan=True)


def test_scalar_inputs_give_python_floats():
    for x in (0.25, -0.0, np.float64(3.0), np.array(-2.0)):
        assert type(huber(x, 1.0)) is float
        assert type(shrink(x, 0.5)) is float
        assert type(envelope_at(x, 0.5, 1.0)) is float
    assert type(huber_vec(np.array([3.0, 4.0]), 1.0)) is float
    assert huber_vec(np.array([3.0, 4.0]), 1.0) == 4.5
    assert shrink_vec(np.array([3.0, 4.0]), 1.0).shape == (2,)
    assert shrink(-0.5, 1.0) == 0.0 and math.copysign(1.0, shrink(-0.5, 1.0)) == -1.0


@st.composite
def scalar_stacks(draw):
    """(..., H, W) grids: one grid, a stack, or the component-first view."""
    layout = draw(st.sampled_from(("grid", "stack", "component-first")))
    n, h, w = draw(st.integers(1, 3)), draw(st.integers(1, 9)), draw(st.integers(1, 9))
    if layout == "component-first":
        return np.moveaxis(draw(hnp.arrays(np.float64, (h, w, 2), elements=ELEMENTS)), -1, 0)
    shape = (h, w) if layout == "grid" else (n, h, w)
    return draw(hnp.arrays(np.float64, shape, elements=ELEMENTS))


@KERNEL_SETTINGS
@given(u=scalar_stacks(), sigma=st.sampled_from((0.0, 0.3, 0.7, 1.5, 2.0)), axis=st.sampled_from((-1, -2)))
def test_convolve_matches_frozen_formula(u, sigma, axis):
    with np.errstate(all="ignore"):
        if sigma > 0:
            assert_convolve_axis_matches(u, sigma, axis)
        assert_same_bits(convolve_gaussian(u, sigma), convolve_gaussian_reference(u, sigma))


def assert_convolve_axis_matches(u, sigma, axis):
    """One smoothing pass into NaN-filled buffers against the frozen formula."""
    k = gaussian_kernel(sigma)
    radius = (len(k) - 1) // 2
    out = _convolve_axis(u, k, radius, axis, garbage(u.shape), garbage(smoothing_scratch_size(u.shape, sigma)))
    assert_same_bits(out, convolve_axis_reference(u, k, radius, axis))


def _banded_field(shape, seed, component_first=False):
    """Normal noise with +-0.0, +-inf and NaN on the first and last rows
    of the first two bands of rows, where neighboring bands meet.  The
    zero rows run the full width but for a non-finite entry inside and
    at both ends, so the sum of their products keeps the sign of zero
    the accumulator gives it away from those entries.  Along x a band's
    rows are one flat run, so a row-end value read past its row would
    leak into the next row."""
    if component_first:
        shape = shape[1:] + shape[:1]
    u = Splitmix64(seed).normals(int(np.prod(shape))).reshape(shape)
    if component_first:
        u = np.moveaxis(u, -1, 0)
    h, w = u.shape[-2:]
    rows = max(1, BAND_BYTES // (w * u.itemsize))
    edges = sorted({min(r, h - 1) for r in (0, rows - 1, rows, 2 * rows - 1, 2 * rows, h - 1)})
    for i, y in enumerate(edges):
        u[..., y, :] = (0.0, -0.0)[i % 2]
        x = (37 * i) % w
        u[..., y, x] = (math.inf, -math.inf, math.nan)[i % 3]
        u[..., y, 0] = (-math.inf, math.nan, math.inf)[i % 3]
        u[..., y, -1] = (math.nan, math.inf, -math.inf)[i % 3]
    return u


@pytest.mark.parametrize(
    "shape, sigma, component_first",
    [
        ((512, 512), 2.0, False),
        ((512, 512), 20.0, False),  # radius 60 spans more than a band
        ((4, 128, 128), 1.5, False),  # one band per label
        ((2, 260, 513), 1.5, False),
        ((2, 260, 513), 1.5, True),
        ((1, 70000), 2.0, False),
        ((70000, 1), 2.0, False),
    ],
)
def test_banded_convolve_matches_frozen_formula(shape, sigma, component_first):
    u = _banded_field(shape, 120, component_first)
    assert u.nbytes > BAND_BYTES  # more than one band
    with np.errstate(all="ignore"):
        for axis in (-1, -2):
            assert_convolve_axis_matches(u, sigma, axis)
        assert_same_bits(convolve_gaussian(u, sigma), convolve_gaussian_reference(u, sigma))


def garbage(shape):
    """A buffer full of NaN, as a reused workspace slot may hold."""
    return np.full(shape, np.nan)


def planar(shape):
    """An (..., 2) buffer full of NaN whose components are contiguous."""
    return np.moveaxis(garbage((2,) + shape[:-1]), 0, -1)


@KERNEL_SETTINGS
@given(data=st.data(), vector=st.booleans(), mu=THRESHOLDS)
def test_huber_writes_into_given_buffers(data, vector, mu):
    x = data.draw(fields(vector, mu))
    with np.errstate(all="ignore"):
        if vector:
            ref = huber_vec_reference(x, mu)
            shape = x.shape[:-1]
            norm = vector_norm(x)
            before = norm.copy()
            assert_same_bits(huber_vec(x, mu, out=garbage(shape), scratch=garbage(shape)), ref)
            assert_same_bits(huber_vec(x, mu, norm=norm, out=garbage(shape), scratch=garbage(shape)), ref)
            assert_same_bits(norm, before)
        else:
            ref = huber_reference(x, mu)
            assert_same_bits(huber(x, mu, out=garbage(x.shape), scratch=garbage(x.shape)), ref)


@KERNEL_SETTINGS
@given(data=st.data(), t=THRESHOLDS)
def test_shrinks_write_into_given_buffers(data, t):
    x = data.draw(fields(vector=False))
    v = data.draw(fields(vector=True))
    with np.errstate(all="ignore"):
        ref = shrink_reference(x, t)
        assert_same_bits(shrink(x, t, out=garbage(x.shape), scratch=garbage(x.shape)), ref)
        # in place: the signs go to the scratch before out is written
        y = np.array(x)
        assert_same_bits(shrink(y, t, out=y, scratch=garbage(x.shape)), ref)
        ref = shrink_vec_reference(v, t)
        for out in (garbage(v.shape), planar(v.shape)):
            assert_same_bits(shrink_vec(v, t, out=out), ref)
            assert_same_bits(shrink_vec(v, t, norm=vector_norm(v), out=garbage(v.shape)), ref)
        assert_same_bits(shrink_vec(v, t, norm=vector_norm(v)), ref)


@KERNEL_SETTINGS
@given(data=st.data(), mu=THRESHOLDS)
def test_envelope_at_writes_into_given_buffers(data, mu):
    x = data.draw(fields(vector=False))
    r = data.draw(hnp.arrays(np.float64, x.shape, elements=ELEMENTS))
    with np.errstate(all="ignore"):
        ref = envelope_reference(x, r, mu)
        out = envelope_at(x, r, mu, out=garbage(x.shape), scratch=garbage(x.shape))
        assert_same_bits(out, ref)
        # in place: x is read only by the first, elementwise step
        y = np.array(x)
        assert_same_bits(envelope_at(y, r, mu, out=y), ref)
        assert_same_bits(y, np.asarray(ref))


@KERNEL_SETTINGS
@given(u=scalar_stacks(), sigma=st.sampled_from((0.0, 0.3, 0.7, 1.5, 2.0)))
def test_convolve_writes_into_given_buffers(u, sigma):
    # Grids up to 9 wide take radii up to 6, so some pads reflect more
    # than once.
    scratch = garbage(smoothing_scratch_size(u.shape, sigma))
    with np.errstate(all="ignore"):
        ref = convolve_gaussian_reference(u, sigma)
        assert_same_bits(convolve_gaussian(u, sigma, out=garbage(u.shape), scratch=scratch), ref)
        # in place: each pass reads only its padded copy
        w = np.array(u)
        assert convolve_gaussian(w, sigma, out=w, scratch=scratch) is w
        assert_same_bits(w, ref)
