"""Huber penalties, shrinkage, and simplex projections."""

import tracemalloc
import warnings

import numpy as np
import pytest

from adaptreg.prox import (
    envelope_at,
    huber,
    huber_prox,
    huber_prox_vec,
    huber_vec,
    project_stack_sum_to_one,
    shrink,
    shrink_vec,
)
from adaptreg.synth import Splitmix64
from helpers import (
    assert_same_bits,
    huber_prox_reference,
    huber_prox_vec_reference,
    moreau_envelope_bruteforce,
)


def test_huber_quadratic_branch():
    assert huber(0.0, 1.0) == 0.0
    assert huber(0.5, 1.0) == 0.125
    assert huber(-0.5, 1.0) == 0.125


def test_huber_linear_branch():
    # |x| - mu/2 for |x| > mu
    assert huber(2.0, 1.0) == 1.5
    assert huber(-3.0, 0.5) == 2.75


def test_huber_branches_agree_at_kink():
    for mu in (0.1, 1.0, 3.7):
        assert abs(huber(mu, mu) - mu / 2.0) <= 1e-15


def test_huber_scalar_input_gives_float():
    out = huber(0.25, 1.0)
    assert isinstance(out, float)


def test_huber_midpoint_convexity():
    rng = Splitmix64(200)
    for _ in range(100):
        a, b = (rng.uniforms(2) * 6.0 - 3.0)
        mu = rng.uniforms(1)[0] * 2.0 + 0.05
        mid = huber(0.5 * (a + b), mu)
        assert mid <= 0.5 * (huber(a, mu) + huber(b, mu)) + 1e-12


def test_huber_rejects_nonpositive_mu():
    with pytest.raises(ValueError):
        huber(1.0, 0.0)
    with pytest.raises(ValueError):
        huber(1.0, -0.2)


def test_huber_vec_values():
    v = np.zeros((1, 1, 2))
    assert huber_vec(v, 1.0)[0, 0] == 0.0
    v = np.array([[[3.0, 4.0]]])
    assert huber_vec(v, 1.0)[0, 0] == 4.5


def test_huber_vec_rotation_invariance():
    rng = Splitmix64(201)
    v = rng.normals(32).reshape(4, 4, 2)
    ang = 1.1
    c, s = np.cos(ang), np.sin(ang)
    rot = np.stack(
        (c * v[..., 0] - s * v[..., 1], s * v[..., 0] + c * v[..., 1]), axis=-1
    )
    assert np.allclose(huber_vec(rot, 0.3), huber_vec(v, 0.3), atol=1e-12)


def test_shrink_values():
    assert shrink(3.0, 1.0) == 2.0
    assert shrink(-3.0, 1.0) == -2.0
    assert shrink(0.5, 1.0) == 0.0
    assert shrink(1.0, 1.0) == 0.0


def test_shrink_threshold_zero_is_identity():
    rng = Splitmix64(202)
    x = rng.normals(64)
    assert np.array_equal(shrink(x, 0.0), x)


def test_shrink_is_odd_and_nonexpansive():
    rng = Splitmix64(203)
    x = rng.normals(200) * 3.0
    y = rng.normals(200) * 3.0
    t = 0.7
    assert np.allclose(shrink(-x, t), -shrink(x, t), atol=0.0)
    assert np.all(np.abs(shrink(x, t) - shrink(y, t)) <= np.abs(x - y) + 1e-15)


def test_shrink_vec_values():
    v = np.array([[[3.0, 4.0]]])
    out = shrink_vec(v, 1.0)
    # magnitude 5 shrinks to 4, direction kept
    assert np.allclose(out, v * (4.0 / 5.0), atol=1e-15)
    assert np.array_equal(shrink_vec(np.zeros((2, 2, 2)), 1.0), np.zeros((2, 2, 2)))


def test_shrink_vec_kills_short_vectors():
    v = np.array([[[0.1, 0.2]]])
    assert np.array_equal(shrink_vec(v, 1.0), np.zeros((1, 1, 2)))


def test_moreau_envelope_matches_huber():
    rng = Splitmix64(204)
    xs = rng.uniforms(200) * 6.0 - 3.0
    mus = rng.uniforms(200) * 1.95 + 0.05
    step = 1e-4
    for x, mu in zip(xs, mus):
        val, arg = moreau_envelope_bruteforce(float(x), float(mu), step)
        assert abs(val - huber(float(x), float(mu))) <= 2.0 * step
        assert abs(arg - shrink(float(x), float(mu))) <= 2.0 * step


def test_envelope_at_its_minimizer_is_huber():
    rng = Splitmix64(205)
    x = rng.uniforms(200) * 6.0 - 3.0
    mu = 0.16
    r = shrink(x, mu)
    assert np.allclose(envelope_at(x, r, mu), huber(x, mu), rtol=1e-14, atol=1e-15)
    # any other r gives a larger value
    assert np.all(envelope_at(x, r + 0.01, mu) > huber(x, mu))


def test_moreau_envelope_rejects_bad_step():
    with pytest.raises(ValueError):
        moreau_envelope_bruteforce(1.0, 1.0, 0.0)


def test_project_sum_to_one_symmetric_example():
    out = project_stack_sum_to_one(np.zeros((2, 1, 1)))
    assert out[0, 0, 0] == 0.5
    assert out[1, 0, 0] == 0.5


def test_project_sum_to_one_fixed_point():
    a = np.array([[0.2, 0.9]])
    stack = np.stack([a, 1.0 - a])
    out = project_stack_sum_to_one(stack)
    assert np.allclose(out, stack, atol=1e-15)


def test_project_sum_to_one_sums_to_one():
    rng = Splitmix64(205)
    stack = rng.normals(5 * 24).reshape(5, 4, 6)
    out = project_stack_sum_to_one(stack)
    assert np.allclose(out.sum(axis=0), 1.0, atol=1e-12)


def test_project_sum_to_one_idempotent():
    rng = Splitmix64(206)
    once = project_stack_sum_to_one(rng.normals(3 * 16).reshape(3, 4, 4))
    twice = project_stack_sum_to_one(once)
    assert np.allclose(once, twice, atol=1e-14)


def test_project_sum_to_one_moves_along_ones():
    # Euclidean projection onto the affine constraint shifts every plane
    # by the same per-pixel amount.
    rng = Splitmix64(207)
    stack = rng.normals(4 * 9).reshape(4, 3, 3)
    shifts = project_stack_sum_to_one(stack) - stack
    for s in shifts[1:]:
        assert np.allclose(s, shifts[0], atol=1e-12)


def test_project_sum_to_one_into_a_head_keeps_the_last_layer():
    # An out of n - 1 layers takes their projection, with the correction
    # of all n; written over the stack's own head, the last layer stays.
    rng = Splitmix64(208)
    stack = rng.normals(4 * 12).reshape(4, 3, 4)
    full = project_stack_sum_to_one(stack)
    last = stack[-1].copy()
    head = project_stack_sum_to_one(stack, out=stack[:-1])
    assert head.shape == (3, 3, 4)
    assert_same_bits(stack[:-1], full[:-1])
    assert_same_bits(stack[-1], last)


def test_project_sum_to_one_empty_raises():
    with pytest.raises(ValueError):
        project_stack_sum_to_one(np.zeros((0, 2, 2)))


def peak_bytes(kernel, *args):
    """Peak of the memory traced while kernel(*args) runs, result included."""
    tracemalloc.start()
    try:
        kernel(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_kernels_peak_memory():
    # Peaks in units of one 512^2 scalar field (2 MiB), result included:
    # huber holds |x|, x^2/(2 mu), the branch mask (1/8) and the result,
    # 3.13; huber_vec the norm, the same square and mask, and the result,
    # 3.13; envelope_at the result and |r|, 2.0; shrink |x| and sign(x),
    # 2.0; shrink_vec the norm and the 2-field result, 3.0.  Each bound
    # leaves less than one field of room.
    rng = Splitmix64(209)
    v = rng.normals(512 * 512 * 2).reshape(512, 512, 2)
    x = np.ascontiguousarray(v[..., 0])
    field = x.nbytes
    assert peak_bytes(huber, x, 0.08) <= 3.5 * field
    assert peak_bytes(huber_vec, v, 0.08) <= 3.5 * field
    assert peak_bytes(envelope_at, x, np.ascontiguousarray(v[..., 1]), 0.08) <= 2.5 * field
    assert peak_bytes(shrink, x, 0.08) <= 2.5 * field
    assert peak_bytes(shrink_vec, v, 0.08) <= 3.5 * field


def _prox_objective(d, x, t, mu):
    """t phi_mu(|d|) + |d - x|^2 / 2 over the last axis of 2-vectors d."""
    norm = np.sqrt(np.sum(d * d, axis=-1))
    return t * huber(norm, mu) + 0.5 * np.sum((d - x) ** 2, axis=-1)


PROX_CASES = [(x, t, mu) for x in (0.0, 0.03, -0.07, 0.2, -0.45, 1.3)
              for t in (0.0, 0.02, 0.3, 1.0) for mu in (0.08, 0.5)]


def test_huber_prox_minimizes_its_objective_by_brute_force():
    # 1-D: a dense grid of step 1e-5 around x; t = 0 (lambda = 1) and
    # x = 0 included, where the prox is x itself and 0.
    step = 1e-5
    for x, t, mu in PROX_CASES:
        grid = x + step * np.arange(-150000, 150001)
        objective = t * huber(grid, mu) + 0.5 * (grid - x) ** 2
        best = grid[np.argmin(objective)]
        d = huber_prox(x, t, mu)
        assert isinstance(d, float)
        assert abs(d - best) <= step
        assert t * huber(d, mu) + 0.5 * (d - x) ** 2 <= objective.min() + 1e-15


def test_huber_prox_vec_minimizes_its_objective_by_brute_force():
    # 2-D: a 601 x 601 grid around v, then one of step 1e-5 around its
    # best point.
    rng = Splitmix64(230)
    for x, t, mu in PROX_CASES:
        angle = 2.0 * np.pi * rng.uniforms(1)[0]
        v = x * np.array([np.cos(angle), np.sin(angle)])
        center = v
        for step in (5e-3, 1e-5):
            offsets = step * np.arange(-300, 301)
            d = np.stack(np.meshgrid(center[0] + offsets, center[1] + offsets, indexing="ij"), axis=-1)
            objective = _prox_objective(d, v, t, mu)
            center = d.reshape(-1, 2)[np.argmin(objective)]
        d = huber_prox_vec(v, t, mu)
        assert np.max(np.abs(d - center)) <= 2e-5
        assert _prox_objective(d, v, t, mu) <= objective.min() + 1e-15


def test_huber_prox_keeps_x_at_t_zero_and_zero_at_x_zero_without_warnings():
    # t = 0 is a full-fidelity weight (lambda = 1): the factor is exactly
    # 1.  At x = 0 the factor is finite, since max(|x|, mu + t) > 0, so
    # no 0/0 and no inf ever forms.
    x = np.array([0.0, -0.0, 0.3, -2.0, 5e-324])
    v = np.array([[0.0, 0.0], [-0.0, 0.0], [0.3, -0.4], [5e-324, 0.0]])
    with warnings.catch_warnings(), np.errstate(divide="raise", invalid="raise", over="raise"):
        warnings.simplefilter("error")
        assert_same_bits(huber_prox(x, 0.0, 0.08), x)
        assert_same_bits(huber_prox_vec(v, 0.0, 0.08), v)
        t = np.array([0.0, 0.5, 2.0, 0.1, 0.0])
        assert_same_bits(huber_prox(x, t, 0.08), x * (1.0 - t / np.maximum(np.abs(x), 0.08 + t)))
        assert_same_bits(huber_prox(np.zeros(3), np.array([0.0, 0.5, 1e300]), 0.08), np.zeros(3))
        zeros = huber_prox_vec(np.array([[0.0, -0.0]]), 0.7, 0.08)
        assert_same_bits(zeros, np.array([[0.0, -0.0]]))


@pytest.mark.parametrize("layout", ["interleaved", "planar"])
def test_huber_prox_kernels_match_frozen_formulas_with_a_threshold_field(layout):
    # A (K, H, W, 2) field against an (H, W) threshold t, with the
    # buffers the linear-data state hands them; NaN stays NaN.
    rng = Splitmix64(231)
    g = rng.normals(2 * 2 * 5 * 6).reshape(2, 5, 6, 2) * 0.3
    g[0, 0, 0] = 0.0
    g[1, 2, 3, 1] = np.nan
    if layout == "planar":
        g = np.moveaxis(np.ascontiguousarray(np.moveaxis(g, -1, 0)), 0, -1)
    t = rng.uniforms(30).reshape(5, 6) * 0.5
    t[0, :2] = 0.0
    knee = np.empty((5, 6))
    out = np.empty_like(g)
    huber_prox_vec(g, t, 0.08, out=out, scratch=np.empty((2, 5, 6)), knee=knee)
    assert_same_bits(out, huber_prox_vec_reference(g, t, 0.08))
    first = np.moveaxis(g, -1, 0)
    d = huber_prox(first, t, 0.08, scratch=np.empty(first.shape), knee=knee)
    assert_same_bits(d, huber_prox_reference(first, t, 0.08))
    assert_same_bits(huber_prox(g, 0.2, 0.08), huber_prox_reference(g, 0.2, 0.08))
