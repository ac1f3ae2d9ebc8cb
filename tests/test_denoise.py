"""Denoising: per-step updates against closed forms, and solver-level
behavior (fixed points, energy descent under heavy damping, GD oracle)."""

import numpy as np
import pytest

from adaptreg import denoise
from adaptreg.adaptive import AdaptiveParams
from adaptreg.denoise import (
    DenoiseState,
    run_denoise,
    update_u,
    update_v,
)
from adaptreg.grid import divergence, gradient
from adaptreg.prox import huber, huber_vec, moreau_envelope_bruteforce, shrink, shrink_vec
from adaptreg.solver import SolverParams
from adaptreg.synth import Splitmix64, add_gaussian_noise, biased_noise_image
from adaptreg.metrics import ssim
from helpers import assemble_screened_matrix, huber_reference, huber_vec_reference, make_scene


def adaptive_defaults(**kw):
    ap = kw.pop("adaptive", AdaptiveParams(beta=1.0, alpha=0.01))
    base = dict(mu=0.16, eta=0.08, theta=1.0, adaptive=ap)
    base.update(kw)
    return SolverParams(**base)


def random_state(seed, n=6, params=None):
    rng = Splitmix64(seed)
    p = params or adaptive_defaults()
    st = DenoiseState(rng.uniforms(n * n).reshape(n, n), p)
    st.u = rng.normals(n * n).reshape(n, n) * 0.3 + 0.5
    st.v = rng.normals(n * n).reshape(n, n) * 0.3 + 0.5
    st.w = rng.normals(n * n).reshape(n, n) * 0.1
    st.r = rng.normals(n * n).reshape(n, n) * 0.1
    st.z = rng.normals(n * n * 2).reshape(n, n, 2) * 0.2
    st.lam = rng.uniforms(n * n).reshape(n, n) * 0.99
    return st


def test_constant_image_is_fixed_point():
    f = np.full((16, 16), 0.37)
    u, hist = run_denoise(f, adaptive_defaults(max_iters=150))
    assert len(hist) == 1
    assert hist[0].iter == 1
    assert hist[0].primal_residual == 0.0
    assert np.array_equal(u, f)


def test_zero_iterations_leaves_input():
    rng = Splitmix64(500)
    f = rng.uniforms(64).reshape(8, 8)
    u, hist = run_denoise(f, adaptive_defaults(max_iters=0))
    assert np.array_equal(u, f)
    assert hist == []


def test_rejects_non_finite_input():
    f = np.full((4, 4), 0.5)
    f[1, 1] = np.nan
    with pytest.raises(ValueError):
        run_denoise(f, adaptive_defaults())


def test_update_r_minimizes_the_envelope():
    st = random_state(502, n=3)
    residual = st.f - st.u
    st.iterate()
    r = st.r
    assert np.array_equal(r, shrink(residual, st.params.mu))
    # each entry is the argmin of |r| + (x - r)^2 / (2 mu)
    for x, ri in zip(residual.ravel(), r.ravel()):
        _, arg = moreau_envelope_bruteforce(float(x), st.params.mu, 1e-4)
        assert abs(ri - arg) <= 2e-4


def test_update_u_solves_pointwise_equation():
    st = random_state(503, n=8)
    p = st.params
    u = update_u(st, p)
    lhs = (st.lam + p.mu * p.theta) * u
    rhs = p.mu * p.theta * (st.v - st.w) + st.lam * (st.f - st.r)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_update_u_lambda_zero_is_bitwise_passthrough():
    st = random_state(504)
    st.lam = np.zeros_like(st.lam)
    assert np.array_equal(update_u(st, st.params), st.v - st.w)


def test_update_u_agreeing_targets_short_circuit():
    st = random_state(505)
    st.r = np.zeros_like(st.r)
    st.w = np.zeros_like(st.w)
    st.v = st.f.copy()  # both targets equal f
    assert np.array_equal(update_u(st, st.params), st.f)



def frozen_energy(st):
    p = st.params
    data = st.lam * huber_reference(st.f - st.u, p.mu)
    reg = (1.0 - st.lam) * huber_vec_reference(gradient(st.v), p.eta)
    return float(np.sum(data) + np.sum(reg))


def test_energy_matches_frozen_formula():
    st = random_state(311, n=9)
    assert st.energy() == frozen_energy(st)


def smoothed_state():
    f = biased_noise_image(make_scene(16), 0.2, seed=3)
    ap = AdaptiveParams(beta=0.05, alpha=0.1, smoothing_sigma=1.0)
    return DenoiseState(f, adaptive_defaults(adaptive=ap))


def test_energy_reads_the_gradient_of_the_current_v():
    st = smoothed_state()
    for _ in range(5):
        v = st.v
        st.iterate()
        assert st.v is not v
        assert st.energy() == frozen_energy(st)
        assert st.energy() == frozen_energy(st)


def test_assigning_v_invalidates_the_gradient_cache():
    st = smoothed_state()
    st.iterate()
    st.energy()
    st.v = 2.0 * st.v + 0.25
    assert st.energy() == frozen_energy(st)
    v = st.v.copy()
    st.iterate()
    # the z-step shrinks the gradient of the v assigned above
    assert np.array_equal(st.z, shrink_vec(gradient(v), st.params.eta))


def test_gradient_computed_once_per_iteration(monkeypatch):
    st = smoothed_state()
    calls = []

    def counted(u):
        calls.append(u)
        return gradient(u)

    monkeypatch.setattr(denoise, "gradient", counted)
    per_iteration = []
    for _ in range(5):
        before = len(calls)
        st.iterate()
        st.energy()
        per_iteration.append(len(calls) - before)
    # the first iteration also differentiates the initial v
    assert per_iteration == [2, 1, 1, 1, 1]


def test_update_v_full_fidelity_skips_smoothing():
    st = random_state(506)
    st.lam = np.ones_like(st.lam)  # xi = 0
    assert np.array_equal(update_v(st, st.params), st.u + st.w)


def test_update_v_keeps_constants():
    p = adaptive_defaults(adaptive=AdaptiveParams(beta=1.0, alpha=0.01, constant_lambda=0.5))
    st = DenoiseState(np.full((5, 5), 0.4), p)
    st.lam = np.full((5, 5), 0.5)
    st.w = np.zeros((5, 5))
    assert np.array_equal(update_v(st, p), st.u)


def test_update_v_matches_dense_solve():
    st = random_state(507, n=8, params=adaptive_defaults(gs_sweeps=500))
    p = st.params
    v = update_v(st, p)
    xi = (1.0 - st.lam) / (p.eta * p.theta)
    rhs = st.u + st.w - xi * divergence(st.z)
    ref = np.linalg.solve(assemble_screened_matrix(xi), rhs.ravel()).reshape(8, 8)
    assert float(np.sqrt(np.mean((v - ref) ** 2))) <= 1e-6


def test_matches_gradient_descent_on_constant_weight_model():
    # Independent minimizer of the same composite objective: plain
    # gradient descent on lam*phi_mu(f-u) + (1-lam)*phi_eta(|grad u|).
    rng = Splitmix64(11)
    f = rng.uniforms(256).reshape(16, 16)
    lam0, mu, eta = 0.5, 0.16, 0.08
    ap = AdaptiveParams(beta=1.0, alpha=0.01, constant_lambda=lam0)
    sp = SolverParams(
        mu=mu, eta=eta, theta=1.0, adaptive=ap,
        max_iters=1500, tol_primal=1e-12, gs_sweeps=40,
    )
    u_admm, _ = run_denoise(f, sp)

    def energy(u):
        return float(
            np.sum(lam0 * huber(f - u, mu))
            + np.sum((1.0 - lam0) * huber_vec(gradient(u), eta))
        )

    def grad_energy(u):
        g_data = -lam0 * np.clip((f - u) / mu, -1.0, 1.0)
        gu = gradient(u)
        norm = np.sqrt(np.sum(gu**2, axis=-1))
        scale = np.where(norm > eta, 1.0 / np.maximum(norm, 1e-300), 1.0 / eta)
        return g_data - (1.0 - lam0) * divergence(gu * scale[..., None])

    u_gd = f.copy()
    for _ in range(40000):
        u_gd -= 0.02 * grad_energy(u_gd)

    assert abs(energy(u_admm) - energy(u_gd)) <= 1e-10
    assert np.max(np.abs(u_admm - u_gd)) <= 1e-8


def test_denoising_improves_ssim_on_noisy_step():
    n = 128
    step = np.full((n, n), 0.25)
    step[:, n // 2 :] = 0.75
    rng = Splitmix64(7)
    noisy = np.clip(step + 0.16 * rng.normals(n * n).reshape(n, n), 0.0, 1.0)
    u, _ = run_denoise(noisy, adaptive_defaults(max_iters=300, tol_primal=1e-9))
    assert ssim(u, step) > ssim(noisy, step)


def _gate_images():
    step = np.where(np.arange(128)[None, :] < 64, 0.3, 0.7) * np.ones((128, 128))
    return {
        "step": add_gaussian_noise(step, 0.16, seed=7),
        "scene": biased_noise_image(
            make_scene(128), 0.3, bias_profile="half", seed=0
        ),
    }


@pytest.mark.parametrize(
    "image,const,theta",
    [
        ("step", None, 5.0),
        ("step", 0.2, 5.0),
        ("scene", None, 5.0),
        ("scene", 0.2, 5.0),
        ("scene", 0.5, 5.0),
        ("step", 0.5, 10.0),
    ],
)
def test_energy_descends_after_burn_in(image, const, theta):
    # With enough quadratic damping the tracked energy is non-increasing
    # once the weights have settled (first few iterations excluded).
    img = _gate_images()[image]
    ap = AdaptiveParams(beta=1.0, alpha=0.01, constant_lambda=const)
    sp = SolverParams(
        mu=0.16, eta=0.08, theta=theta, adaptive=ap,
        max_iters=150, tol_primal=1e-12,
    )
    u, hist = run_denoise(img, sp)
    energies = [r.energy for r in hist if r.iter >= 5]
    for a, b in zip(energies, energies[1:]):
        assert b <= a + 1e-8 * (1.0 + abs(a))
    # output stays within the input range up to a small overshoot
    assert u.min() >= img.min() - 0.1
    assert u.max() <= img.max() + 0.1


def test_residual_decreases_monotonically_under_heavy_damping():
    n = 128
    step = np.full((n, n), 0.25)
    step[:, n // 2 :] = 0.75
    rng = Splitmix64(7)
    noisy = np.clip(step + 0.16 * rng.normals(n * n).reshape(n, n), 0.0, 1.0)
    ap = AdaptiveParams(beta=1.0, alpha=0.01, constant_lambda=0.5)
    sp = SolverParams(
        mu=0.16, eta=0.08, theta=10.0, adaptive=ap,
        max_iters=500, tol_primal=1e-6,
    )
    _, hist = run_denoise(noisy, sp)
    res = [r.primal_residual for r in hist]
    for a, b in zip(res, res[1:]):
        assert b <= a
    assert res[-1] <= 1e-6


def test_quality_peaks_at_interior_constant_weight():
    clean = make_scene(64)
    noisy = add_gaussian_noise(clean, 0.16, seed=3)
    scores = []
    for lam0 in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
        ap = AdaptiveParams(beta=1.0, alpha=0.01, constant_lambda=lam0)
        sp = SolverParams(
            mu=0.16, eta=0.08, theta=1.0, adaptive=ap,
            max_iters=200, tol_primal=1e-9,
        )
        u, _ = run_denoise(noisy, sp)
        scores.append(ssim(u, clean))
    k = int(np.argmax(scores))
    assert 0 < k < len(scores) - 1
    assert all(scores[i] < scores[i + 1] for i in range(k))
    assert all(scores[i] > scores[i + 1] for i in range(k, len(scores) - 1))


def test_result_insensitive_to_inner_sweep_count():
    # An adaptive weight, so every v-step is a Gauss-Seidel solve (a
    # constant one takes the exact solve and ignores gs_sweeps).  Both
    # runs converge; their outputs differ in the last bits only.
    clean = make_scene(64)
    noisy = add_gaussian_noise(clean, 0.16, seed=3)
    out = {}
    for sweeps in (20, 100):
        ap = AdaptiveParams(beta=0.2, alpha=0.05, smoothing_sigma=1.0)
        sp = SolverParams(
            mu=0.16, eta=0.08, theta=1.0, adaptive=ap,
            max_iters=200, tol_primal=1e-9, gs_sweeps=sweeps,
        )
        u, hist = run_denoise(noisy, sp)
        assert hist[-1].primal_residual <= sp.tol_primal
        out[sweeps] = u
    assert not np.array_equal(out[20], out[100])
    assert abs(ssim(out[20], clean) - ssim(out[100], clean)) < 0.002


def test_run_is_deterministic():
    rng = Splitmix64(508)
    f = np.clip(rng.uniforms(1024).reshape(32, 32), 0.0, 1.0)
    sp = adaptive_defaults(max_iters=30, tol_primal=1e-12)
    u1, h1 = run_denoise(f, sp)
    u2, h2 = run_denoise(f, sp)
    assert np.array_equal(u1, u2)
    assert [(r.iter, r.energy, r.primal_residual) for r in h1] == [
        (r.iter, r.energy, r.primal_residual) for r in h2
    ]


def test_weights_stay_in_declared_range_during_run():
    rng = Splitmix64(509)
    f = rng.uniforms(1024).reshape(32, 32)
    alpha = 0.05
    seen = []
    ap = AdaptiveParams(beta=0.1, alpha=alpha, smoothing_sigma=1.0)
    sp = SolverParams(mu=0.16, eta=0.08, theta=1.0, adaptive=ap, max_iters=25, tol_primal=1e-12)
    run_denoise(f, sp, on_check=lambda st, rec: seen.append((st.lam.min(), st.lam.max())))
    assert seen
    for lo, hi in seen:
        assert lo >= 0.0
        assert hi <= 1.0 - alpha


def test_constant_mode_pins_weights():
    rng = Splitmix64(510)
    f = rng.uniforms(256).reshape(16, 16)
    ap = AdaptiveParams(beta=1.0, alpha=0.01, constant_lambda=0.3)
    sp = SolverParams(mu=0.16, eta=0.08, theta=1.0, adaptive=ap, max_iters=10, tol_primal=1e-12)
    box = []
    run_denoise(f, sp, on_check=lambda st, rec: box.append(st.lam))
    for lam in box:
        assert np.all(lam == 0.3)
