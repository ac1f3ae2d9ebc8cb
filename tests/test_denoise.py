"""Denoising: per-step updates against closed forms, and solver-level
behavior (fixed points, energy descent under heavy damping, a Newton
oracle)."""

import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from adaptreg import denoise
from adaptreg.adaptive import AdaptiveParams
from adaptreg.denoise import (
    DenoiseState,
    run_denoise,
    update_u,
    update_v_w,
)
from adaptreg.flow import FlowParams, FlowState
from adaptreg.grid import divergence, gradient
from adaptreg.prox import shrink
from adaptreg.solver import SolverParams, rms, run_admm
from adaptreg.segment import run_segment
from adaptreg.synth import (Splitmix64, add_gaussian_noise, biased_noise_image, noisy_rectangles, shifted_pair,
                            smooth_texture)
from adaptreg.metrics import ssim
from helpers import (
    adaptive_defaults,
    assemble_screened_matrix,
    assert_same_bits,
    denoise_energy_reference,
    denoise_iterate_reference,
    denoise_minimizer_reference,
    divergence_reference,
    gradient_reference,
    halfplane_params,
    make_scene,
    moreau_envelope_bruteforce,
    random_denoise_state,
    seg_params,
)


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
    st = random_denoise_state(502, n=3)
    residual = st.f - st.u
    st.iterate()
    r = st.r
    assert np.array_equal(r, shrink(residual, st.params.mu))
    # each entry is the argmin of |r| + (x - r)^2 / (2 mu)
    for x, ri in zip(residual.ravel(), r.ravel()):
        _, arg = moreau_envelope_bruteforce(float(x), st.params.mu, 1e-4)
        assert abs(ri - arg) <= 2e-4


def test_update_u_solves_pointwise_equation():
    st = random_denoise_state(503, n=8)
    p = st.params
    u = update_u(st, p)
    lhs = (st.lam + p.mu * p.theta) * u
    rhs = p.mu * p.theta * (st.v - st.w) + st.lam * (st.f - st.r)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_update_u_lambda_zero_is_bitwise_passthrough():
    st = random_denoise_state(504)
    st.lam = np.zeros_like(st.lam)
    assert np.array_equal(update_u(st, st.params), st.v - st.w)


def test_update_u_agreeing_targets_short_circuit():
    st = random_denoise_state(505)
    st.r = np.zeros_like(st.r)
    st.w = np.zeros_like(st.w)
    st.v = st.f.copy()  # both targets equal f
    assert np.array_equal(update_u(st, st.params), st.f)



def test_full_fidelity_z_step_keeps_p():
    # lambda = 1 gives the z-step t = 0, whose prox returns P = grad v - y
    # bitwise.
    ap = AdaptiveParams(beta=1.0, alpha=0.01, constant_lambda=1.0)
    st = random_denoise_state(506, params=adaptive_defaults(adaptive=ap))
    p = gradient_reference(st.v) - st.y
    st.iterate()
    assert np.array_equal(st.z, p)


def test_update_v_keeps_constants():
    p = adaptive_defaults(adaptive=AdaptiveParams(beta=1.0, alpha=0.01, constant_lambda=0.5))
    st = DenoiseState(np.full((5, 5), 0.4), p)
    st.lam = np.full((5, 5), 0.5)
    st.w = np.zeros((5, 5))
    update_v_w(st, p)
    assert np.array_equal(st.v, st.u)
    assert np.array_equal(st.w, np.zeros((5, 5)))


@pytest.mark.parametrize("constant", [None, 0.3], ids=["adaptive", "constant"])
def test_update_v_matches_dense_solve(constant):
    # The scalar xi = rho/theta for either weight, so the solve is exact.
    ap = AdaptiveParams(beta=1.0, alpha=0.01, constant_lambda=constant)
    st = random_denoise_state(507, n=8, params=adaptive_defaults(adaptive=ap))
    p = st.params
    # rho = alpha/eta for a weight field and (1 - lambda)/eta for a constant
    xi = (0.01 if constant is None else 1.0 - constant) / (p.eta * p.theta)
    rhs = st.u + st.w - xi * divergence(st.z + st.y)
    y = st.y + st.z
    update_v_w(st, p)
    ref = np.linalg.solve(assemble_screened_matrix(np.full((8, 8), xi)), rhs.ravel()).reshape(8, 8)
    assert float(np.sqrt(np.mean((st.v - ref) ** 2))) <= 1e-12
    assert np.array_equal(st.y, y - gradient_reference(st.v))


@pytest.mark.parametrize("lam", [0.3, 0.5, 0.8])
def test_matches_newton_minimizer_of_constant_weight_model(lam):
    # An independent minimizer of the same composite objective,
    # lam*phi_mu(f-u) + (1-lam)*phi_eta(|grad u|): semismooth Newton
    # with dense forward differences.
    f = Splitmix64(11).uniforms(256).reshape(16, 16)
    mu, eta = 0.16, 0.08
    u_star, grad = denoise_minimizer_reference(f, lam, mu, eta)
    assert np.max(np.abs(grad)) <= 1e-13
    ap = AdaptiveParams(beta=1.0, alpha=0.01, constant_lambda=lam)
    sp = SolverParams(mu=mu, eta=eta, theta=1.0, adaptive=ap, max_iters=1500, tol_primal=1e-12)
    u, _ = run_denoise(f, sp)
    assert np.max(np.abs(u - u_star)) <= 1e-10


def test_frozen_weight_field_fixed_point_is_a_stationary_point_of_the_energy(monkeypatch):
    # With a weight field frozen, the fixed point solves the gradient of
    # the frozen-weight energy, whose (1 - lam) sits inside the
    # divergence: grad E(u) = -lam clip((f - u)/mu, -1, 1)
    # - div((1 - lam) psi(grad u)), with psi(g) = g / max(eta, |g|).  The
    # weight enters only the pointwise z-step, and the v-system has one
    # scalar xi.  G(u), with (1 - lam) outside the divergence, is not
    # zero there.
    n, mu, eta = 32, 0.16, 0.08
    left = np.arange(n)[None, :] < n // 2
    f = np.where(left, 0.3, 0.7) + 0.1 * (Splitmix64(17).uniforms(n * n).reshape(n, n) - 0.5)
    lam = np.where(left, 0.7, 0.2) * np.ones((n, 1))
    monkeypatch.setattr(denoise, "weight_fields", lambda rho, params, **buffers: lam)
    ap = AdaptiveParams(beta=1.0, alpha=0.01)
    sp = SolverParams(mu=mu, eta=eta, theta=1.0, adaptive=ap, max_iters=3000, tol_primal=2e-16)
    u, history = run_denoise(f, sp)
    assert history[-1].primal_residual <= 2e-16
    g = gradient_reference(u)
    psi = g / np.maximum(eta, np.sqrt(np.sum(g * g, axis=-1)))[..., None]
    data = lam * np.clip((f - u) / mu, -1.0, 1.0)
    stationarity = -data - (1.0 - lam) * divergence_reference(psi)
    energy_gradient = -data - divergence_reference((1.0 - lam)[..., None] * psi)
    assert np.max(np.abs(energy_gradient)) < 1e-12
    assert np.max(np.abs(stationarity)) > 0.1


@pytest.mark.parametrize("alpha, constant, omega", [(0.0, None, 1.0), (0.1, None, 0.1), (0.0, 0.0, 1.0),
                                                    (0.0, 0.3, 0.7), (0.0, 1.0, 1.0)],
                         ids=["alpha-0", "alpha-0.1", "lambda-0", "lambda-0.3", "lambda-1"])
def test_split_penalty_and_its_fallback_give_finite_runs(alpha, constant, omega):
    # rho = omega/eta: the least regularizer weight (alpha, or 1 - lambda),
    # and 1 where that is 0.  Every run finishes finite, and raises no
    # warning: lambda = 1 makes t = 0, a constant image P = 0.
    ap = AdaptiveParams(beta=0.05, alpha=alpha, smoothing_sigma=2.0, constant_lambda=constant)
    sp = adaptive_defaults(adaptive=ap, max_iters=60, tol_primal=1e-9)
    assert denoise.split_weight(sp) == omega
    f = biased_noise_image(make_scene(32), 0.3, "half", seed=2)
    with warnings.catch_warnings(), np.errstate(divide="raise", invalid="raise", over="raise"):
        warnings.simplefilter("error")
        for image in (f, np.full((8, 8), 0.4)):
            u, history = run_denoise(image, sp)
            assert np.all(np.isfinite(u)) and math.isfinite(history[-1].energy)
        assert np.array_equal(u, np.full((8, 8), 0.4))


def test_adaptive_run_continues_past_the_first_iteration():
    # The weights come before the z-step, so the first z-step already
    # reads a weight below one (t > 0) and moves v off f: a non-constant
    # image does not stop at iteration 1 with a zero residual.
    f = biased_noise_image(make_scene(32), 0.3, "half", seed=2)
    u, history = run_denoise(f, adaptive_defaults(max_iters=50, tol_primal=1e-6))
    assert history[0].primal_residual > 1e-3
    assert len(history) > 1
    assert not np.array_equal(u, f)


def test_converged_runs_also_close_the_gradient_split():
    # A run stops only once rms(z - grad v) is within the tolerance too,
    # and the last record carries the larger residual: the c05 constants
    # (those under their cap), constant flow under either regularizer, and
    # an adaptive flow run whose rms(u - v) reaches the tolerance well
    # before the split's residual does (on rms(u - v) alone it stopped
    # after 436 iterations with rms(z - grad v) at 6.0e-6).
    noisy = biased_noise_image(make_scene(128), 0.3, "half", seed=0)
    converged = 0
    for constant in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
        sp = SolverParams(mu=0.16, eta=0.08, theta=1.0,
                          adaptive=AdaptiveParams(beta=1.0, alpha=0.0, constant_lambda=constant),
                          max_iters=300, tol_primal=1e-9)
        st = DenoiseState(noisy, sp)
        _, history = run_admm(st, sp)
        if history[-1].primal_residual <= sp.tol_primal:
            converged += 1
            assert rms(st.z - gradient_reference(st.v)) <= sp.tol_primal
    assert converged == 7
    f1, f2, _ = shifted_pair(smooth_texture(32, seed=5), (1.0, 0.0))
    for anisotropic in (True, False):
        sp = SolverParams(mu=0.01, eta=0.3, theta=0.1, max_iters=400, tol_primal=1e-7,
                          adaptive=AdaptiveParams(beta=10.0, alpha=0.01, constant_lambda=0.4))
        st = FlowState(f1, f2, FlowParams(solver=sp, anisotropic_reg=anisotropic))
        _, history = run_admm(st, sp)
        assert history[-1].primal_residual <= sp.tol_primal
        assert rms(st.z - gradient(np.moveaxis(st.v, -1, 0))) <= sp.tol_primal
    sp = SolverParams(mu=0.01, eta=0.3, theta=0.1, max_iters=1000, tol_primal=1e-6,
                      adaptive=AdaptiveParams(beta=10.0, alpha=0.01))
    st = FlowState(f1, f2, FlowParams(solver=sp))

    def first(a):  # the last axis first, C-contiguous: the v-step's sum order
        return np.ascontiguousarray(np.moveaxis(a, -1, 0))

    primal = []
    _, history = run_admm(st, sp, on_check=lambda s, record: primal.append(rms(first(s.u - s.v))))
    split = rms(first(st.z - gradient(first(st.v))))
    assert history[-1].primal_residual == max(primal[-1], split) <= sp.tol_primal
    assert len(history) < sp.max_iters
    assert len(history) - next(k for k, r in enumerate(primal) if r <= sp.tol_primal) > 100


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
    # With enough quadratic damping the energy is non-increasing once the
    # weights have settled (first few iterations excluded).  The run forms
    # it only on its last iteration, so on_check forms the others.
    img = _gate_images()[image]
    ap = AdaptiveParams(beta=1.0, alpha=0.01, constant_lambda=const)
    sp = SolverParams(
        mu=0.16, eta=0.08, theta=theta, adaptive=ap,
        max_iters=150, tol_primal=1e-12,
    )
    energies = []

    def settled(st, rec):
        if rec.iter >= 5:
            energies.append(st.energy())

    u, hist = run_denoise(img, sp, on_check=settled)
    assert len(energies) == len(hist) - 4
    assert energies[-1] == hist[-1].energy
    for a, b in zip(energies, energies[1:]):
        assert b <= a + 1e-8 * (1.0 + abs(a))
    # output stays within the input range up to a small overshoot
    assert u.min() >= img.min() - 0.1
    assert u.max() <= img.max() + 0.1


def test_admm_sequence_decreases_monotonically_under_heavy_damping():
    # For ADMM, theta |dv|^2 + rho |grad dv|^2 + theta |dw|^2 + rho |dy|^2
    # between consecutive iterates cannot grow (He & Yuan, Numer. Math.
    # 2015), though the primal residual rms(u - v) may.
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
    rho = 0.5 / sp.eta
    st = DenoiseState(noisy, sp)
    last = [(st.v.copy(), st.w.copy(), st.y.copy())]
    sequence = []

    def record(state, rec):
        v, w, y = last[-1]
        dv = state.v - v
        sequence.append(sp.theta * np.sum(dv * dv) + rho * np.sum(gradient_reference(dv) ** 2)
                        + sp.theta * np.sum((state.w - w) ** 2) + rho * np.sum((state.y - y) ** 2))
        last.append((state.v.copy(), state.w.copy(), state.y.copy()))

    _, hist = run_denoise(noisy, sp, on_check=record)
    assert len(sequence) == len(hist) > 10
    for a, b in zip(sequence, sequence[1:]):
        assert b <= a
    assert hist[-1].primal_residual <= 1e-6


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


def test_only_segmentation_reads_the_inner_sweep_count():
    # Denoising solves every v-step exactly, an adaptive run too, so
    # gs_sweeps changes no bit of it; a segmentation weight field takes
    # gs_sweeps Gauss-Seidel sweeps, so both of its runs converge, to
    # outputs that differ in the last bits only.
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
        out[sweeps] = u, [(r.primal_residual, r.mean_lambda) for r in hist]
    assert np.array_equal(out[20][0], out[100][0])
    assert out[20][1] == out[100][1]
    memberships = {}
    image, _ = noisy_rectangles(32, seed=1)
    for sweeps in (20, 100):
        params = seg_params(n_labels=3, beta=0.05, iters=300, tol=1e-8, sweeps=sweeps, sigma=1.5)
        _, state, hist = run_segment(image, params)
        assert hist[-1].primal_residual <= 1e-8
        memberships[sweeps] = state.u
    assert not np.array_equal(memberships[20], memberships[100])
    assert np.max(np.abs(memberships[20] - memberships[100])) < 1e-6


def test_run_is_deterministic():
    rng = Splitmix64(508)
    f = np.clip(rng.uniforms(1024).reshape(32, 32), 0.0, 1.0)
    sp = adaptive_defaults(max_iters=30, tol_primal=1e-12)
    u1, h1 = run_denoise(f, sp)
    u2, h2 = run_denoise(f, sp)
    assert np.array_equal(u1, u2)
    assert [(r.iter, r.primal_residual) for r in h1] == [(r.iter, r.primal_residual) for r in h2]
    assert math.isfinite(h1[-1].energy) and h1[-1].energy == h2[-1].energy


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


@pytest.mark.parametrize("constant", [None, 0.3], ids=["adaptive", "constant"])
@pytest.mark.parametrize("shape", [(31, 47), (128, 128)], ids=["31x47", "128x128"])
def test_iterations_match_frozen_reference(shape, constant):
    # The workspace reuses buffers and shares intermediates; the frozen
    # reference recomputes everything from fresh temporaries.  Every
    # field and every history figure must agree bit for bit.
    f = biased_noise_image(make_scene(128)[: shape[0], : shape[1]], 0.3, "half", seed=4)
    params = halfplane_params(constant)
    fields = ("f", "u", "v", "w", "r", "z", "y", "lam")
    ref = SimpleNamespace(**{k: getattr(DenoiseState(f, params), k) for k in fields})
    records = []

    def check(st, rec):
        denoise_iterate_reference(ref, params)
        for name in fields:
            assert_same_bits(getattr(st, name), getattr(ref, name))
        d = ref.u - ref.v
        expected = (
            denoise_energy_reference(ref, params),
            float(np.sqrt(np.mean(d * d))),
            float(np.mean(ref.lam)),
        )
        assert (st.energy(), rec.primal_residual, rec.mean_lambda) == expected
        records.append(rec)

    run_denoise(f, params, on_check=check)
    assert len(records) == 6
