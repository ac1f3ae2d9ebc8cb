"""Denoising: per-step updates against closed forms, and solver-level
behavior (fixed points, energy descent under heavy damping, GD oracle)."""

import math
import resource
import tracemalloc
from collections import Counter
from types import SimpleNamespace

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
from adaptreg.prox import huber, huber_vec, shrink, shrink_vec
from adaptreg.solver import SolverParams
from adaptreg.synth import Splitmix64, add_gaussian_noise, biased_noise_image
from adaptreg.metrics import ssim
from helpers import (
    assemble_screened_matrix,
    assert_same_bits,
    denoise_energy_reference,
    denoise_iterate_reference,
    huber_reference,
    huber_vec_reference,
    make_scene,
    moreau_envelope_bruteforce,
)


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
    st._form_intermediates()
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


def test_gradient_computed_once_per_iteration(monkeypatch):
    st = smoothed_state()
    calls = []

    def counted(u, **buffers):
        calls.append(u)
        return gradient(u, **buffers)

    monkeypatch.setattr(denoise, "gradient", counted)
    per_iteration = []
    for _ in range(5):
        before = len(calls)
        st.iterate()
        st.energy()
        per_iteration.append(len(calls) - before)
    # the constructor differentiated the initial v
    assert per_iteration == [1, 1, 1, 1, 1]


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


FIELDS = ("f", "u", "v", "w", "r", "z", "lam")


def halfplane_params(constant, sweeps=20):
    ap = AdaptiveParams(beta=0.05, alpha=0.1, smoothing_sigma=2.0, constant_lambda=constant)
    return adaptive_defaults(adaptive=ap, gs_sweeps=sweeps, max_iters=6, tol_primal=1e-300)


@pytest.mark.parametrize("constant", [None, 0.3], ids=["adaptive", "constant"])
@pytest.mark.parametrize("shape", [(31, 47), (128, 128)], ids=["31x47", "128x128"])
def test_iterations_match_frozen_reference(shape, constant):
    # The workspace reuses buffers and shares intermediates; the frozen
    # reference recomputes everything from fresh temporaries.  Every
    # field and every history figure must agree bit for bit.
    f = biased_noise_image(make_scene(128)[: shape[0], : shape[1]], 0.3, "half", seed=4)
    params = halfplane_params(constant)
    ref = SimpleNamespace(**{k: getattr(DenoiseState(f, params), k) for k in FIELDS})
    records = []

    def check(st, rec):
        denoise_iterate_reference(ref, params)
        for name in FIELDS:
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


def test_state_writes_its_fields_in_place():
    st = DenoiseState(biased_noise_image(make_scene(32), 0.3, "half", seed=1), halfplane_params(None))
    st.iterate()
    ws = st.workspace
    owned = {name: getattr(st, name) for name in ("u", "w", "r", "z", "lam")}
    buffers = {id(st.v), id(ws.spare)}
    for _ in range(4):
        v = st.v
        st.iterate()
        st.energy()
        assert st.workspace is ws
        assert all(getattr(st, name) is a for name, a in owned.items())
        # v alternates with the spare buffer, which the v-step fills
        assert st.v is not v and ws.spare is v
        assert {id(st.v), id(ws.spare)} == buffers
    # z stays component-planar
    assert st.z[..., 0].flags.c_contiguous and st.z[..., 1].flags.c_contiguous


def test_intermediates_computed_once_per_iteration(monkeypatch):
    # grad v, |grad v| and f - u are formed once per iteration, and the
    # dual step once, whatever run_admm then reads.
    st = smoothed_state()
    counts = Counter()

    def counting(name, kernel):
        def counted(*args, **buffers):
            counts[name] += 1
            return kernel(*args, **buffers)

        return counted

    for name in ("gradient", "vector_norm", "dual_step"):
        monkeypatch.setattr(denoise, name, counting(name, getattr(denoise, name)))
    form = st._form_intermediates
    monkeypatch.setattr(st, "_form_intermediates", counting("form", form))
    for _ in range(4):
        counts.clear()
        st.iterate()
        st.energy()
        st.primal_residual()
        st.energy()
        st.primal_residual()
        assert counts == {"gradient": 1, "vector_norm": 1, "dual_step": 1, "form": 1}


@pytest.mark.parametrize("constant", [None, 0.3], ids=["adaptive", "constant"])
def test_envelope_only_for_a_weight_field(monkeypatch, constant):
    calls = []

    def counted(*args, _envelope=denoise.envelope_at, **buffers):
        calls.append(1)
        return _envelope(*args, **buffers)

    monkeypatch.setattr(denoise, "envelope_at", counted)
    st = DenoiseState(biased_noise_image(make_scene(16), 0.3, "half", seed=1), halfplane_params(constant))
    for _ in range(3):
        st.iterate()
    assert len(calls) == (3 if constant is None else 0)


def assert_intermediates_match_the_fields(st):
    ws = st.workspace
    g = gradient(st.v)
    assert_same_bits(ws.grad, g)
    assert_same_bits(ws.norm, np.sqrt(np.sum(g * g, axis=-1)))
    assert_same_bits(ws.gap, st.f - st.u)
    d = st.u - st.v
    assert_same_bits(st.primal_residual(), float(np.sqrt(np.mean(d * d))))


@pytest.mark.parametrize("constant", [None, 0.3], ids=["adaptive", "constant"])
def test_kept_intermediates_match_the_fields(constant):
    # What energy() and the next iterate() read is formed from the state's
    # own fields, at construction and at the end of every iteration.
    st = DenoiseState(biased_noise_image(make_scene(32), 0.3, "half", seed=2), halfplane_params(constant))
    assert_intermediates_match_the_fields(st)
    for _ in range(5):
        st.iterate()
        assert_intermediates_match_the_fields(st)


def steady_state(n, constant):
    f = Splitmix64(n).uniforms(n * n).reshape(n, n)
    st = DenoiseState(f, halfplane_params(constant))
    for _ in range(2):
        st.iterate()
        st.energy()
        st.primal_residual()
    return st


@pytest.mark.parametrize("constant", [None, 0.3], ids=["adaptive", "constant"])
@pytest.mark.parametrize("n", [128, 512])
def test_steady_state_allocates_less_than_a_field(n, constant):
    # Without the workspace an iteration allocated 12 to 14 fields.  numpy
    # copies a broadcast operand through an iteration buffer of
    # np.getbufsize() entries per ufunc call, 128 KiB for complex128
    # whatever the grid; at 128^2 that alone is a field, so it is shrunk
    # here to measure the package's own buffers.
    st = steady_state(n, constant)
    bufsize = np.setbufsize(1024)
    tracemalloc.start()
    try:
        st.iterate()
        st.energy()
        st.primal_residual()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        np.setbufsize(bufsize)
    assert peak < st.f.nbytes


def test_steady_state_takes_no_fresh_pages():
    # Without the workspace, five 512^2 adaptive iterations took 3097
    # minor faults (about 1.75 fields faulted in fresh per iteration);
    # the bound is a tenth of that.
    st = steady_state(512, None)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(5):
        st.iterate()
        st.energy()
        st.primal_residual()
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before <= 300
