"""Optical flow: annealing schedule, linearization, per-pixel solve,
and the warp/pyramid drivers."""

import numpy as np
import pytest

from adaptreg import flow
from adaptreg.adaptive import AdaptiveParams
from adaptreg.flow import (
    FlowParams,
    FlowState,
    linearize,
    run_flow,
    tau_schedule,
    update_u,
    update_v_w,
)
from adaptreg.grid import central_gradient, gradient
from adaptreg.metrics import aee
from adaptreg.prox import shrink
from adaptreg.solver import SolverParams
from adaptreg.synth import Splitmix64, shifted_pair, smooth_texture
from helpers import huber_reference, huber_vec_reference


def flow_solver(**kw):
    ap = kw.pop("adaptive", AdaptiveParams(beta=10.0, alpha=0.01))
    base = dict(mu=0.01, eta=0.3, theta=0.1, adaptive=ap,
                max_iters=30, tol_primal=1e-9)
    base.update(kw)
    return SolverParams(**base)


def test_params_validation():
    sp = flow_solver()
    for bad in (
        dict(tau0=-0.1),
        dict(tau0=1.1),
        dict(dtau=-0.001),
        dict(n_warps=0),
        dict(pyramid_levels=0),
    ):
        with pytest.raises(ValueError):
            FlowParams(solver=sp, **bad)
    FlowParams(solver=sp, tau0=0.0)
    FlowParams(solver=sp, tau0=1.0, dtau=0.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_params_reject_non_finite_dtau(value):
    with pytest.raises(ValueError, match="dtau"):
        FlowParams(solver=flow_solver(), dtau=value)


def test_tau_schedule_values_and_exact_clamp():
    assert tau_schedule(0.5, 0.005, 0) == 0.5
    assert tau_schedule(0.5, 0.005, 10) == pytest.approx(0.55, abs=1e-15)
    # 100 steps saturate the schedule and the endpoint is exact
    assert tau_schedule(0.5, 0.005, 99) < 1.0
    assert tau_schedule(0.5, 0.005, 100) == 1.0
    assert tau_schedule(0.5, 0.005, 5000) == 1.0


def test_tau_schedule_frozen_and_monotone():
    assert tau_schedule(0.3, 0.0, 100) == 0.3
    vals = [tau_schedule(0.25, 0.01, k) for k in range(200)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert all(v <= 1.0 for v in vals)
    assert vals[-1] == 1.0


def test_linearize_identical_frames():
    rng = Splitmix64(700)
    f = rng.uniforms(256).reshape(16, 16)
    a, ft = linearize(f, f, np.zeros((16, 16, 2)), 0.5)
    assert np.array_equal(ft, np.zeros((16, 16)))
    assert np.array_equal(a, central_gradient(f))


def test_linearize_tau_one_is_forward_form():
    rng = Splitmix64(701)
    f1 = rng.uniforms(144).reshape(12, 12)
    f2 = rng.uniforms(144).reshape(12, 12)
    a, ft = linearize(f1, f2, np.zeros((12, 12, 2)), 1.0)
    assert np.array_equal(ft, f2 - f1)
    assert np.array_equal(a, central_gradient(f1))


def test_linearize_at_true_flow_cancels_time_derivative():
    f1, f2, gt = shifted_pair(smooth_texture(32, seed=6), (1.0, 0.0))
    _, ft = linearize(f1, f2, gt, 0.5)
    # away from the clamped border the warped frames coincide
    assert np.max(np.abs(ft[:, 2:-2])) <= 1e-12


def test_linearize_shape_mismatch():
    with pytest.raises(ValueError):
        linearize(np.zeros((4, 4)), np.zeros((4, 5)), np.zeros((4, 4, 2)), 0.5)


def test_symmetric_warp_swaps_sign_bitwise():
    f1, f2, gt = shifted_pair(smooth_texture(48, seed=4), (2.0, 0.0))
    a1, ft1 = linearize(f1, f2, gt, 0.5)
    a2, ft2 = linearize(f2, f1, -gt, 0.5)
    assert np.array_equal(ft2, -ft1)
    assert np.array_equal(a2, a1)


def test_relinearize_folds_prior_into_ft():
    f1, f2, gt = shifted_pair(smooth_texture(24, seed=8), (1.0, 0.0))
    params = FlowParams(solver=flow_solver())
    st = FlowState(f1, f2, params)
    st.u = 0.5 * gt
    st.relinearize()
    a_ref, ft_ref = linearize(f1, f2, 0.5 * gt, st.tau)
    assert np.array_equal(st.A, a_ref)
    folded = ft_ref + (a_ref[..., 0] * st.u[..., 0] + a_ref[..., 1] * st.u[..., 1])
    assert np.array_equal(st.ft, folded)


def test_alternative_gradient_mixing():
    rng = Splitmix64(702)
    f1 = rng.uniforms(100).reshape(10, 10)
    f2 = rng.uniforms(100).reshape(10, 10)
    tau = 0.7
    st = FlowState(f1, f2, FlowParams(solver=flow_solver(), tau0=tau))
    st.relinearize()
    # with a zero prior the warps are the frames themselves
    assert np.allclose(
        st.A, (1 - tau) * central_gradient(f2) + tau * central_gradient(f1), atol=1e-15
    )


def random_flow_state(seed, n=20):
    rng = Splitmix64(seed)
    params = FlowParams(solver=flow_solver(mu=0.5, theta=1.0))
    st = FlowState(np.zeros((n, n)), np.zeros((n, n)), params)
    st.v = rng.normals(n * n * 2).reshape(n, n, 2)
    st.w = rng.normals(n * n * 2).reshape(n, n, 2)
    st.A = rng.normals(n * n * 2).reshape(n, n, 2)
    st.ft = rng.normals(n * n).reshape(n, n)
    st.r = rng.normals(n * n).reshape(n, n)
    st.lam = rng.uniforms(n * n).reshape(n, n) * 0.99
    st.u = rng.normals(n * n * 2).reshape(n, n, 2)
    return st


def test_update_r_shrinks_linearized_residual():
    st = random_flow_state(703)
    mu = st.params.solver.mu
    au = st.A[..., 0] * st.u[..., 0] + st.A[..., 1] * st.u[..., 1]
    residual = st.ft - au
    st.iterate()
    assert np.array_equal(st.r, shrink(residual, mu))



def frozen_energy(st):
    sp = st.params.solver
    au = st.A[..., 0] * st.u[..., 0] + st.A[..., 1] * st.u[..., 1]
    data = st.lam * huber_reference(st.ft - au, sp.mu)
    g = gradient(np.moveaxis(st.v, -1, 0))
    if st.params.anisotropic_reg:
        reg = (huber_reference(g[0], sp.eta).sum(axis=-1)
               + huber_reference(g[1], sp.eta).sum(axis=-1))
    else:
        reg = huber_vec_reference(g[0], sp.eta) + huber_vec_reference(g[1], sp.eta)
    return float(np.sum(data) + np.sum((1.0 - st.lam) * reg))


@pytest.mark.parametrize("anisotropic", [True, False], ids=["anisotropic", "isotropic"])
def test_energy_matches_frozen_formula(anisotropic):
    # Small grids and many of them: on a large grid the total absorbs a
    # last-bit change in how the four partial derivatives are grouped.
    for seed in range(20):
        st = random_flow_state(730 + seed, n=4)
        st.params.anisotropic_reg = anisotropic
        assert st.energy() == frozen_energy(st)


def smoothed_flow_state(anisotropic=True):
    f1, f2, _ = shifted_pair(smooth_texture(16, seed=5), (0.5, 0.25))
    sp = flow_solver(adaptive=AdaptiveParams(beta=10.0, alpha=0.01, smoothing_sigma=1.0))
    st = FlowState(f1, f2, FlowParams(solver=sp, anisotropic_reg=anisotropic))
    st.relinearize()
    return st


@pytest.mark.parametrize("anisotropic", [True, False], ids=["anisotropic", "isotropic"])
def test_energy_reads_the_gradient_of_the_current_v(anisotropic):
    st = smoothed_flow_state(anisotropic)
    for _ in range(4):
        st.iterate()
        assert st.energy() == frozen_energy(st)
        assert st.energy() == frozen_energy(st)
    # relinearizing moves A and ft but keeps v and its cached gradient
    v = st.v
    st.relinearize()
    assert st.v is v
    assert st.energy() == frozen_energy(st)
    # update_v_w writes v in place and must drop the gradient kept for it
    update_v_w(st, st.params.solver)
    assert st.v is v
    assert st.energy() == frozen_energy(st)


def test_assigning_v_invalidates_the_gradient_cache():
    st = smoothed_flow_state()
    st.iterate()
    st.energy()
    st.v = 2.0 * st.v + 0.25
    assert st.energy() == frozen_energy(st)
    v = st.v.copy()
    st.iterate()
    # the z-step shrinks the gradient of the v assigned above
    assert np.array_equal(st.z, shrink(gradient(np.moveaxis(v, -1, 0)), st.params.solver.eta))


def test_gradient_computed_once_per_iteration(monkeypatch):
    st = smoothed_flow_state()
    calls = []

    def counted(u):
        calls.append(u)
        return gradient(u)

    monkeypatch.setattr(flow, "gradient", counted)
    per_iteration = []
    for k in range(6):
        if k == 3:
            st.relinearize()
        before = len(calls)
        st.iterate()
        st.energy()
        per_iteration.append(len(calls) - before)
    # the first iteration also differentiates the initial v
    assert per_iteration == [2, 1, 1, 1, 1, 1]

def test_update_u_degenerate_rows_pass_through_bitwise():
    st = random_flow_state(704)
    st.lam[0, :] = 0.0
    st.A[1, :, :] = 0.0
    u = update_u(st, st.params.solver)
    base = st.v - st.w
    assert np.array_equal(u[0], base[0])
    assert np.array_equal(u[1], base[1])


def test_update_u_matches_dense_2x2_solve():
    st = random_flow_state(705)
    sp = st.params.solver
    u = update_u(st, sp)
    mu_theta = sp.mu * sp.theta
    mat = np.zeros(st.ft.shape + (2, 2))
    mat[..., 0, 0] = mu_theta + st.lam * st.A[..., 0] ** 2
    mat[..., 0, 1] = st.lam * st.A[..., 0] * st.A[..., 1]
    mat[..., 1, 0] = mat[..., 0, 1]
    mat[..., 1, 1] = mu_theta + st.lam * st.A[..., 1] ** 2
    b = mu_theta * (st.v - st.w) + (st.lam * (st.ft - st.r))[..., None] * st.A
    ref = np.linalg.solve(mat, b[..., None])[..., 0]
    assert np.max(np.abs(u - ref)) <= 1e-12


def test_update_v_w_full_fidelity_skips_smoothing():
    st = random_flow_state(706)
    st.lam = np.ones_like(st.lam)
    u0, w0 = st.u.copy(), st.w.copy()
    update_v_w(st, st.params.solver)
    for comp in (0, 1):
        assert np.array_equal(st.v[..., comp], u0[..., comp] + w0[..., comp])


def test_zero_motion_stays_exactly_zero():
    tex = smooth_texture(64, seed=2)
    sp = flow_solver(max_iters=50)
    fp = FlowParams(solver=sp, tau0=0.5, dtau=0.005, n_warps=10)
    u, _ = run_flow(tex, tex, fp)
    assert np.max(np.abs(u)) == 0.0


def test_iteration_numbers_advance_by_warp_budget():
    tex = smooth_texture(32, seed=2)
    sp = flow_solver(max_iters=50, tol_primal=1e-6)
    u, hist = run_flow(tex, tex, FlowParams(solver=sp, n_warps=3))
    # each warp stops at its first checkpoint but the counter still
    # advances by the per-warp budget
    assert [r.iter for r in hist] == [1, 51, 101]


def test_small_shift_recovered():
    f1, f2, gt = shifted_pair(smooth_texture(64, seed=5), (1.0, 0.0))
    lam_range = []
    fp = FlowParams(solver=flow_solver(), n_warps=3)
    u, hist = run_flow(
        f1, f2, fp,
        on_check=lambda st, rec: lam_range.append((st.lam.min(), st.lam.max())),
    )
    assert aee(u, gt) < 0.3
    assert lam_range
    for lo, hi in lam_range:
        assert lo >= 0.0
        assert hi <= 0.99


def test_pyramid_improves_large_shift():
    f1, f2, gt = shifted_pair(smooth_texture(64, seed=5), (4.0, 0.0))
    sp = flow_solver()
    coarse_to_fine = FlowParams(solver=sp, n_warps=3, pyramid_levels=3)
    single = FlowParams(solver=sp, n_warps=3, pyramid_levels=1)
    u_pyr, _ = run_flow(f1, f2, coarse_to_fine)
    u_one, _ = run_flow(f1, f2, single)
    assert aee(u_pyr, gt) < 0.1
    assert aee(u_pyr, gt) < aee(u_one, gt)


def test_pyramid_collapses_on_tiny_frames():
    f1, f2, _ = shifted_pair(smooth_texture(8, seed=1), (1.0, 0.0))
    sp = flow_solver()
    u1, h1 = run_flow(f1, f2, FlowParams(solver=sp, n_warps=2, pyramid_levels=1))
    u3, h3 = run_flow(f1, f2, FlowParams(solver=sp, n_warps=2, pyramid_levels=3))
    assert np.array_equal(u1, u3)
    assert len(h1) == len(h3)


def test_isotropic_regularizer_runs():
    f1, f2, gt = shifted_pair(smooth_texture(32, seed=3), (1.0, 0.0))
    fp = FlowParams(solver=flow_solver(), n_warps=2, anisotropic_reg=False)
    u, _ = run_flow(f1, f2, fp)
    assert np.isfinite(u).all()
    assert u.shape == gt.shape


def test_run_flow_deterministic():
    f1, f2, _ = shifted_pair(smooth_texture(64, seed=5), (4.0, 0.0))
    fp = FlowParams(solver=flow_solver(), n_warps=2)
    ua, _ = run_flow(f1, f2, fp)
    ub, _ = run_flow(f1, f2, fp)
    assert np.array_equal(ua, ub)


def test_run_flow_shape_mismatch():
    with pytest.raises(ValueError):
        run_flow(np.zeros((16, 16)), np.zeros((16, 17)), FlowParams(solver=flow_solver()))
