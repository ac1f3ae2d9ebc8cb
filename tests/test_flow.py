"""Optical flow: annealing schedule, linearization, per-pixel solve,
and the warp/pyramid drivers."""

import tracemalloc

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
from adaptreg.solver import SolverParams, rms
from adaptreg.synth import Splitmix64, shifted_pair, smooth_texture
from helpers import assert_same_bits, flow_update_u_reference, huber_reference, huber_vec_reference


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
    st._form_intermediates()
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
    # relinearizing moves A and ft, keeps v and re-forms what it reads
    v = st.v
    st.relinearize()
    assert st.v is v
    assert st.energy() == frozen_energy(st)


def test_gradient_computed_once_per_iteration(monkeypatch):
    st = smoothed_flow_state()
    calls = []

    def counted(u):
        calls.append(u)
        return gradient(u)

    monkeypatch.setattr(flow, "gradient", counted)
    per_iteration = []
    for k in range(6):
        before = len(calls)
        if k == 3:
            st.relinearize()
        st.iterate()
        st.energy()
        per_iteration.append(len(calls) - before)
    # relinearize differentiates v once more, as the constructor did
    assert per_iteration == [1, 1, 1, 2, 1, 1]


@pytest.mark.parametrize("constant", [None, 0.4], ids=["adaptive", "constant"])
def test_envelope_only_for_a_weight_field(monkeypatch, constant):
    # A constant weight reads no residual, so none is formed.
    st = steady_flow_state(16, constant)
    calls = []

    def counted(*args, _envelope=flow.envelope_at, **buffers):
        calls.append(1)
        return _envelope(*args, **buffers)

    monkeypatch.setattr(flow, "envelope_at", counted)
    for _ in range(3):
        st.iterate()
    assert len(calls) == (3 if constant is None else 0)


def test_residual_computed_once_per_iteration(monkeypatch):
    st = smoothed_flow_state()
    calls = []

    def counted(*fields, _dual_step=flow.dual_step, **buffers):
        calls.append(fields)
        return _dual_step(*fields, **buffers)

    monkeypatch.setattr(flow, "dual_step", counted)
    per_iteration = []
    for _ in range(4):
        st.iterate()
        in_iterate = len(calls)
        st.energy()
        st.primal_residual()
        st.primal_residual()
        per_iteration.append((in_iterate, len(calls) - in_iterate))
        calls.clear()
    # the dual step's u - v serves the primal residual
    assert per_iteration == [(1, 0)] * 4


def component_first_rms(d):
    """rms of an (H, W, 2) field summed over its C-contiguous (2, H, W)
    stack, the order of the dual step."""
    return rms(np.ascontiguousarray(np.moveaxis(d, -1, 0)))


def test_update_v_w_refreshes_the_residual():
    st = smoothed_flow_state()
    st.iterate()
    st.primal_residual()
    # update_v_w moves v in place, twice without an iterate in between
    for _ in range(2):
        w0 = st.w.copy()
        update_v_w(st, st.params.solver)
        assert np.array_equal(st.w, w0 + (st.u - st.v))
        assert st.primal_residual() == component_first_rms(st.u - st.v)


def test_gap_computed_once_per_iteration(monkeypatch):
    st = smoothed_flow_state()
    calls = []

    def counted(a, b):
        calls.append(b)
        return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]

    monkeypatch.setattr(flow, "_dot", counted)
    per_iteration = []
    for k in range(6):
        before = len(calls)
        if k == 3:
            st.relinearize()
        st.iterate()
        st.energy()
        st.energy()
        per_iteration.append(len(calls) - before)
    # A . u once per iteration for the gap; relinearize folds the prior
    # into ft with one more and re-forms the gap with another
    assert per_iteration == [1, 1, 1, 3, 1, 1]


def assert_intermediates_match_the_fields(st):
    au = st.A[..., 0] * st.u[..., 0] + st.A[..., 1] * st.u[..., 1]
    assert_same_bits(st.gap, st.ft - au)
    assert_same_bits(st.grad_v, gradient(np.moveaxis(st.v, -1, 0)))
    assert_same_bits(st.primal_residual(), component_first_rms(st.u - st.v))


@pytest.mark.parametrize("constant", [None, 0.4], ids=["adaptive", "constant"])
def test_kept_intermediates_match_the_fields(monkeypatch, constant):
    # What energy() and the next iterate() read is formed from the state's
    # own fields: at construction, after relinearize and at the end of
    # every iteration, also on a pyramid level seeded from a coarser one.
    f1, f2, _ = shifted_pair(smooth_texture(32, seed=5), (1.0, 0.5))
    ap = AdaptiveParams(beta=10.0, alpha=0.01, smoothing_sigma=1.0, constant_lambda=constant)
    fp = FlowParams(solver=flow_solver(adaptive=ap, max_iters=5), n_warps=2)
    st = FlowState(f1, f2, fp)
    assert_intermediates_match_the_fields(st)
    for _ in range(2):
        st.relinearize()
        assert_intermediates_match_the_fields(st)
        for _ in range(5):
            st.iterate()
            assert_intermediates_match_the_fields(st)
    relinearized = []

    def relinearize(state, _relinearize=FlowState.relinearize):
        _relinearize(state)
        assert_intermediates_match_the_fields(state)
        relinearized.append(state.u.shape)

    monkeypatch.setattr(FlowState, "relinearize", relinearize)
    checked = []

    def check(state, record):
        assert_intermediates_match_the_fields(state)
        checked.append(state.u.shape)

    fp.pyramid_levels = 2
    run_flow(f1, f2, fp, on_check=check)
    assert relinearized == [(16, 16, 2)] * 2 + [(32, 32, 2)] * 2
    assert checked == [(16, 16, 2)] * 10 + [(32, 32, 2)] * 10


def test_seed_is_copied_and_linearized_at_construction():
    # The same state as assigning the seed to u and v and relinearizing.
    f1, f2, gt = shifted_pair(smooth_texture(24, seed=8), (1.0, 0.5))
    fp = FlowParams(solver=flow_solver())
    seed = 0.5 * gt
    st = FlowState(f1, f2, fp, u0=seed)
    ref = FlowState(f1, f2, fp)
    ref.u = planar(seed)
    ref.v = planar(seed)
    ref.relinearize()
    for name in ("u", "v", "w", "A", "ft", "gap", "grad_v", "residual"):
        assert_same_bits(getattr(st, name), getattr(ref, name))
    assert_planar(st)
    st.iterate()
    assert np.array_equal(seed, 0.5 * gt)  # the seed is not written


@pytest.mark.parametrize("anisotropic", [True, False], ids=["anisotropic", "isotropic"])
@pytest.mark.parametrize("constant", [None, 0.4], ids=["adaptive", "constant"])
def test_iterate_writes_the_fields_in_place(anisotropic, constant):
    st = steady_flow_state(32, constant, anisotropic)
    names = ("z", "r", "w", "u", "v") + (("lam",) if constant is None else ())
    arrays = {name: getattr(st, name) for name in names}
    for _ in range(3):
        st.iterate()
        for name in names:
            assert getattr(st, name) is arrays[name], name
    assert_planar(st)


def steady_flow_state(n, constant, anisotropic=True):
    f1, f2, _ = shifted_pair(smooth_texture(n, seed=5), (1.0, 0.0))
    ap = AdaptiveParams(beta=10.0, alpha=0.01, constant_lambda=constant)
    st = FlowState(f1, f2, FlowParams(solver=flow_solver(adaptive=ap), anisotropic_reg=anisotropic))
    # the first iteration turns a constant weight into a float
    st.iterate()
    st.energy()
    st.primal_residual()
    return st


@pytest.mark.parametrize("constant", [None, 0.4], ids=["adaptive", "constant"])
def test_steady_state_allocation_is_bounded(constant):
    # Fresh memory of one iteration with its energy and residual at 128^2,
    # in fields: 22.3 (adaptive) and 21.3 (constant) while every step made
    # new fields, 12.3 with z, lambda, r, u and w written in place.
    # numpy's iteration buffer is shrunk as in the denoise guard.
    st = steady_flow_state(128, constant)
    st.iterate()
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
    assert peak < 14 * st.f1.nbytes


def planar(a):
    """a's values in an (H, W, 2) view of C-contiguous (2, H, W) memory."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(a, -1, 0)), 0, -1)


def assert_planar(st):
    for name in ("u", "v", "w", "A"):
        assert np.moveaxis(getattr(st, name), -1, 0).flags.c_contiguous, name


@pytest.mark.parametrize("case", ["anisotropic", "isotropic", "pyramid"])
def test_fields_stay_component_planar(case):
    f1, f2, _ = shifted_pair(smooth_texture(32, seed=5), (1.0, 0.5))
    fp = FlowParams(solver=flow_solver(max_iters=3), n_warps=2,
                    anisotropic_reg=case != "isotropic",
                    pyramid_levels=2 if case == "pyramid" else 1)
    st = FlowState(f1, f2, fp)
    assert_planar(st)
    st.relinearize()
    for _ in range(3):
        assert_planar(st)
        st.iterate()
    assert_planar(st)
    shapes = []

    def check(state, record):
        assert_planar(state)
        shapes.append(state.u.shape)

    u, _ = run_flow(f1, f2, fp, on_check=check)
    levels = [(16, 16, 2)] * 6 if case == "pyramid" else []
    assert shapes == levels + [(32, 32, 2)] * 6
    assert u.flags.c_contiguous


def test_primal_residual_sums_the_component_first_stack():
    # Interleaved fields: summing u - v in their own memory order would
    # round differently from the component-first stack in 8 of these 20.
    # With lambda = 1 the v-solve returns u + w, so the dual step's u - v
    # is -w up to rounding.
    for seed in range(20):
        rng = Splitmix64(760 + seed)
        st = FlowState(np.zeros((128, 128)), np.zeros((128, 128)), FlowParams(solver=flow_solver()))
        st.u = rng.normals(2 * 128 * 128).reshape(128, 128, 2)
        st.w = rng.normals(2 * 128 * 128).reshape(128, 128, 2)
        update_v_w(st, st.params.solver)
        assert st.primal_residual() == component_first_rms(st.u - st.v)


@pytest.mark.parametrize("anisotropic", [True, False], ids=["anisotropic", "isotropic"])
def test_planar_state_matches_interleaved_state(anisotropic):
    for seed in range(5):
        interleaved = random_flow_state(770 + seed)
        st = random_flow_state(770 + seed)
        for name in ("u", "v", "w", "A"):
            setattr(st, name, planar(getattr(st, name)))
        st._form_intermediates()
        for s in (st, interleaved):
            s.params.anisotropic_reg = anisotropic
        sp = st.params.solver
        u = update_u(st, sp)
        assert np.moveaxis(u, -1, 0).flags.c_contiguous
        assert_same_bits(u, update_u(interleaved, sp))
        assert_same_bits(u, flow_update_u_reference(interleaved, sp))
        assert st.energy() == interleaved.energy()
        for s in (st, interleaved):
            update_v_w(s, sp)
        assert_same_bits(st.v, interleaved.v)
        assert st.primal_residual() == interleaved.primal_residual()


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


def test_pyramid_halves_only_frames_of_at_least_16_px():
    # Five levels asked of a 32 px pair run three: 32 px, 16 px and 8 px.
    f1, f2, _ = shifted_pair(smooth_texture(32, seed=5), (1.0, 0.0))
    fp = FlowParams(solver=flow_solver(max_iters=2), n_warps=1, pyramid_levels=5)
    shapes = []
    _, history = run_flow(f1, f2, fp, on_check=lambda state, record: shapes.append(state.f1.shape))
    assert len(history) == 6
    assert shapes == [(8, 8)] * 2 + [(16, 16)] * 2 + [(32, 32)] * 2


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
