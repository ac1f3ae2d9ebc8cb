"""Multi-label segmentation: initialization, per-label updates, the
stacked iteration against a label-by-label reference, and membership
invariants."""

import copy
import math
import tracemalloc

import numpy as np
import pytest

from adaptreg import segment
from adaptreg.adaptive import AdaptiveParams
from adaptreg.grid import divergence, gradient
from adaptreg.prox import project_stack_sum_to_one, shrink_vec
from adaptreg.segment import (
    LabelState,
    SegmentParams,
    SegmentState,
    extract_labels,
    misfit,
    run_segment,
    update_c,
    update_u,
    update_v_all,
    warm_start_labels,
)
from adaptreg.solver import SolverParams, rms
from adaptreg.synth import Splitmix64, add_gaussian_noise, noisy_rectangles
from helpers import (
    assemble_screened_matrix,
    assert_same_bits,
    exclusivity_sum_reference,
    segment_energy_reference,
    segment_iterate_reference,
)


def seg_params(n_labels=2, tau=0.5, beta=10.0, alpha=0.01, const=None,
               iters=300, tol=1e-6, sweeps=20, **kw):
    ap = AdaptiveParams(beta=beta, alpha=alpha, constant_lambda=const)
    sp = SolverParams(
        mu=0.5, eta=0.5, theta=1.0, adaptive=ap,
        max_iters=iters, tol_primal=tol, gs_sweeps=sweeps,
    )
    return SegmentParams(solver=sp, n_labels=n_labels, tau_excl=tau, **kw)


def random_label_state(seed, n=2, size=6):
    rng = Splitmix64(seed)
    f = rng.uniforms(size * size).reshape(size, size)
    return LabelState(
        f=f,
        u=rng.uniforms(n * size * size).reshape(n, size, size),
        v=rng.normals(n * size * size).reshape(n, size, size) * 0.3 + 0.5,
        w=rng.normals(n * size * size).reshape(n, size, size) * 0.1,
        r=rng.normals(n * size * size).reshape(n, size, size) * 0.1,
        z=rng.normals(n * size * size * 2).reshape(n, size, size, 2) * 0.2,
        lam=rng.uniforms(n * size * size).reshape(n, size, size) * 0.99,
        c=rng.uniforms(n),
    )


def test_params_validation():
    with pytest.raises(ValueError):
        seg_params(n_labels=1)
    with pytest.raises(ValueError):
        seg_params(tau=-0.1)


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_params_reject_non_finite_tau_excl(value):
    with pytest.raises(ValueError, match="tau_excl"):
        seg_params(tau=value)


def test_warm_start_rejects_single_label():
    with pytest.raises(ValueError):
        warm_start_labels(np.zeros((4, 4)), 1)


def test_warm_start_separates_two_levels():
    f = np.where(np.arange(32)[None, :] < 16, 0.2, 0.8) * np.ones((32, 32))
    st = warm_start_labels(f, 2)
    lab = np.argmax(st.u, axis=0)
    # the two centers straddle the levels and the assignment is exact
    assert abs(st.c[0] - 0.2) < 0.05
    assert abs(st.c[1] - 0.8) < 0.05
    assert np.array_equal(lab, (np.arange(32)[None, :] >= 16) * np.ones((32, 32), dtype=int))


def test_warm_start_is_deterministic():
    rng = Splitmix64(601)
    f = rng.uniforms(256).reshape(16, 16)
    a = warm_start_labels(f, 3)
    b = warm_start_labels(f, 3)
    assert np.array_equal(a.u, b.u)
    assert np.array_equal(a.c, b.c)


def test_misfit_formula():
    st = random_label_state(602)
    mu = 0.5
    d = misfit(st, mu)
    assert d.shape == st.u.shape
    for i in range(2):
        ref = np.abs(st.r[i]) + (st.f - st.c[i] - st.r[i]) ** 2 / (2.0 * mu)
        assert np.array_equal(d[i], ref)


def test_update_c_weighted_mean():
    st = random_label_state(603, n=3)
    c = update_c(st)
    assert c.shape == (3,)
    for i in range(3):
        w = st.lam[i] * st.u[i]
        assert c[i] == pytest.approx(float(np.sum(w * (st.f - st.r[i])) / np.sum(w)), rel=1e-14)
    assert st.degenerate_events == []


def test_update_c_degenerate_region_keeps_value_and_logs():
    st = random_label_state(604, n=3)
    st.u[2] = 0.0
    st.u[0] = 0.0
    st.iteration = 7
    old = st.c.copy()
    c = update_c(st)
    assert c[0] == old[0] and c[2] == old[2]
    assert c[1] != old[1]
    assert np.array_equal(st.c, old)  # the state itself is left alone
    assert st.degenerate_events == [(7, 0), (7, 2)]


@pytest.mark.parametrize("n", [3, 4, 8])
def test_update_u_matches_formula(n):
    # Shifting v by 3 keeps most memberships above the clip at zero, so
    # the grouping of the exclusivity sum shows in u.
    for shift in (0.0, 3.0):
        st = random_label_state(606, n=n)
        st.v += shift
        params = seg_params(n_labels=n, tau=0.7)
        sp = params.solver
        d = misfit(st, sp.mu)
        ref = st.u.copy()
        ascending = st.u.copy()
        for i in range(n):
            # Gauss-Seidel: labels before i already carry their new values
            for fields, others in (
                (ref, exclusivity_sum_reference(ref, i)),
                (ascending, np.sum(ascending[[j for j in range(n) if j != i]], axis=0)),
            ):
                fields[i] = np.maximum(
                    0.0,
                    st.v[i] - st.w[i] - (st.lam[i] / sp.theta) * d[i]
                    - (params.tau_excl / sp.theta) * others,
                )
        u = st.u
        assert update_u(st, params, d) is u  # written in place
        assert np.array_equal(u, ref)
        # up to three labels the grouping is that of one ascending sum
        if n <= 3 or shift:
            assert np.array_equal(u, ascending) == (n <= 3)


def test_update_u_gauss_seidel_couples_to_the_new_memberships():
    st = random_label_state(607, n=2)
    params = seg_params(n_labels=2, tau=1.0)
    sp = params.solver
    d = misfit(st, sp.mu)
    start = st.u.copy()
    out = update_u(st, params, d)

    def step(i, other):
        return np.maximum(
            0.0,
            st.v[i] - st.w[i] - (st.lam[i] / sp.theta) * d[i]
            - (params.tau_excl / sp.theta) * other,
        )

    # label 0 couples to the iteration-start u_1, label 1 to the new u_0
    assert np.array_equal(out[0], step(0, start[1]))
    assert np.array_equal(out[1], step(1, out[0]))
    # and not to the iteration-start u_0, which gives other values here
    assert not np.array_equal(out[1], step(1, start[0]))


def test_update_u_nonnegative():
    st = random_label_state(608)
    st.w += 5.0  # push u_tilde negative
    params = seg_params()
    assert np.all(update_u(st, params, misfit(st, params.solver.mu)) == 0.0)


def test_update_v_all_full_fidelity_reduces_to_projection():
    st = random_label_state(609)
    st.lam = np.ones_like(st.lam)
    params = seg_params()
    ref = project_stack_sum_to_one(st.u + st.w)
    update_v_all(st, params)
    assert np.array_equal(st.v, ref)


def test_update_v_all_matches_dense_solve():
    st = random_label_state(610, n=2, size=8)
    params = seg_params(sweeps=500)
    sp = params.solver
    xi = (1.0 - st.lam) / (sp.eta * sp.theta)
    ref = np.empty_like(st.v)
    for i in range(2):
        rhs = st.u[i] + st.w[i] - xi[i] * divergence(st.z[i])
        ref[i] = np.linalg.solve(
            assemble_screened_matrix(xi[i]), rhs.ravel()
        ).reshape(8, 8)
    ref = project_stack_sum_to_one(ref)
    update_v_all(st, params)
    assert float(np.sqrt(np.mean((st.v - ref) ** 2))) <= 1e-6


def test_extract_labels_argmax_with_low_tie():
    u = np.zeros((3, 2, 2))
    u[1, 0, 0] = 0.9
    u[2, 1, 1] = 0.4
    st = random_label_state(611, n=3, size=2)
    st.u = u
    lab = extract_labels(st)
    assert lab[0, 0] == 1
    assert lab[1, 1] == 2
    assert lab[0, 1] == 0  # all-zero column ties resolve to label 0
    assert lab.dtype == np.int64


def test_pairwise_overlap_hand_value():
    f = np.full((2, 2), 0.5)
    state = warm_start_labels(f, 2)
    state.u = np.stack([np.full((2, 2), 0.5), np.full((2, 2), 0.25)])
    with_penalty = SegmentState(f, seg_params(n_labels=2, tau=1.0), state=state).energy()
    without = SegmentState(f, seg_params(n_labels=2, tau=0.0), state=state).energy()
    # the exclusivity term sums u_0 u_1 = 0.5 * 0.25 over the 4 pixels
    assert with_penalty - without == pytest.approx(4 * 0.125, abs=1e-14)


@pytest.mark.parametrize(
    "n, sigma, const, empty",
    [
        (2, 1.5, None, None),
        (3, 1.5, None, None),
        (4, 1.5, None, None),
        (4, 0.0, None, None),
        (3, 0.0, 0.3, None),
        (4, 1.5, None, 2),
    ],
)
def test_stacked_iterate_matches_per_label_reference(n, sigma, const, empty):
    img, _ = noisy_rectangles(32, seed=4)
    ap = AdaptiveParams(beta=0.05, alpha=0.01, smoothing_sigma=sigma, constant_lambda=const)
    sp = SolverParams(mu=0.5, eta=0.5, theta=1.0, adaptive=ap, max_iters=6, tol_primal=1e-15)
    params = SegmentParams(solver=sp, n_labels=n, tau_excl=0.5)

    def start():
        s = warm_start_labels(img, n)
        if empty is not None:
            s.u[empty] = 0.0
        return s

    wrapper = SegmentState(img, params, state=start())
    ref = start()
    for _ in range(6):
        wrapper.iterate()
        segment_iterate_reference(ref, params)
        # the misfit kept across the iteration is the one of the current c, r
        assert np.array_equal(wrapper.d, misfit(wrapper.s, sp.mu))
        assert wrapper.energy() == segment_energy_reference(ref, params)
    for name in ("u", "v", "w", "r", "z", "lam", "c"):
        assert np.array_equal(getattr(wrapper.s, name), getattr(ref, name)), name
    assert wrapper.s.degenerate_events == ref.degenerate_events
    assert (empty is not None) == bool(ref.degenerate_events)


def smoothed_segment_state():
    img, _ = noisy_rectangles(24, seed=4)
    ap = AdaptiveParams(beta=0.05, alpha=0.01, smoothing_sigma=1.5)
    sp = SolverParams(mu=0.5, eta=0.5, theta=1.0, adaptive=ap, max_iters=6, tol_primal=1e-15)
    params = SegmentParams(solver=sp, n_labels=3, tau_excl=0.5)
    return SegmentState(img, params), params


def test_energy_reads_the_gradient_of_the_current_v():
    wrapper, params = smoothed_segment_state()
    for _ in range(5):
        v = wrapper.s.v
        wrapper.iterate()
        assert wrapper.s.v is not v
        assert wrapper.energy() == segment_energy_reference(wrapper.s, params)
        assert wrapper.energy() == segment_energy_reference(wrapper.s, params)


@pytest.mark.parametrize("const", [None, 0.3], ids=["adaptive", "constant"])
def test_kept_intermediates_match_the_fields(const):
    # What energy() and the next iterate() read is formed from the label
    # state's own fields, at construction and at the end of every
    # iteration; the given state's u and v differ at the start.
    img, _ = noisy_rectangles(24, seed=4)
    params = seg_params(n_labels=3, beta=0.05, const=const)
    state = warm_start_labels(img, 3)
    state.v = project_stack_sum_to_one(state.v + 0.25 * img)
    wrapper = SegmentState(img, params, state=state)
    for k in range(6):
        if k:
            wrapper.iterate()
        s = wrapper.s
        assert_same_bits(wrapper.d, misfit(s, params.solver.mu))
        assert_same_bits(wrapper.grad_v, gradient(s.v))
        assert_same_bits(wrapper.primal_residual(), rms(s.u - s.v))
        assert wrapper.primal_residual() > 0.0


def test_gradient_computed_once_per_iteration(monkeypatch):
    wrapper, _ = smoothed_segment_state()
    calls = []

    def counted(u):
        calls.append(u)
        return gradient(u)

    monkeypatch.setattr(segment, "gradient", counted)
    per_iteration = []
    for _ in range(5):
        before = len(calls)
        wrapper.iterate()
        wrapper.energy()
        per_iteration.append(len(calls) - before)
    # the constructor differentiated the warm-start v
    assert per_iteration == [1, 1, 1, 1, 1]


@pytest.mark.parametrize("const", [None, 0.3], ids=["adaptive", "constant"])
def test_residual_only_for_a_weight_field_and_misfit_over_the_gap(monkeypatch, const):
    # A constant weight reads no residual d * u, so none is formed; and d
    # is written over the f - c that the r-step shrank, one envelope per
    # iteration.
    img, _ = noisy_rectangles(32, seed=0)
    wrapper = SegmentState(img, seg_params(n_labels=4, const=const))
    residuals, envelopes = [], []

    def weights(rho, *args, _weights=segment.weight_fields, **kwargs):
        residuals.append(rho)
        return _weights(rho, *args, **kwargs)

    def envelope(x, r, mu, _envelope=segment.envelope_at, **buffers):
        envelopes.append(buffers.get("out") is x)
        return _envelope(x, r, mu, **buffers)

    monkeypatch.setattr(segment, "weight_fields", weights)
    monkeypatch.setattr(segment, "envelope_at", envelope)
    for _ in range(3):
        wrapper.iterate()
    assert [rho is None for rho in residuals] == [const is not None] * 3
    assert envelopes == [True] * 3


def test_residual_computed_once_per_iteration(monkeypatch):
    wrapper, _ = smoothed_segment_state()
    calls = []

    def counted(*fields, _dual_step=segment.dual_step, **buffers):
        calls.append(fields)
        return _dual_step(*fields, **buffers)

    monkeypatch.setattr(segment, "dual_step", counted)
    for _ in range(4):
        calls.clear()
        wrapper.iterate()
        wrapper.energy()
        wrapper.primal_residual()
        wrapper.primal_residual()
        # the dual step's u - v serves the primal residual
        assert len(calls) == 1


@pytest.mark.parametrize("const", [None, 0.3], ids=["adaptive", "constant"])
def test_iterate_writes_the_fields_in_place(const):
    img, _ = noisy_rectangles(24, seed=4)
    wrapper = SegmentState(img, seg_params(n_labels=3, beta=0.05, const=const))
    s = wrapper.s
    assert np.moveaxis(s.z, -1, 0).flags.c_contiguous  # component-planar
    # the first iteration turns a constant weight into a float
    wrapper.iterate()
    names = ("z", "r", "w", "u") + (("lam",) if const is None else ())
    arrays = {name: getattr(s, name) for name in names}
    for _ in range(3):
        wrapper.iterate()
        for name in names:
            assert getattr(s, name) is arrays[name], name
    assert np.shape(s.lam) == (() if const is not None else s.u.shape)


def test_adaptive_run_from_a_constant_runs_state():
    # A constant-weight run leaves lambda a float.  An adaptive run from
    # that state forms its weight field once and then writes it in place;
    # it matches the frozen label-by-label reference started from the
    # same state with lambda a field, since the weight step writes lambda
    # before anything reads it.
    img, _ = noisy_rectangles(32, seed=4)
    _, state, _ = run_segment(img, seg_params(n_labels=3, const=0.3, iters=4, tol=1e-15))
    assert isinstance(state.lam, float)
    ref = copy.deepcopy(state)
    ref.lam = np.full(ref.u.shape, ref.lam)
    ap = AdaptiveParams(beta=0.05, alpha=0.01, smoothing_sigma=1.5)
    sp = SolverParams(mu=0.5, eta=0.5, theta=1.0, adaptive=ap, max_iters=5, tol_primal=1e-15)
    params = SegmentParams(solver=sp, n_labels=3, tau_excl=0.5)
    energies = []
    _, out, _ = run_segment(img, params, state=state,
                            on_check=lambda wrapper, rec: energies.append(wrapper.energy()))
    assert out is state
    for energy in energies:
        segment_iterate_reference(ref, params)
        assert energy == segment_energy_reference(ref, params)
    assert len(energies) == 5
    for name in ("u", "v", "w", "r", "z", "lam", "c"):
        assert_same_bits(getattr(state, name), getattr(ref, name))


@pytest.mark.parametrize("const, bound", [(None, 32), (0.2, 27)], ids=["adaptive", "constant"])
def test_steady_state_allocation_is_bounded(const, bound):
    # Fresh memory of one iteration with its energy and residual, 4 labels
    # at 128^2, in fields: 50.1 (adaptive) and 44.6 (constant) while every
    # step made new fields, 30.1 and 24.6 with z, lambda, r, u and w
    # written in place.  numpy's iteration buffer is shrunk as in the
    # denoise guard.
    img, _ = noisy_rectangles(128, seed=0)
    ap = AdaptiveParams(beta=0.05, alpha=0.01, smoothing_sigma=1.5, constant_lambda=const)
    sp = SolverParams(mu=0.5, eta=0.5, theta=1.0, adaptive=ap, max_iters=10, tol_primal=1e-15)
    wrapper = SegmentState(img, SegmentParams(solver=sp, n_labels=4, tau_excl=0.5))
    for _ in range(2):
        wrapper.iterate()
        wrapper.energy()
        wrapper.primal_residual()
    bufsize = np.setbufsize(1024)
    tracemalloc.start()
    try:
        wrapper.iterate()
        wrapper.energy()
        wrapper.primal_residual()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        np.setbufsize(bufsize)
    assert peak < bound * img.nbytes


def test_run_segment_rejects_state_of_another_image():
    f = np.where(np.arange(16)[None, :] < 8, 0.2, 0.8) * np.ones((16, 16))
    params = seg_params(iters=2)
    other = f.copy()
    other[3, 3] = 0.5
    for g, n in ((other, 2), (f[:, :12], 2), (f, 3)):
        with pytest.raises(ValueError):
            run_segment(f, params, state=warm_start_labels(g, n))
    run_segment(f, params, state=warm_start_labels(f.copy(), 2))


def test_constant_image_collapses_to_shared_intensity():
    f = np.full((32, 32), 0.6)
    labels, st, hist = run_segment(f, seg_params(iters=10, tol=1e-15))
    assert np.allclose(st.c, 0.6, atol=1e-12)
    assert np.max(np.abs(st.v.sum(axis=0) - 1.0)) <= 1e-12
    assert np.all(st.u >= 0.0)
    assert set(np.unique(labels)) <= {0, 1}


def test_memberships_keep_invariants_during_run():
    clean = np.where(np.arange(48)[None, :] < 24, 0.25, 0.75) * np.ones((48, 48))
    f = add_gaussian_noise(clean, 0.05, seed=0)
    alpha = 0.01
    checks = []

    def grab(wrapper, rec):
        s = wrapper.s
        checks.append((
            float(s.u.min()),
            float(np.max(np.abs(s.v.sum(axis=0) - 1.0))),
            float(s.lam.min()),
            float(s.lam.max()),
        ))

    run_segment(f, seg_params(alpha=alpha, iters=40, tol=1e-15), on_check=grab)
    assert checks
    for umin, vdev, lmin, lmax in checks:
        assert umin >= 0.0
        assert vdev <= 1e-10
        assert 0.0 <= lmin
        assert lmax <= 1.0 - alpha


def test_two_region_smoke_high_accuracy():
    clean = np.where(np.arange(64)[None, :] < 32, 0.25, 0.75) * np.ones((64, 64))
    gt = ((np.arange(64)[None, :] >= 32) * np.ones((64, 64))).astype(np.int64)
    f = add_gaussian_noise(clean, 0.05, seed=0)
    labels, st, hist = run_segment(f, seg_params(iters=300))
    acc = max(float(np.mean(labels == gt)), float(np.mean(labels == 1 - gt)))
    assert acc >= 0.99
    assert hist[-1].iter <= 300


def test_run_segment_deterministic():
    img, _ = noisy_rectangles(48, seed=2)
    labels1, st1, h1 = run_segment(img, seg_params(n_labels=4, iters=25, tol=1e-15))
    labels2, st2, h2 = run_segment(img, seg_params(n_labels=4, iters=25, tol=1e-15))
    assert np.array_equal(labels1, labels2)
    assert np.array_equal(st1.u, st2.u)
    assert [r.primal_residual for r in h1] == [r.primal_residual for r in h2]
    assert math.isfinite(h1[-1].energy) and h1[-1].energy == h2[-1].energy
