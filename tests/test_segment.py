"""Multi-label segmentation: initialization, per-label updates, the
stacked iteration against a label-by-label reference, and membership
invariants."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from adaptreg import segment, solver
from adaptreg.grid import convolve_gaussian, divergence
from adaptreg.prox import project_stack_sum_to_one
from adaptreg.segment import (
    SegmentState,
    extract_labels,
    misfit,
    run_segment,
    update_c,
    update_u,
    update_v_all,
    warm_start_labels,
)
from adaptreg.synth import Splitmix64, add_gaussian_noise, noisy_rectangles
from helpers import (
    assemble_screened_matrix,
    assert_same_bits,
    divergence_reference,
    exclusivity_sum_reference,
    lloyd_1d_reference,
    random_label_state,
    seg_params,
    segment_energy_reference,
    segment_iterate_reference,
    warm_start_assignment_reference,
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


@pytest.mark.parametrize("n_labels", [2.5, 3.0, True], ids=["fraction", "float", "bool"])
def test_warm_start_rejects_a_label_count_that_is_not_an_integer(n_labels):
    with pytest.raises(ValueError, match="n_labels"):
        warm_start_labels(np.zeros((4, 4)), n_labels)


def test_warm_start_accepts_a_numpy_integer_label_count():
    u, c = warm_start_labels(np.zeros((4, 4)), np.int64(3))
    assert u.shape == (3, 4, 4)
    assert c.shape == (3,)


def test_warm_start_separates_two_levels():
    f = np.where(np.arange(32)[None, :] < 16, 0.2, 0.8) * np.ones((32, 32))
    u, c = warm_start_labels(f, 2)
    lab = np.argmax(u, axis=0)
    # the two centers straddle the levels and the assignment is exact
    assert abs(c[0] - 0.2) < 0.05
    assert abs(c[1] - 0.8) < 0.05
    assert np.array_equal(lab, (np.arange(32)[None, :] >= 16) * np.ones((32, 32), dtype=int))


def test_warm_start_is_deterministic():
    rng = Splitmix64(601)
    f = rng.uniforms(256).reshape(16, 16)
    a = warm_start_labels(f, 3)
    b = warm_start_labels(f, 3)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


LLOYD_IMAGES = {
    "rectangles-reseeded": (lambda: noisy_rectangles(128, seed=0)[0], 4),
    "constant": (lambda: np.full((12, 10), 0.6), 4),
    "two-level": (lambda: np.where(np.arange(32)[None, :] < 16, 0.2, 0.8) * np.ones((32, 32)), 4),
    "1x1": (lambda: np.full((1, 1), 0.3), 3),
}


@pytest.mark.parametrize("name", list(LLOYD_IMAGES))
def test_warm_start_equals_the_dense_lloyd_reference(name, monkeypatch):
    image, n = LLOYD_IMAGES[name]
    f = image()
    u, c = warm_start_labels(f, n)
    monkeypatch.setattr(segment, "_lloyd_1d", lloyd_1d_reference)
    u_ref, c_ref = warm_start_labels(f, n)
    assert_same_bits(u, u_ref)
    assert np.all(np.abs(c - c_ref) <= 4 * np.spacing(np.abs(c_ref)))


ASSIGNMENT_IMAGES = {
    **{"rectangles-%d" % seed: (lambda seed=seed: noisy_rectangles(128, seed=seed)[0], 4)
       for seed in range(6)},
    "constant": LLOYD_IMAGES["constant"],
    "1x1": LLOYD_IMAGES["1x1"],
}


@pytest.mark.parametrize("name", list(ASSIGNMENT_IMAGES))
def test_warm_start_assignment_equals_the_dense_reference(name):
    image, n = ASSIGNMENT_IMAGES[name]
    f = image()
    u, c = warm_start_labels(f, n)
    assert_same_bits(u, warm_start_assignment_reference(f, c))


@pytest.mark.parametrize(
    "centers",
    [[0.125, 0.375, 0.875], [0.2, 0.2, 0.7], sorted(Splitmix64(613).uniforms(5).tolist())],
    ids=["dyadic", "duplicate", "random"],
)
def test_warm_start_assignment_ties_on_midpoints_go_to_the_lower_index(centers, monkeypatch):
    # Values on the midpoint of each two adjacent centers (exact for the
    # dyadic ones, so both distances tie), a step to either side of it,
    # the centers themselves and values beyond them.
    c = np.array(centers)
    monkeypatch.setattr(segment, "_lloyd_1d", lambda values, seeds: c)
    mid = (c[:-1] + c[1:]) / 2.0
    values = np.concatenate([mid, np.nextafter(mid, -1.0), np.nextafter(mid, 2.0), c,
                             [-1.0, 0.0, 1.0, 2.0], Splitmix64(614).uniforms(40)])
    f = values.reshape(1, -1)
    u, c_out = warm_start_labels(f, len(c))
    assert c_out is c
    assert_same_bits(u, warm_start_assignment_reference(f, c))
    if centers[0] == 0.125:
        # 0.25 and 0.625 tie, and go to the lower of their two centers
        assert u[0, 0, 0] == 1.0 and u[1, 0, 1] == 1.0


@pytest.mark.parametrize(
    "name, counts",
    [("rectangles-reseeded", [4713, 2596, 9075, 0]), ("constant", [120, 0, 0, 0])],
)
def test_first_lloyd_iteration_empties_clusters(name, counts):
    # the fixtures above reach the reseed: one cluster empties at the
    # quantile seeds of the rectangles, three of the constant image
    image, n = LLOYD_IMAGES[name]
    fs = convolve_gaussian(image(), 1.0).ravel()
    seeds = np.quantile(fs, (np.arange(n) + 0.5) / n)
    start, stop = segment._runs(np.sort(fs), seeds)
    assert (stop - start).tolist() == counts


@pytest.mark.parametrize("seeds", [[0.25, 0.75], [0.75, 0.25], [0.5, 0.25, 0.75]],
                         ids=["ascending", "descending", "three"])
def test_lloyd_midpoint_ties_go_to_the_lower_index(seeds):
    # dyadic values, so every distance and midpoint is exact: 0.5 sits
    # on the midpoint of the seeds 0.25 and 0.75
    values = np.array([1.0, 0.5, 0.0, 0.75, 0.5, 0.25, 0.5])
    seeds = np.array(seeds)
    c = segment._lloyd_1d(values, seeds)
    assert np.all(np.abs(c - lloyd_1d_reference(values, seeds))
                  <= 4 * np.spacing(np.abs(c)))
    # and the first assignment is np.argmin's, ties to the lower index
    ordered = np.sort(values)
    assert np.array_equal(_run_labels(ordered, seeds),
                          np.argmin(np.abs(ordered[None] - seeds[:, None]), axis=0))


def _run_labels(ordered, centers):
    """The center whose run holds each sorted value, -1 where none does."""
    start, stop = segment._runs(ordered, centers)
    nearest = np.full(ordered.size, -1)
    for i, (a, b) in enumerate(zip(start, stop)):
        nearest[a:b] = i
    return nearest


def test_runs_assign_as_argmin_with_duplicate_and_unsorted_centers():
    rng = Splitmix64(612)
    values = np.sort(np.concatenate([np.round(rng.uniforms(400) * 64) / 64, rng.uniforms(100)]))
    for trial in range(40):
        n = 2 + trial % 5
        centers = np.round(rng.uniforms(n) * 16) / 16  # dyadic: exact midpoints, duplicates
        assert np.array_equal(_run_labels(values, centers),
                              np.argmin(np.abs(values[None] - centers[:, None]), axis=0))


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


def _constant_label_state(n, h, w, lam):
    rng = Splitmix64(613 + 10 * n + h * w)
    shape = (n, h, w)
    return SimpleNamespace(
        f=rng.uniforms(h * w).reshape(h, w),
        u=rng.uniforms(n * h * w).reshape(shape),
        v=rng.normals(n * h * w).reshape(shape) * 0.3 + 0.5,
        w=rng.normals(n * h * w).reshape(shape) * 0.1,
        z=rng.normals(n * h * w * 2).reshape(shape + (2,)) * 0.2,
        lam=lam,
    )


@pytest.mark.parametrize("lam", [0.0, 0.2, 1.0])
@pytest.mark.parametrize("h, w", [(1, 1), (1, 7), (7, 1), (2, 2), (9, 8)])
@pytest.mark.parametrize("n", [2, 3, 5])
def test_constant_weight_v_step_matches_per_label_exact_solves_then_projection(n, h, w, lam):
    st = _constant_label_state(n, h, w, lam)
    params = seg_params(n_labels=n)
    sp = params.solver
    xi = (1.0 - lam) / (sp.eta * sp.theta)
    rhs = st.u + st.w - xi * divergence_reference(st.z)
    ref = project_stack_sum_to_one(np.stack([solver.exact_screened_solve(r, xi) for r in rhs]))
    scratch, xi_buffer, rhs_buffer = solver.v_step_buffers(st.u.shape, st.u.shape)
    update_v_all(st, params, rhs=rhs_buffer, xi=xi_buffer, scratch=scratch)
    assert np.max(np.abs(st.v - ref)) <= 1e-13
    assert np.max(np.abs(np.sum(st.v, axis=0) - 1.0)) <= 4 * np.spacing(1.0)


@pytest.mark.parametrize("const", [0.3, None], ids=["constant", "weight-field"])
def test_constant_weight_v_step_solves_one_label_fewer_and_sweeps_none(const, monkeypatch):
    img, _ = noisy_rectangles(9, seed=4)
    img = img[:, :8]
    st = SegmentState(img, seg_params(3, beta=0.05, const=const, sigma=1.5))
    exact, swept = [], []
    for name, seen in (("exact_screened_solve", exact), ("_sweep", swept)):
        def spy(first, *args, real=getattr(solver, name), seen=seen, **kwargs):
            seen.append(first.shape)
            return real(first, *args, **kwargs)
        monkeypatch.setattr(solver, name, spy)
    for _ in range(3):
        st.iterate()
    if const is None:
        # the sweeps' planes hold the whole stack: 4 sub-lattices of 3 labels
        assert exact == [] and len(swept) == 3 and all(s[:2] == (4, 3) for s in swept)
    else:
        assert exact == [(2, 9, 8)] * 3 and swept == []


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
    _, c = warm_start_labels(f, 2)
    start = (np.stack([np.full((2, 2), 0.5), np.full((2, 2), 0.25)]), c)
    with_penalty = SegmentState(f, seg_params(n_labels=2, tau=1.0), start=start).energy()
    without = SegmentState(f, seg_params(n_labels=2, tau=0.0), start=start).energy()
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
    params = seg_params(n, beta=0.05, const=const, iters=6, tol=1e-15, sigma=sigma)
    sp = params.solver

    def start():
        u, c = warm_start_labels(img, n)
        if empty is not None:
            u[empty] = 0.0
        return SegmentState(img, params, start=(u, c))

    state = start()
    ref = start()
    for _ in range(6):
        state.iterate()
        segment_iterate_reference(ref, params)
        # the misfit kept across the iteration is the one of the current c, r
        assert np.array_equal(state.d, misfit(state, sp.mu))
        assert state.energy() == segment_energy_reference(ref, params)
    for name in ("u", "v", "w", "r", "z", "lam", "c"):
        assert np.array_equal(getattr(state, name), getattr(ref, name)), name
    assert state.degenerate_events == ref.degenerate_events
    assert (empty is not None) == bool(ref.degenerate_events)


def test_run_segment_rejects_state_of_another_image():
    f = np.where(np.arange(16)[None, :] < 8, 0.2, 0.8) * np.ones((16, 16))
    params = seg_params(iters=2)
    u, c = warm_start_labels(f, 2)
    for start in (warm_start_labels(f[:, :12], 2), warm_start_labels(f, 3), (u, c[:1])):
        with pytest.raises(ValueError, match="start"):
            run_segment(f, params, state=start)
    run_segment(f, params, state=warm_start_labels(f.copy(), 2))


@pytest.mark.parametrize(
    "bad",
    [
        lambda u, c: (u.astype(np.int64), c),
        lambda u, c: (u.astype(np.float32), c),
        lambda u, c: (u, np.arange(2)),
        lambda u, c: (np.where(u > 0, np.nan, u), c),
        lambda u, c: (u, np.array([0.2, np.inf])),
    ],
    ids=["int-u", "float32-u", "int-c", "nan-u", "inf-c"],
)
def test_start_must_be_finite_float64(bad):
    # An int u failed on the first iterate and an int c in the c-step; a
    # float32 u ran silently in float32.
    f = np.where(np.arange(16)[None, :] < 8, 0.2, 0.8) * np.ones((16, 16))
    with pytest.raises(ValueError, match="finite float64"):
        SegmentState(f, seg_params(), start=bad(*warm_start_labels(f, 2)))


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

    def grab(s, rec):
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
