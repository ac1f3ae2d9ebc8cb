"""Acceptance gate: one end-to-end check per shipped guarantee.

Each test prints a single `criterion NN <name>: PASS/FAIL (...)` line
before asserting, so running this file with `-s` doubles as a release
checklist.  The half-plane denoising experiment is computed once and
shared by the two criteria that consume it.
"""

import time
from pathlib import Path

import numpy as np
from helpers import (
    assemble_screened_matrix,
    make_scene,
    matched_accuracy,
    reference_color_wheel,
    sector_precisions,
)

from adaptreg.adaptive import AdaptiveParams
from adaptreg.cli import entry
from adaptreg.denoise import run_denoise
from adaptreg.flow import FlowParams, FlowState, run_flow
from adaptreg.flow import update_u as flow_update_u
from adaptreg.grid import divergence, gradient, laplacian
from adaptreg.imageio import color_wheel, read_flo, read_pnm, write_flo, write_pnm
from adaptreg.metrics import aae, aee, ssim
from adaptreg.prox import huber, moreau_envelope_bruteforce, shrink
from adaptreg.segment import SegmentParams, run_segment, warm_start_labels
from adaptreg.solver import SolverParams, rms, screened_solve
from adaptreg.synth import (
    Splitmix64,
    add_gaussian_noise,
    biased_noise_image,
    junction_image,
    noisy_rectangles,
    shifted_pair,
    smooth_texture,
)


def _report(num, name, ok, details):
    print("criterion %02d %s: %s (%s)" % (num, name, "PASS" if ok else "FAIL", details))


def test_criterion_01_operator_adjointness():
    rng = Splitmix64(1)
    start = time.perf_counter()
    worst = 0.0
    lap_bitwise = True
    for _ in range(100):
        u = rng.normals(16 * 16).reshape(16, 16)
        p = rng.normals(16 * 16 * 2).reshape(16, 16, 2)
        lhs = float(np.sum(gradient(u) * p))
        rhs = -float(np.sum(u * divergence(p)))
        worst = max(worst, abs(lhs - rhs))
        if not np.array_equal(laplacian(u), divergence(gradient(u))):
            lap_bitwise = False
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and lap_bitwise and elapsed < 1.0
    _report(1, "operator adjointness", ok,
            "max pairing gap %.2e, laplacian bitwise %s, %.2fs" % (worst, lap_bitwise, elapsed))
    assert ok


def test_criterion_02_huber_is_envelope_of_abs():
    rng = Splitmix64(2)
    x = rng.uniforms(200) * 6.0 - 3.0
    mu = rng.uniforms(200) * 1.95 + 0.05
    start = time.perf_counter()
    worst_val = 0.0
    worst_arg = 0.0
    for xv, mv in zip(x, mu):
        val, arg = moreau_envelope_bruteforce(float(xv), float(mv), 1e-4)
        worst_val = max(worst_val, abs(val - huber(xv, mv)))
        worst_arg = max(worst_arg, abs(arg - shrink(xv, mv)))
    elapsed = time.perf_counter() - start
    ok = worst_val <= 2e-4 and worst_arg <= 2e-4 and elapsed < 5.0
    _report(2, "huber envelope oracle", ok,
            "value gap %.2e, argmin gap %.2e, %.2fs" % (worst_val, worst_arg, elapsed))
    assert ok


def test_criterion_03_constant_image_is_a_fixed_point():
    f = np.full((32, 32), 0.4)
    ap = AdaptiveParams(beta=1.0, alpha=0.01)
    sp = SolverParams(mu=0.16, eta=0.08, theta=1.0, adaptive=ap, max_iters=50, tol_primal=1e-6)
    u, hist = run_denoise(f, sp)
    ok = (len(hist) == 1 and hist[0].iter == 1
          and hist[0].primal_residual == 0.0 and np.array_equal(u, f))
    _report(3, "constant fixed point", ok,
            "stopped at iter %d, residual %r" % (hist[-1].iter, hist[-1].primal_residual))
    assert ok


def test_criterion_04_weight_range_law():
    samples = []

    alpha_d = 0.1
    f = biased_noise_image(make_scene(32), 0.3, "half", seed=0)
    sp = SolverParams(mu=0.16, eta=0.08, theta=1.0,
                      adaptive=AdaptiveParams(beta=0.05, alpha=alpha_d, smoothing_sigma=2.0),
                      max_iters=40, tol_primal=1e-12)
    run_denoise(f, sp, on_check=lambda st, rec: samples.append((st.lam.copy(), alpha_d)))

    alpha_s = 0.01
    clean = np.where(np.arange(32)[None, :] < 16, 0.25, 0.75) * np.ones((32, 32))
    g = add_gaussian_noise(clean, 0.05, seed=0)
    sps = SolverParams(mu=0.5, eta=0.5, theta=1.0,
                       adaptive=AdaptiveParams(beta=10.0, alpha=alpha_s),
                       max_iters=40, tol_primal=1e-12)
    run_segment(g, SegmentParams(solver=sps, n_labels=2),
                on_check=lambda w, rec: samples.append((w.s.lam.copy(), alpha_s)))

    alpha_f = 0.01
    f1, f2, _ = shifted_pair(smooth_texture(32, seed=5), (1.0, 0.0))
    spf = SolverParams(mu=0.01, eta=0.3, theta=0.1,
                       adaptive=AdaptiveParams(beta=10.0, alpha=alpha_f),
                       max_iters=20, tol_primal=1e-12)
    run_flow(f1, f2, FlowParams(solver=spf, n_warps=2),
             on_check=lambda st, rec: samples.append((st.lam.copy(), alpha_f)))

    ok = bool(samples)
    for lam, alpha in samples:
        ok = ok and float(lam.min()) >= 0.0 and float(lam.max()) <= 1.0 - alpha
        # the cap 1 - alpha is itself rounded, so the complement's floor
        # is the complement of that cap, one rounding step below alpha
        comp_floor = 1.0 - (1.0 - alpha)
        ok = ok and float((1.0 - lam).min()) >= comp_floor
        ok = ok and float((1.0 - lam).max()) <= 1.0

    pinned = []
    spc = SolverParams(mu=0.16, eta=0.08, theta=1.0,
                       adaptive=AdaptiveParams(beta=1.0, alpha=0.0, constant_lambda=0.3),
                       max_iters=5, tol_primal=1e-300)
    run_denoise(f, spc, on_check=lambda st, rec: pinned.append(bool(np.all(st.lam == 0.3))))
    ok = ok and bool(pinned) and all(pinned)
    _report(4, "weight range law", ok,
            "%d weight fields sampled across denoise/segment/flow, constant mode pinned" % len(samples))
    assert ok


_HALF_PLANE = {}


def _half_plane_runs():
    if _HALF_PLANE:
        return _HALF_PLANE
    clean = make_scene(128)
    noisy = biased_noise_image(clean, 0.3, "half", seed=0)
    start = time.perf_counter()
    box = {}
    sp = SolverParams(mu=0.16, eta=0.08, theta=1.0,
                      adaptive=AdaptiveParams(beta=0.05, alpha=0.1, smoothing_sigma=2.0),
                      max_iters=400, tol_primal=1e-9)
    u, _ = run_denoise(noisy, sp, on_check=lambda st, rec: box.__setitem__("state", st))
    const_ssim = {}
    for cl in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
        spc = SolverParams(mu=0.16, eta=0.08, theta=1.0,
                           adaptive=AdaptiveParams(beta=1.0, alpha=0.0, constant_lambda=cl),
                           max_iters=300, tol_primal=1e-9)
        uc, _ = run_denoise(noisy, spc)
        const_ssim[cl] = ssim(uc, clean)
    _HALF_PLANE.update(
        adaptive_ssim=ssim(u, clean),
        const_ssim=const_ssim,
        lam=box["state"].lam.copy(),
        elapsed=time.perf_counter() - start,
    )
    return _HALF_PLANE


def test_criterion_05_adaptive_denoising_beats_constants():
    data = _half_plane_runs()
    best = max(data["const_ssim"].values())
    mid = data["const_ssim"][0.5]
    ok = (data["adaptive_ssim"] >= best - 0.005
          and data["adaptive_ssim"] >= mid + 0.01
          and data["elapsed"] < 30.0)
    _report(5, "adaptive denoising quality", ok,
            "adaptive ssim %.3f, best constant %.3f, lambda0=0.5 gives %.3f, %.1fs"
            % (data["adaptive_ssim"], best, mid, data["elapsed"]))
    assert ok


def test_criterion_06_weights_localize_noise():
    lam = _half_plane_runs()["lam"]
    gap = float(lam[:, :64].mean() - lam[:, 64:].mean())
    ok = gap >= 0.1
    _report(6, "weight localization", ok,
            "clean-half mean lambda exceeds noisy-half mean by %.3f" % gap)
    assert ok


def test_criterion_07_two_region_segmentation():
    clean = np.where(np.arange(128)[None, :] < 64, 0.25, 0.75) * np.ones((128, 128))
    gt = ((np.arange(128)[None, :] >= 64) * np.ones((128, 128))).astype(np.int64)
    f = add_gaussian_noise(clean, 0.05, seed=0)
    start = time.perf_counter()
    sp = SolverParams(mu=0.5, eta=0.5, theta=1.0,
                      adaptive=AdaptiveParams(beta=10.0, alpha=0.01),
                      max_iters=300, tol_primal=1e-6)
    labels, _, hist = run_segment(f, SegmentParams(solver=sp, n_labels=2))
    elapsed = time.perf_counter() - start
    acc = max(float(np.mean(labels == gt)), float(np.mean(labels == 1 - gt)))
    ok = acc >= 0.99 and hist[-1].iter <= 300 and elapsed < 20.0
    _report(7, "two-region segmentation", ok,
            "accuracy %.4f in %d iterations, %.1fs" % (acc, hist[-1].iter, elapsed))
    assert ok


def test_criterion_08_exclusivity_suppresses_overlap():
    img0, gt = junction_image(5, 128, disc_radius_frac=0.25, seed=0)
    img = add_gaussian_noise(img0, 0.05, seed=1)
    overlaps = {}
    labels_by_tau = {}
    for tau in (0.5, 0.0):
        sp = SolverParams(mu=0.5, eta=0.5, theta=1.0,
                          adaptive=AdaptiveParams(beta=10.0, alpha=0.01),
                          max_iters=200, tol_primal=1e-15)
        pr = SegmentParams(solver=sp, n_labels=4, tau_excl=tau)
        labels, st, _ = run_segment(img, pr, state=warm_start_labels(img, 4))
        # mean over pixels of sum_{i != j} u_i u_j, both orders
        overlaps[tau] = float(np.mean(np.sum(st.u, axis=0) ** 2 - np.sum(st.u**2, axis=0)))
        labels_by_tau[tau] = labels
    precs = sector_precisions(labels_by_tau[0.5], gt, disc_label=4)
    ok = overlaps[0.5] < overlaps[0.0] and min(precs) >= 0.95
    _report(8, "exclusivity penalty", ok,
            "overlap %.2e with penalty vs %.2e without, min sector precision %.4f"
            % (overlaps[0.5], overlaps[0.0], min(precs)))
    assert ok


def test_criterion_09_rectangles_adaptive_beats_constants():
    img, gt = noisy_rectangles(128, seed=0)
    accs = {}
    for name, ap in (
        ("adaptive", AdaptiveParams(beta=0.05, alpha=0.01, smoothing_sigma=1.5)),
        ("lambda02", AdaptiveParams(beta=1.0, alpha=0.01, constant_lambda=0.2)),
        ("lambda08", AdaptiveParams(beta=1.0, alpha=0.01, constant_lambda=0.8)),
    ):
        sp = SolverParams(mu=0.5, eta=0.5, theta=1.0, adaptive=ap,
                          max_iters=300, tol_primal=1e-6)
        pr = SegmentParams(solver=sp, n_labels=4, tau_excl=0.5)
        labels, _, _ = run_segment(img, pr, state=warm_start_labels(img, 4))
        accs[name] = matched_accuracy(labels, gt)
    ok = (accs["adaptive"] >= accs["lambda02"] + 0.01
          and accs["adaptive"] >= accs["lambda08"] + 0.01)
    _report(9, "rectangle label accuracy", ok,
            "adaptive %.4f vs constants %.4f / %.4f"
            % (accs["adaptive"], accs["lambda02"], accs["lambda08"]))
    assert ok


def test_criterion_10_small_shift_flow():
    f1, f2, gt = shifted_pair(smooth_texture(128, seed=5), (1.0, 0.0))
    start = time.perf_counter()
    sp = SolverParams(mu=0.01, eta=0.3, theta=0.1,
                      adaptive=AdaptiveParams(beta=10.0, alpha=0.01),
                      max_iters=50, tol_primal=1e-9)
    u, _ = run_flow(f1, f2, FlowParams(solver=sp, tau0=0.5, dtau=0.005, n_warps=10))
    elapsed = time.perf_counter() - start
    err_e = aee(u, gt)
    err_a = aae(u, gt)
    ok = err_e < 0.3 and err_a < 0.15 and elapsed < 30.0
    _report(10, "unit-shift flow recovery", ok,
            "aee %.4f px, aae %.4f rad, %.1fs" % (err_e, err_a, elapsed))
    assert ok


def test_criterion_11_annealed_warps_match_plain():
    f1, f2, gt = shifted_pair(smooth_texture(128, seed=5), (4.0, 0.0))
    sp = SolverParams(mu=0.01, eta=0.3, theta=0.1,
                      adaptive=AdaptiveParams(beta=10.0, alpha=0.01),
                      max_iters=50, tol_primal=1e-9)
    u_annealed, _ = run_flow(f1, f2, FlowParams(solver=sp, tau0=0.5, dtau=0.005, n_warps=10))
    u_fixed, _ = run_flow(f1, f2, FlowParams(solver=sp, tau0=1.0, dtau=0.0, n_warps=10))
    err_annealed = aee(u_annealed, gt)
    err_fixed = aee(u_fixed, gt)
    ok = err_annealed <= err_fixed
    _report(11, "warp annealing", ok,
            "annealed aee %.4f vs fixed-mix %.4f at equal budget" % (err_annealed, err_fixed))
    assert ok


def test_criterion_12_pointwise_flow_solve_matches_inversion():
    rng = Splitmix64(21)
    n = 100
    sp = SolverParams(mu=0.5, eta=0.3, theta=1.0,
                      adaptive=AdaptiveParams(beta=1.0, alpha=0.01))
    st = FlowState(np.zeros((n, n)), np.zeros((n, n)), FlowParams(solver=sp))
    st.v = rng.normals(n * n * 2).reshape(n, n, 2)
    st.w = rng.normals(n * n * 2).reshape(n, n, 2)
    st.A = rng.normals(n * n * 2).reshape(n, n, 2)
    st.ft = rng.normals(n * n).reshape(n, n)
    st.r = rng.normals(n * n).reshape(n, n)
    st.lam = rng.uniforms(n * n).reshape(n, n) * 0.99
    st.lam[0, :50] = 0.0
    st.A[1, :50, :] = 0.0
    u = flow_update_u(st, sp)
    mu_theta = sp.mu * sp.theta
    mat = np.zeros((n, n, 2, 2))
    mat[..., 0, 0] = mu_theta + st.lam * st.A[..., 0] ** 2
    mat[..., 0, 1] = st.lam * st.A[..., 0] * st.A[..., 1]
    mat[..., 1, 0] = mat[..., 0, 1]
    mat[..., 1, 1] = mu_theta + st.lam * st.A[..., 1] ** 2
    b = mu_theta * (st.v - st.w) + (st.lam * (st.ft - st.r))[..., None] * st.A
    ref = np.linalg.solve(mat, b[..., None])[..., 0]
    worst = float(np.max(np.abs(u - ref)))
    ok = worst <= 1e-12
    _report(12, "pointwise flow solve", ok,
            "max deviation %.2e over %d instances with degenerate rows" % (worst, n * n))
    assert ok


def test_criterion_13_sweep_solver_matches_dense():
    rng = Splitmix64(13)
    worst = 0.0
    for _ in range(5):
        xi = rng.uniforms(64).reshape(8, 8) * 3.0
        rhs = rng.normals(64).reshape(8, 8)
        v = screened_solve(rhs, xi, np.zeros((8, 8)), sweeps=500)
        ref = np.linalg.solve(assemble_screened_matrix(xi), rhs.ravel()).reshape(8, 8)
        worst = max(worst, rms(v - ref))
    ok = worst <= 1e-6
    _report(13, "screened sweep solver", ok, "worst rms deviation %.2e" % worst)
    assert ok


def test_criterion_14_file_round_trips(tmp_path):
    rng = Splitmix64(14)
    img = rng.uniforms(24 * 17).reshape(24, 17)
    pnm_ok = True
    for maxval in (255, 65535):
        p1 = tmp_path / ("a%d.pgm" % maxval)
        p2 = tmp_path / ("b%d.pgm" % maxval)
        write_pnm(p1, img, maxval=maxval)
        back = read_pnm(p1)
        pnm_ok = pnm_ok and np.array_equal(back, np.rint(np.clip(img, 0.0, 1.0) * maxval) / maxval)
        write_pnm(p2, back, maxval=maxval)
        pnm_ok = pnm_ok and p1.read_bytes() == p2.read_bytes()
    u = rng.normals(9 * 7 * 2).reshape(9, 7, 2).astype(np.float32).astype(np.float64)
    q1 = tmp_path / "u.flo"
    q2 = tmp_path / "v.flo"
    write_flo(q1, u)
    flo_ok = np.array_equal(read_flo(q1), u)
    write_flo(q2, read_flo(q1))
    flo_ok = flo_ok and q1.read_bytes() == q2.read_bytes()
    wheel_ok = np.array_equal(color_wheel(), reference_color_wheel())
    ok = pnm_ok and flo_ok and wheel_ok
    _report(14, "file round-trips", ok,
            "pnm quantization-exact %s, flo bitwise %s, wheel table %s" % (pnm_ok, flo_ok, wheel_ok))
    assert ok


def test_criterion_15_thread_flag_determinism(tmp_path):
    side = np.where(np.arange(48)[None, :] < 24, 0.25, 0.75)
    clean = side * np.ones((48, 1))
    noisy_path = tmp_path / "noisy.pgm"
    write_pnm(noisy_path, add_gaussian_noise(clean, 0.08, seed=0))
    tex = smooth_texture(32, seed=5)
    f1, f2, _ = shifted_pair(tex, (1.0, 0.0))
    p1 = tmp_path / "f1.pgm"
    p2 = tmp_path / "f2.pgm"
    write_pnm(p1, f1)
    write_pnm(p2, f2)

    outputs = {}
    for threads in ("1", "4"):
        tag = str(tmp_path / ("t%s" % threads))
        rc = [
            entry(["denoise", "--input", str(noisy_path), "--output", tag + "_d.pgm",
                   "--iters", "30", "--threads", threads]),
            entry(["segment", "--input", str(noisy_path), "--labels", "2", "--iters", "30",
                   "--out-labels", tag + "_s.pgm", "--out-json", tag + "_s.json",
                   "--threads", threads]),
            entry(["flow", "--frame1", str(p1), "--frame2", str(p2),
                   "--out-flo", tag + "_f.flo", "--warps", "2", "--iters", "15",
                   "--threads", threads]),
        ]
        assert rc == [0, 0, 0]
        outputs[threads] = [
            Path(tag + suffix).read_bytes()
            for suffix in ("_d.pgm", "_s.pgm", "_s.json", "_f.flo")
        ]
    ok = outputs["1"] == outputs["4"]
    _report(15, "thread-count determinism", ok,
            "denoise, segment, and flow outputs byte-identical across --threads 1 and 4")
    assert ok
