"""Shared fixtures and independent oracles for the test suite."""

from types import SimpleNamespace

import numpy as np

from adaptreg.adaptive import AdaptiveParams
from adaptreg.denoise import DenoiseState
from adaptreg.flow import FlowParams, FlowState
from adaptreg.grid import gaussian_kernel, gradient
from adaptreg.metrics import match_labels
from adaptreg.segment import (
    DEGENERATE_REGION_WEIGHT,
    SegmentParams,
    SegmentState,
    misfit,
    update_v_all,
)
from adaptreg.solver import SolverParams, rms
from adaptreg.synth import Splitmix64, biased_noise_image, noisy_rectangles, shifted_pair, smooth_texture


def assert_same_bits(out, ref):
    """out equals ref bitwise, sign of zero included; NaN must land on the
    same entries, but its payload may differ."""
    assert type(out) is type(ref)
    out = np.asarray(out)
    ref = np.asarray(ref)
    assert out.shape == ref.shape
    nan = np.isnan(ref)
    assert np.array_equal(np.isnan(out), nan)
    assert np.array_equal(out[~nan], ref[~nan])
    assert np.array_equal(np.signbit(out[~nan]), np.signbit(ref[~nan]))


def moreau_envelope_bruteforce(x: float, mu: float, grid_step: float):
    """Brute-force minimization of |r| + (x - r)^2/(2 mu) over a dense r grid.

    Returns (value, argmin).  Serves as the oracle that the envelope
    equals huber(x, mu) and the minimizer equals shrink(x, mu).
    """
    if grid_step <= 0:
        raise ValueError("grid step must be positive")
    hi = abs(x) + mu
    n = int(np.floor(2.0 * hi / grid_step)) + 1
    r = -hi + grid_step * np.arange(n + 1, dtype=np.float64)
    values = np.abs(r) + (x - r) ** 2 / (2.0 * mu)
    i = int(np.argmin(values))
    return float(values[i]), float(r[i])


def make_scene(n):
    """Piecewise-constant test card: two bar gratings on the left half,
    two flat patches on the right."""
    clean = np.full((n, n), 0.5)
    half = n // 2
    colbar = (np.arange(half) // 4) % 2
    rowbar = (np.arange(n) // 4) % 2
    r0, r1 = n // 16, half - n // 32
    r2, r3 = half + n // 32, n - n // 16
    clean[r0:r1, :half] = np.where(colbar[None, :], 0.65, 0.35)
    clean[r2:r3, :half] = np.where(rowbar[r2:r3, None], 0.65, 0.35)
    clean[:half, half:] = 0.30
    clean[half:, half:] = 0.70
    return clean


def matched_accuracy(pred, gt):
    """Pixel accuracy after greedy label matching."""
    m = match_labels(pred, gt)
    correct = 0
    for p, g in m.items():
        correct += int(np.count_nonzero((pred == p) & (gt == g)))
    return correct / gt.size


# Frozen label matching and scores, as they were before the package
# formed both from one table of label-pair counts: a sorted-key greedy
# claim, and count passes over the maps per matched label.


def match_labels_reference(pred, gt):
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    pairs, counts = np.unique(np.stack([pred.ravel(), gt.ravel()]), axis=1, return_counts=True)
    order = sorted(range(len(counts)), key=lambda k: (-counts[k], pairs[0, k], pairs[1, k]))
    mapping = {}
    used_gt = set()
    for k in order:
        p, g = int(pairs[0, k]), int(pairs[1, k])
        if p not in mapping and g not in used_gt:
            mapping[p] = g
            used_gt.add(g)
    return mapping


def label_scores_reference(pred, gt):
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    mapping = match_labels_reference(pred, gt)
    correct = pred_total = gt_total = 0
    for p, g in mapping.items():
        sel = pred == p
        correct += int(np.count_nonzero(sel & (gt == g)))
        pred_total += int(np.count_nonzero(sel))
    for g in set(mapping.values()):
        gt_total += int(np.count_nonzero(gt == g))
    precision = correct / pred_total if pred_total else 0.0
    recall = correct / gt_total if gt_total else 0.0
    f_measure = 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f_measure


def sector_precisions(labels, gt, disc_label=4):
    """Per-sector precision on the junction fixture, disc masked out."""
    mask = gt != disc_label
    m = match_labels(np.where(mask, labels, -1), np.where(mask, gt, -1))
    precs = []
    for s in range(disc_label):
        matched = [k for k, v in m.items() if v == s]
        if not matched:
            return [0.0]
        sel = (labels == matched[0]) & mask
        precs.append(
            np.count_nonzero(sel & (gt == s)) / max(np.count_nonzero(sel), 1)
        )
    return precs


def assemble_screened_matrix(xi):
    """Dense (1 - xi * laplacian) with replicate boundary, row-scaled the
    same way as the sweep solver (xi evaluated at the row's pixel)."""
    h, wd = xi.shape
    n = h * wd
    mat = np.zeros((n, n))
    cnt = np.full((h, wd), 4.0)
    cnt[0, :] -= 1
    cnt[-1, :] -= 1
    cnt[:, 0] -= 1
    cnt[:, -1] -= 1
    for y in range(h):
        for x in range(wd):
            p = y * wd + x
            mat[p, p] = 1.0 + xi[y, x] * cnt[y, x]
            for dy, dx in ((0, 1), (0, -1), (1, 0), (-1, 0)):
                yy, xx = y + dy, x + dx
                if 0 <= yy < h and 0 <= xx < wd:
                    mat[p, yy * wd + xx] -= xi[y, x]
    return mat


def screened_sweep_reference(rhs, xi, v0, sweeps):
    """Mixed-precision red-black Gauss-Seidel for (1 - xi * laplacian) v
    = rhs on one (H, W) grid.  In chunks of at most 20 sweeps: the
    float64 defect d = rhs - (v - xi laplacian v), full-grid float32
    sweeps on (1 - xi laplacian) e = d from e = 0, and v + e in float64,
    with rhs kept where xi = 0.  Each half sweep computes the update
    everywhere from zero-filled neighbor copies and keeps its color
    through a parity mask.  sweeps = 0 returns v0.  Same update formula,
    e = T g + d/(1 + xi c) with g = xi/(1 + xi c), and neighbor sum
    T = ((left + right) + up) + down as the package solver, so the two
    agree bitwise."""
    v = np.array(v0, dtype=np.float64, copy=True)
    h, w = v.shape
    xi = np.broadcast_to(xi, (h, w))
    cnt = np.full((h, w), 4.0, dtype=np.float32)
    cnt[0, :] -= 1
    cnt[-1, :] -= 1
    cnt[:, 0] -= 1
    cnt[:, -1] -= 1
    parity = (np.add.outer(np.arange(h), np.arange(w)) % 2) == 0
    xi32 = xi.astype(np.float32)
    den = np.float32(1.0) + xi32 * cnt
    gain = xi32 / den
    fixed = xi == 0.0
    done = 0
    while done < sweeps:
        chunk = min(20, sweeps - done)
        d = (rhs - (v - xi * laplacian_reference(v))).astype(np.float32) / den
        e = np.zeros((h, w), dtype=np.float32)
        for _ in range(chunk):
            for mask in (parity, ~parity):
                left = np.zeros_like(e)
                left[:, 1:] = e[:, :-1]
                right = np.zeros_like(e)
                right[:, :-1] = e[:, 1:]
                up = np.zeros_like(e)
                up[1:, :] = e[:-1, :]
                down = np.zeros_like(e)
                down[:-1, :] = e[1:, :]
                t = ((left + right) + up) + down
                enew = t * gain + d
                e[mask] = enew[mask]
        v = v + e.astype(np.float64)
        v[fixed] = rhs[fixed]
        done += chunk
    return v


# Frozen textbook formulas of the pointwise kernels, written with one
# full-size temporary per operation and np.sum over the component axis.
# The package kernels must equal them bitwise.


def huber_reference(x, mu):
    x = np.asarray(x, dtype=np.float64)
    ax = np.abs(x)
    out = np.where(ax <= mu, x * x / (2.0 * mu), ax - mu / 2.0)
    return out if out.ndim else float(out)


def huber_vec_reference(v, mu):
    v = np.asarray(v, dtype=np.float64)
    return huber_reference(np.sqrt(np.sum(v * v, axis=-1)), mu)


def envelope_reference(x, r, mu):
    x = np.asarray(x, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    out = np.abs(r) + (x - r) ** 2 / (2.0 * mu)
    return out if out.ndim else float(out)


def shrink_reference(x, t):
    x = np.asarray(x, dtype=np.float64)
    out = np.sign(x) * np.maximum(np.abs(x) - t, 0.0)
    return out if out.ndim else float(out)


def shrink_vec_reference(v, t):
    v = np.asarray(v, dtype=np.float64)
    norm = np.sqrt(np.sum(v * v, axis=-1))
    factor = np.maximum(0.0, 1.0 - t / np.where(norm > 0.0, norm, 1.0))
    return v * factor[..., None]


def convolve_axis_reference(u, k, radius, axis):
    padding = [(0, 0)] * u.ndim
    padding[axis] = (radius, radius)
    padded = np.pad(u, padding, mode="symmetric")
    n = u.shape[axis]
    acc = np.zeros_like(u)
    for t, weight in enumerate(k):
        if axis == -1:
            acc += weight * padded[..., t : t + n]
        else:
            acc += weight * padded[..., t : t + n, :]
    return acc


def convolve_gaussian_reference(u, sigma):
    if sigma == 0:
        return u.copy()
    k = gaussian_kernel(sigma)
    radius = (len(k) - 1) // 2
    return convolve_axis_reference(convolve_axis_reference(u, k, radius, -1), k, radius, -2)


# Frozen stencils and exact solve, written slice by slice over the
# (H, W) axes with a zeroed field per pass.  The package versions run
# flat over (..., H*W) and must equal these bitwise, sign of zero
# included.


def gradient_reference(u):
    g = np.zeros(u.shape + (2,), dtype=np.float64)
    g[..., :, :-1, 0] = u[..., :, 1:] - u[..., :, :-1]
    g[..., :-1, :, 1] = u[..., 1:, :] - u[..., :-1, :]
    return g


def divergence_reference(p):
    h, w = p.shape[-3:-1]
    px = p[..., 0]
    py = p[..., 1]
    d = np.zeros(p.shape[:-1], dtype=np.float64)
    if w >= 2:
        d[..., :, 0] += px[..., :, 0]
        d[..., :, 1:-1] += px[..., :, 1:-1] - px[..., :, :-2]
        d[..., :, -1] -= px[..., :, -2]
    if h >= 2:
        d[..., 0, :] += py[..., 0, :]
        d[..., 1:-1, :] += py[..., 1:-1, :] - py[..., :-2, :]
        d[..., -1, :] -= py[..., -2, :]
    return d


def laplacian_reference(u):
    h, w = u.shape[-2:]
    d = np.zeros(u.shape, dtype=np.float64)
    if w >= 2:
        px = u[..., :, 1:] - u[..., :, :-1]
        d[..., :, :-1] += px
        d[..., :, 1:] -= px
    if h >= 2:
        py = u[..., 1:, :] - u[..., :-1, :]
        d[..., 0, :] += py[..., 0, :]
        d[..., 1:-1, :] += py[..., 1:, :] - py[..., :-1, :]
        d[..., -1, :] -= py[..., -1, :]
    return d


def _twiddle_reference(n):
    return np.exp(-0.5j * np.pi / n * np.arange(n // 2 + 1))


def _even_odd_reference(x, axis):
    out = np.empty(x.shape)
    src, dst = np.moveaxis(x, axis, -1), np.moveaxis(out, axis, -1)
    m = (src.shape[-1] + 1) // 2
    dst[..., :m] = src[..., ::2]
    dst[..., m:] = src[..., 1::2][..., ::-1]
    return out


def _natural_reference(v, axis, out):
    src, dst = np.moveaxis(v, axis, -1), np.moveaxis(out, axis, -1)
    m = (src.shape[-1] + 1) // 2
    dst[..., ::2] = src[..., :m]
    dst[..., 1::2][..., ::-1] = src[..., m:]
    return out


def _dct_rows_reference(x):
    n = x.shape[-1]
    m = (n + 1) // 2
    z = np.fft.rfft(_even_odd_reference(x, -1), axis=-1)
    z *= _twiddle_reference(n)
    out = np.empty(x.shape)
    out[..., : n // 2 + 1] = z.real
    np.multiply(z.imag[..., 1:m], -1.0, out=out[..., n - 1 : n - m : -1])
    return out


def _idct_rows_reference(c):
    n = c.shape[-1]
    half = n // 2 + 1
    z = np.empty(c.shape[:-1] + (half,), dtype=np.complex128)
    z.real = c[..., :half]
    z.imag[..., 0] = 0.0
    np.multiply(c[..., n - 1 : n - half : -1], -1.0, out=z.imag[..., 1:])
    z *= _twiddle_reference(n).conj()
    return _natural_reference(np.fft.irfft(z, n=n, axis=-1), -1, np.empty(c.shape))


def exact_screened_solve_reference(rhs, xi):
    """The DCT solve in residual form, rhs + IDCT(h DCT(rhs - corner)),
    with the corner shift and every even-odd reorder as its own pass."""
    h, w = rhs.shape[-2:]
    kappa = [4.0 * np.sin(0.5 * np.pi / n * np.arange(n)) ** 2 for n in (h, w)]
    gain = np.add.outer(*kappa)
    gain *= xi
    # h = -xi k / (1 + xi k) as -1 / (1 + 1 / (xi k)), 0 where xi k is
    with np.errstate(divide="ignore"):
        gain = -1.0 / (1.0 + 1.0 / gain)
    half = h // 2 + 1
    g_imag = gain[-np.arange(half)]
    twiddle = _twiddle_reference(h)[:, None]
    rows = _dct_rows_reference(rhs - rhs[..., :1, :1])
    z = np.fft.rfft(_even_odd_reference(rows, -2), axis=-2)
    z *= twiddle
    z.real *= gain[:half]
    z.imag *= g_imag
    z *= twiddle.conj()
    _natural_reference(np.fft.irfft(z, n=h, axis=-2), -2, rows)
    out = _idct_rows_reference(rows)
    out += rhs
    return out


def flow_update_u_reference(state, params):
    """The per-pixel flow u-solve in closed form, one correction along A
    from v - w, as written on interleaved (H, W, 2) fields with (H, W)
    factors broadcast over a trailing axis."""
    a = state.A
    base = state.v - state.w
    gap = state.ft - state.r - a[..., 0] * base[..., 0] - a[..., 1] * base[..., 1]
    asq = a[..., 0] * a[..., 0] + a[..., 1] * a[..., 1]
    gain = state.lam * gap / (params.mu * params.theta + state.lam * asq)
    return base + gain[..., None] * a


def weight_fields_reference(rho, params):
    """Fidelity weight lambda from the frozen smoothing and shrink
    formulas; a constant weight is a float."""
    rho = np.asarray(rho, dtype=np.float64)
    if params.constant_lambda is not None:
        return float(params.constant_lambda)
    nu = np.exp(-convolve_gaussian_reference(rho, params.smoothing_sigma) / params.beta)
    return shrink_reference(nu, params.alpha)


def lloyd_1d_reference(values, centers, iters=50):
    """The dense 1-D k-means of segment._lloyd_1d before it sorted the
    values, frozen: every iteration forms all |v - c| and takes
    np.argmin over the centers; a center whose cluster empties is
    reseeded at the value farthest from all of the iteration's
    centers."""
    centers = centers.astype(np.float64).copy()
    for _ in range(iters):
        dist = np.abs(values[None, :] - centers[:, None])
        nearest = np.argmin(dist, axis=0)
        moved = 0.0
        for i in range(len(centers)):
            member = values[nearest == i]
            if member.size:
                new = member.mean()
            else:
                new = values[np.argmax(np.min(dist, axis=0))]
            moved = max(moved, abs(new - centers[i]))
            centers[i] = new
        if moved < 1e-12:
            break
    return np.sort(centers)


def warm_start_assignment_reference(f, c):
    """The one-hot memberships of segment.warm_start_labels before it
    looked pixels up among runs of sorted values, frozen: the dense
    (n, H, W) np.argmin of |f - c_i| over the centers, ties to the lower
    index, and a one-hot compare."""
    assignment = np.argmin(np.abs(f[None] - c[:, None, None]), axis=0)
    return (assignment[None] == np.arange(len(c))[:, None, None]).astype(np.float64)


def _label_misfit(s, i, mu):
    return envelope_reference(s.f - s.c[i], s.r[i], mu)


def exclusivity_sum_reference(u, i):
    """Sum of the memberships of every label but i, in the grouping of the
    u-step: (u_0 + ... + u_{i-1}) in ascending order from +0.0, plus
    u_{i+1} + ... + u_{n-1} summed from the last label down.  np.sum over
    the label axis adds one label at a time, and reversing the labels
    gives the descending order."""
    return np.sum(u[:i], axis=0) + np.sum(u[i + 1 :][::-1], axis=0)


def segment_iterate_reference(s, params):
    """One segmentation iteration on the fields of s (a SegmentState or
    a namespace with its fields), label by label.

    For label i in ascending order: weights, region value, r, z and u,
    each from that label's own (H, W) fields; then the shared v-step and
    the dual step.  This is the step order the stacked iteration must
    reproduce bitwise."""
    sp = params.solver
    s.iteration += 1
    labels = np.arange(s.n_labels)
    for i in labels:
        d = _label_misfit(s, i, sp.mu)
        lam = weight_fields_reference(d * s.u[i], sp.adaptive)
        if np.ndim(lam):
            s.lam[i] = lam
        else:
            s.lam = lam  # a constant weight stays a float, so xi is a scalar
        weights = lam * s.u[i]
        den = float(np.sum(weights))
        if den <= DEGENERATE_REGION_WEIGHT:
            s.degenerate_events.append((s.iteration, int(i)))
        else:
            s.c[i] = float(np.sum(weights * (s.f - s.r[i]))) / den
        s.r[i] = shrink_reference(s.f - s.c[i], sp.mu)
        s.z[i] = shrink_vec_reference(gradient(s.v[i]), sp.eta)
        d = _label_misfit(s, i, sp.mu)
        others = exclusivity_sum_reference(s.u, i)
        s.u[i] = np.maximum(
            0.0,
            s.v[i] - s.w[i] - (lam / sp.theta) * d - (params.tau_excl / sp.theta) * others,
        )
    update_v_all(s, params)
    s.w = s.w + (s.u - s.v)


def segment_energy_reference(s, params):
    """Segmentation energy from per-label terms: the data terms of all
    labels, stacked and summed, plus the stacked regularizer terms."""
    sp = params.solver
    lam = np.broadcast_to(s.lam, s.u.shape)
    data = np.stack([lam[i] * _label_misfit(s, i, sp.mu) * s.u[i] for i in range(s.n_labels)])
    reg = np.stack([
        (1.0 - lam[i]) * huber_vec_reference(gradient(s.v[i]), sp.eta) for i in range(s.n_labels)
    ])
    total = float(np.sum(data) + np.sum(reg))
    overlap = (np.sum(s.u, axis=0) ** 2 - np.sum(s.u**2, axis=0)) / 2.0
    return total + params.tau_excl * float(np.sum(overlap))


def split_weight_reference(adaptive):
    """The weight omega of the split z = grad v: the least regularizer
    weight 1 - lambda (1 - constant_lambda, or alpha for a weight field),
    or 1 where that is 0."""
    least = adaptive.alpha if adaptive.constant_lambda is None else 1.0 - adaptive.constant_lambda
    return least if least > 0.0 else 1.0


def huber_prox_reference(x, t, mu):
    """The minimizer of t phi_mu(d) + (d - x)^2/2, as one formula."""
    return x * (1.0 - t / np.maximum(np.abs(x), mu + t))


def huber_prox_vec_reference(v, t, mu):
    """The minimizer of t phi_mu(|d|) + |d - v|^2/2 over 2-vectors."""
    norm = np.sqrt(v[..., 0] * v[..., 0] + v[..., 1] * v[..., 1])
    factor = 1.0 - t / np.maximum(norm, mu + t)
    return np.stack((v[..., 0] * factor, v[..., 1] * factor), axis=-1)


def denoise_iterate_reference(s, params):
    """One denoising iteration on the fields of s (f, u, v, w, r, z, y,
    lam), in the documented step order, from the textbook formulas with
    one fresh temporary per operation: no buffer is reused, no
    intermediate shared.  z and y come out interleaved; a constant weight
    stays a float."""
    mu, eta, theta = params.mu, params.eta, params.theta
    omega = split_weight_reference(params.adaptive)
    rho = omega / eta
    p = gradient_reference(s.v) - s.y
    q = s.f - s.u
    s.lam = weight_fields_reference(envelope_reference(q, s.r, mu), params.adaptive)
    t = (1.0 - s.lam) / rho
    s.z = huber_prox_vec_reference(p, t, eta)
    s.r = shrink_reference(q, mu)
    base = s.v - s.w
    s.u = base + s.lam * ((s.f - s.r) - base) / (s.lam + mu * theta)
    xi = omega / (eta * theta)
    rhs = s.u + s.w - xi * divergence_reference(s.z + s.y)
    s.v = exact_screened_solve_reference(rhs, xi)
    s.w = s.w + (s.u - s.v)
    s.y = (s.y + s.z) - gradient_reference(s.v)


def denoise_energy_reference(s, params):
    """Denoising energy of the fields of s, data term first."""
    data = s.lam * huber_reference(s.f - s.u, params.mu)
    reg = (1.0 - s.lam) * huber_vec_reference(gradient_reference(s.v), params.eta)
    return float(np.sum(data) + np.sum(reg))


def reference_color_wheel():
    """Independent 55-entry flow color wheel, built segment by segment."""
    segments = ((15, "RY"), (6, "YG"), (4, "GC"), (11, "CB"), (13, "BM"), (6, "MR"))
    rows = []
    for count, name in segments:
        for i in range(count):
            t = np.floor(255.0 * i / count)
            rows.append({
                "RY": (255, t, 0),
                "YG": (255 - t, 255, 0),
                "GC": (0, 255, t),
                "CB": (0, 255 - t, 255),
                "BM": (t, 0, 255),
                "MR": (255, 0, 255 - t),
            }[name])
    return np.array(rows, dtype=np.float64)


def filter_valid_reference(img, kernel):
    """Separable valid-mode correlation with a symmetric 1-D kernel,
    down the columns first."""
    n = kernel.size
    out = np.zeros((img.shape[0] - n + 1, img.shape[1]))
    for t in range(n):
        out += kernel[t] * img[t : t + out.shape[0], :]
    out2 = np.zeros((out.shape[0], img.shape[1] - n + 1))
    for t in range(n):
        out2 += kernel[t] * out[:, t : t + out2.shape[1]]
    return out2


def ssim_valid_reference(u, ref):
    """SSIM's formula over valid-mode window means, in the package's
    operation order."""
    kernel = gaussian_kernel(1.5)
    c1, c2 = 0.01**2, 0.03**2
    mu1 = filter_valid_reference(u, kernel)
    mu2 = filter_valid_reference(ref, kernel)
    s11 = filter_valid_reference(u * u, kernel) - mu1 * mu1
    s22 = filter_valid_reference(ref * ref, kernel) - mu2 * mu2
    s12 = filter_valid_reference(u * ref, kernel) - mu1 * mu2
    num = (2.0 * mu1 * mu2 + c1) * (2.0 * s12 + c2)
    den = (mu1 * mu1 + mu2 * mu2 + c1) * (s11 + s22 + c2)
    return float(np.mean(num / den))


def ssim_direct(a, b):
    """Windowed SSIM computed patch by patch, no separable shortcuts."""
    k = gaussian_kernel(1.5)
    half = k.size // 2
    c1, c2 = 0.01**2, 0.03**2
    w2 = np.outer(k, k)
    vals = []
    for y in range(half, a.shape[0] - half):
        for x in range(half, a.shape[1] - half):
            pa = a[y - half : y + half + 1, x - half : x + half + 1]
            pb = b[y - half : y + half + 1, x - half : x + half + 1]
            m1 = np.sum(w2 * pa)
            m2 = np.sum(w2 * pb)
            s11 = np.sum(w2 * pa * pa) - m1 * m1
            s22 = np.sum(w2 * pb * pb) - m2 * m2
            s12 = np.sum(w2 * pa * pb) - m1 * m2
            vals.append(
                ((2 * m1 * m2 + c1) * (2 * s12 + c2))
                / ((m1 * m1 + m2 * m2 + c1) * (s11 + s22 + c2))
            )
    return float(np.mean(vals))


def _difference_matrices(h, w):
    """Dense forward differences Dx, Dy of an (h, w) grid flattened in C
    order, zero on the last column (Dx) and on the last row (Dy)."""
    n = h * w
    index = np.arange(n).reshape(h, w)
    dx = np.zeros((n, n))
    dy = np.zeros((n, n))
    for d, here, there in ((dx, index[:, :-1], index[:, 1:]), (dy, index[:-1], index[1:])):
        d[here.ravel(), there.ravel()] = 1.0
        d[here.ravel(), here.ravel()] = -1.0
    return dx, dy


def denoise_minimizer_reference(f, lam, mu, eta):
    """The minimizer u* of E(u) = sum lam huber_mu(f - u) + (1 - lam)
    huber_eta(|grad u|) for a float lam, by semismooth Newton from u = f,
    and the gradient of E at u*, both of f's shape.

    The Hessian is lam/mu on the diagonal where |f - u| <= mu, plus
    (1 - lam) D^T B D, with D the dense forward differences and B, per
    pixel, I/eta where |grad u| <= eta and (I - n n^T)/|grad u| elsewhere
    (n = grad u/|grad u|); a 1e-12 ridge keeps it regular.  Each step
    halves its length until the Armijo condition holds up to the rounding
    of E, and the iteration stops once max |grad E| <= 1e-14, or after
    100 steps."""
    f = np.asarray(f, dtype=np.float64)
    dx, dy = _difference_matrices(*f.shape)
    y = f.ravel()

    def parts(x):
        gx, gy = dx @ x, dy @ x
        # max(|grad u|, eta), which no quotient below can make 0/0
        return gx, gy, np.maximum(np.hypot(gx, gy), eta)

    def energy(x):
        reg = huber_reference(np.hypot(dx @ x, dy @ x), eta)
        return float(np.sum(lam * huber_reference(y - x, mu)) + np.sum((1.0 - lam) * reg))

    def gradient(x):
        gx, gy, s = parts(x)
        data = -lam * np.clip((y - x) / mu, -1.0, 1.0)
        return data + (1.0 - lam) * (dx.T @ (gx / s) + dy.T @ (gy / s))

    x = y.copy()
    g = gradient(x)
    for _ in range(100):
        if np.max(np.abs(g)) <= 1e-14:
            break
        gx, gy, s = parts(x)
        inside = s <= eta
        nx, ny = gx / s, gy / s
        b11 = np.where(inside, 1.0 / eta, ny * ny / s)
        b22 = np.where(inside, 1.0 / eta, nx * nx / s)
        b12 = np.where(inside, 0.0, -nx * ny / s)
        hess = (dx.T * b11) @ dx + (dx.T * b12) @ dy + (dy.T * b12) @ dx + (dy.T * b22) @ dy
        hess *= 1.0 - lam
        hess[np.diag_indices_from(hess)] += np.where(np.abs(y - x) <= mu, lam / mu, 0.0) + 1e-12
        step = np.linalg.solve(hess, -g)
        e0, slope, t = energy(x), float(g @ step), 1.0
        while energy(x + t * step) > e0 + 1e-4 * t * slope + 1e-15 * abs(e0) and t > 1e-10:
            t *= 0.5
        x = x + t * step
        g = gradient(x)
    return x.reshape(f.shape), g.reshape(f.shape)


# State builders of the three problems, and the checks of what each
# state keeps between iterations.  A builder's constant flag picks the
# problem's constant weight instead of an adaptive one.


def adaptive_defaults(**kw):
    ap = kw.pop("adaptive", AdaptiveParams(beta=1.0, alpha=0.01))
    base = dict(mu=0.16, eta=0.08, theta=1.0, adaptive=ap)
    base.update(kw)
    return SolverParams(**base)


def halfplane_params(constant):
    ap = AdaptiveParams(beta=0.05, alpha=0.1, smoothing_sigma=2.0, constant_lambda=constant)
    return adaptive_defaults(adaptive=ap, max_iters=6, tol_primal=1e-300)


def random_denoise_state(seed, n=6, params=None):
    rng = Splitmix64(seed)
    st = DenoiseState(rng.uniforms(n * n).reshape(n, n), params or adaptive_defaults())
    st.u = rng.normals(n * n).reshape(n, n) * 0.3 + 0.5
    st.v = rng.normals(n * n).reshape(n, n) * 0.3 + 0.5
    st.w = rng.normals(n * n).reshape(n, n) * 0.1
    st.r = rng.normals(n * n).reshape(n, n) * 0.1
    st.z = rng.normals(n * n * 2).reshape(n, n, 2) * 0.2
    st.lam = rng.uniforms(n * n).reshape(n, n) * 0.99
    st.y = rng.normals(n * n * 2).reshape(n, n, 2) * 0.1
    st._form_intermediates()
    return st


def denoise_state(constant):
    f = biased_noise_image(make_scene(32), 0.3, "half", seed=2)
    return DenoiseState(f, halfplane_params(0.3 if constant else None))


def _warm(st):
    for _ in range(2):
        st.iterate()
        st.energy()
    return st


def denoise_steady_state(n, constant):
    f = Splitmix64(n).uniforms(n * n).reshape(n, n)
    return _warm(DenoiseState(f, halfplane_params(0.3 if constant else None)))


def assert_denoise_intermediates(st):
    ws = st.workspace
    assert_same_bits(ws.grad, gradient(st.v[None]))
    assert_same_bits(ws.gap, st.f - st.u)
    assert_same_bits(st.residual, rms(st.u - st.v))


def seg_params(n_labels=2, tau=0.5, beta=10.0, alpha=0.01, const=None,
               iters=300, tol=1e-6, sweeps=20, sigma=0.0):
    ap = AdaptiveParams(beta=beta, alpha=alpha, smoothing_sigma=sigma, constant_lambda=const)
    sp = SolverParams(
        mu=0.5, eta=0.5, theta=1.0, adaptive=ap,
        max_iters=iters, tol_primal=tol, gs_sweeps=sweeps,
    )
    return SegmentParams(solver=sp, n_labels=n_labels, tau_excl=tau)


def random_label_state(seed, n=2, size=6):
    """Random segmentation fields, with the attributes of a SegmentState
    that the step functions read."""
    rng = Splitmix64(seed)
    f = rng.uniforms(size * size).reshape(size, size)
    return SimpleNamespace(
        f=f,
        u=rng.uniforms(n * size * size).reshape(n, size, size),
        v=rng.normals(n * size * size).reshape(n, size, size) * 0.3 + 0.5,
        w=rng.normals(n * size * size).reshape(n, size, size) * 0.1,
        r=rng.normals(n * size * size).reshape(n, size, size) * 0.1,
        z=rng.normals(n * size * size * 2).reshape(n, size, size, 2) * 0.2,
        lam=rng.uniforms(n * size * size).reshape(n, size, size) * 0.99,
        c=rng.uniforms(n),
        n_labels=n,
        iteration=0,
        degenerate_events=[],
    )


def random_segment_state(seed):
    """A 3-label SegmentState holding random_label_state's fields, with
    what it keeps formed from them."""
    fields = random_label_state(seed, n=3, size=5)
    st = SegmentState(fields.f, seg_params(n_labels=3), start=(fields.u, fields.c))
    for name in ("v", "w", "r", "z", "lam"):
        setattr(st, name, getattr(fields, name))
    st.d = misfit(st, st.params.solver.mu)
    st._form_intermediates()
    return st


def segment_state(constant, size=24, n_labels=3, const=0.3, seed=4):
    img, _ = noisy_rectangles(size, seed=seed)
    params = seg_params(n_labels, beta=0.05, const=const if constant else None,
                        iters=6, tol=1e-15, sigma=1.5)
    return SegmentState(img, params)


def segment_steady_state(n, constant):
    return _warm(segment_state(constant, size=n, n_labels=4, const=0.2, seed=0))


def assert_segment_intermediates(st):
    assert_same_bits(st.d, misfit(st, st.params.solver.mu))
    assert_same_bits(st.grad_v, gradient(st.v))
    assert_same_bits(st.residual, rms(st.u - st.v))


def flow_solver(**kw):
    ap = kw.pop("adaptive", AdaptiveParams(beta=10.0, alpha=0.01))
    base = dict(mu=0.01, eta=0.3, theta=0.1, adaptive=ap,
                max_iters=30, tol_primal=1e-9)
    base.update(kw)
    return SolverParams(**base)


def random_flow_state(seed, n=20, anisotropic=True):
    rng = Splitmix64(seed)
    params = FlowParams(solver=flow_solver(mu=0.5, theta=1.0), anisotropic_reg=anisotropic)
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


def flow_state(constant, anisotropic=True):
    f1, f2, _ = shifted_pair(smooth_texture(32, seed=5), (1.0, 0.5))
    ap = AdaptiveParams(beta=10.0, alpha=0.01, smoothing_sigma=1.0,
                        constant_lambda=0.4 if constant else None)
    fp = FlowParams(solver=flow_solver(adaptive=ap, max_iters=5), n_warps=2,
                    anisotropic_reg=anisotropic)
    return FlowState(f1, f2, fp)


def flow_steady_state(n, constant, anisotropic=True):
    f1, f2, _ = shifted_pair(smooth_texture(n, seed=5), (1.0, 0.0))
    ap = AdaptiveParams(beta=10.0, alpha=0.01, constant_lambda=0.4 if constant else None)
    fp = FlowParams(solver=flow_solver(adaptive=ap), anisotropic_reg=anisotropic)
    return _warm(FlowState(f1, f2, fp))


def upsample_flow_reference(u, shape):
    """Frozen pyramid upsampling: repeat each vector 2x2 with doubled
    magnitude, crop, and pad the edge to the target shape."""
    up = np.repeat(np.repeat(u, 2, axis=0), 2, axis=1) * 2.0
    h, w = shape
    up = up[:h, :w]
    pad_h, pad_w = h - up.shape[0], w - up.shape[1]
    if pad_h or pad_w:
        up = np.pad(up, ((0, pad_h), (0, pad_w), (0, 0)), mode="edge")
    return up


def flow_energy_reference(st, params):
    """Flow energy of the fields of st, from the frozen Huber formulas."""
    sp = params.solver
    data = st.lam * huber_reference(st.ft - _dot_reference(st.A, st.u), sp.mu)
    g = gradient(np.moveaxis(st.v, -1, 0))
    if params.anisotropic_reg:
        reg = (huber_reference(g[0], sp.eta).sum(axis=-1)
               + huber_reference(g[1], sp.eta).sum(axis=-1))
    else:
        reg = huber_vec_reference(g[0], sp.eta) + huber_vec_reference(g[1], sp.eta)
    return float(np.sum(data) + np.sum((1.0 - st.lam) * reg))


def _dot_reference(a, u):
    return a[..., 0] * u[..., 0] + a[..., 1] * u[..., 1]


def component_first_rms(d):
    """rms of an (H, W, 2) field summed over its C-contiguous (2, H, W)
    stack, the order of the dual step."""
    return rms(np.ascontiguousarray(np.moveaxis(d, -1, 0)))


def assert_planar(st, names=("u", "v", "w", "A")):
    """Each named (..., 2) field is a view of component-first C-contiguous memory."""
    for name in names:
        assert np.moveaxis(getattr(st, name), -1, 0).flags.c_contiguous, name


def assert_flow_intermediates(st):
    ws = st.workspace
    g = gradient(np.moveaxis(st.v, -1, 0))
    assert_same_bits(ws.gap, st.ft - _dot_reference(st.A, st.u))
    assert_same_bits(ws.grad, g)
    assert_same_bits(st.residual, component_first_rms(st.u - st.v))
