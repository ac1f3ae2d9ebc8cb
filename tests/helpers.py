"""Shared fixtures and independent oracles for the test suite."""

import numpy as np

from adaptreg.grid import gaussian_kernel, gradient
from adaptreg.metrics import match_labels
from adaptreg.segment import DEGENERATE_REGION_WEIGHT, update_v_all


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
    """Full-grid red-black Gauss-Seidel for (1 - xi * laplacian) v = rhs
    on one (H, W) grid: each half sweep computes the update everywhere
    from zero-filled neighbor copies and keeps its color through a
    parity mask.  Same update formula and pairwise neighbor sum as the
    package solver, so the two agree bitwise."""
    v = np.array(v0, dtype=np.float64, copy=True)
    h, w = v.shape
    cnt = np.full((h, w), 4.0)
    cnt[0, :] -= 1
    cnt[-1, :] -= 1
    cnt[:, 0] -= 1
    cnt[:, -1] -= 1
    parity = (np.add.outer(np.arange(h), np.arange(w)) % 2) == 0
    cr = cnt * rhs
    denom = 1.0 + xi * cnt
    for _ in range(sweeps):
        for mask in (parity, ~parity):
            left = np.zeros_like(v)
            left[:, 1:] = v[:, :-1]
            right = np.zeros_like(v)
            right[:, :-1] = v[:, 1:]
            up = np.zeros_like(v)
            up[1:, :] = v[:-1, :]
            down = np.zeros_like(v)
            down[:-1, :] = v[1:, :]
            t = (left + right) + (up + down)
            vnew = rhs + xi * (t - cr) / denom
            v[mask] = vnew[mask]
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


def weight_fields_reference(rho, params):
    """Fidelity weight lambda from the frozen smoothing and shrink formulas."""
    rho = np.asarray(rho, dtype=np.float64)
    if params.constant_lambda is not None:
        return np.full_like(rho, float(params.constant_lambda))
    nu = np.exp(-convolve_gaussian_reference(rho, params.smoothing_sigma) / params.beta)
    return shrink_reference(nu, params.alpha)


def _label_misfit(s, i, mu):
    return envelope_reference(s.f - s.c[i], s.r[i], mu)


def segment_iterate_reference(s, params):
    """One segmentation iteration on the LabelState s, label by label.

    For label i in ascending order: weights, region value, r, z and u,
    each from that label's own (H, W) fields; then the shared v-step and
    the dual step.  This is the step order the stacked iteration must
    reproduce bitwise."""
    sp = params.solver
    s.iteration += 1
    labels = np.arange(s.n_labels)
    for i in labels:
        d = _label_misfit(s, i, sp.mu)
        s.lam[i] = weight_fields_reference(d * s.u[i], sp.adaptive)
        weights = s.lam[i] * s.u[i]
        den = float(np.sum(weights))
        if den <= DEGENERATE_REGION_WEIGHT:
            s.degenerate_events.append((s.iteration, int(i)))
        else:
            s.c[i] = float(np.sum(weights * (s.f - s.r[i]))) / den
        s.r[i] = shrink_reference(s.f - s.c[i], sp.mu)
        s.z[i] = shrink_vec_reference(gradient(s.v[i]), sp.eta)
        d = _label_misfit(s, i, sp.mu)
        others = np.sum(s.u[labels != i], axis=0)
        s.u[i] = np.maximum(
            0.0,
            s.v[i] - s.w[i] - (s.lam[i] / sp.theta) * d - (params.tau_excl / sp.theta) * others,
        )
    update_v_all(s, params)
    s.w = s.w + (s.u - s.v)


def segment_energy_reference(s, params):
    """Segmentation energy summed label by label, data term first."""
    sp = params.solver
    total = 0.0
    for i in range(s.n_labels):
        d = _label_misfit(s, i, sp.mu)
        total += float(np.sum(s.lam[i] * d * s.u[i]))
        total += float(np.sum((1.0 - s.lam[i]) * huber_vec_reference(gradient(s.v[i]), sp.eta)))
    overlap = (np.sum(s.u, axis=0) ** 2 - np.sum(s.u**2, axis=0)) / 2.0
    return total + params.tau_excl * float(np.sum(overlap))


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
