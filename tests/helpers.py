"""Shared fixtures and independent oracles for the test suite."""

import numpy as np

from adaptreg.grid import gaussian_kernel
from adaptreg.metrics import match_labels


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
