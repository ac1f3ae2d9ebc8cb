"""Quality measures: PSNR, SSIM, label precision/recall/F, AEE, AAE.

All image metrics assume normalized [0,1] intensities (dynamic range 1).
Label scores work on integer label maps and absorb arbitrary label
permutations through an explicit injective matching.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import convolve_gaussian, gaussian_kernel
from .prox import vector_norm

SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03


def _check_same_shape(u, ref):
    u = np.asarray(u, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if u.shape != ref.shape:
        raise ValueError("metric arguments must share a shape")
    return u, ref


def psnr(u, ref) -> float:
    """Peak signal-to-noise ratio in dB; identical images give +inf."""
    u, ref = _check_same_shape(u, ref)
    mse = float(np.mean((u - ref) ** 2))
    if mse == 0.0:
        return math.inf
    return -10.0 * math.log10(mse)


def check_ssim_shape(shape) -> None:
    """Raise ValueError unless images of this shape fit one SSIM window."""
    n = gaussian_kernel(SSIM_SIGMA).size
    if min(shape) < n:
        raise ValueError("images must be at least %dx%d for SSIM" % (n, n))


def _windows(img: np.ndarray, radius: int) -> np.ndarray:
    """Gaussian window means of img at the pixels whose whole window
    lies inside it, as a C-contiguous array."""
    smoothed = convolve_gaussian(img.T, SSIM_SIGMA).T
    h, w = img.shape
    return np.ascontiguousarray(smoothed[radius : h - radius, radius : w - radius])


def ssim(u, ref) -> float:
    """Mean structural similarity, 11x11 Gaussian window (sigma 1.5),
    K1 = 0.01, K2 = 0.03, dynamic range 1, over the pixels whose whole
    window lies inside the image.

    The window means are grid.convolve_gaussian's, taken on the
    transpose so that the first pass runs down the columns; away from
    the border they add the same products in the same order as a
    valid-mode correlation, columns first.  The local statistics are
    written symmetrically in both arguments, so ssim(u, u) is exactly 1.
    """
    u, ref = _check_same_shape(u, ref)
    check_ssim_shape(u.shape)
    radius = gaussian_kernel(SSIM_SIGMA).size // 2
    c1 = SSIM_K1**2
    c2 = SSIM_K2**2
    mu1 = _windows(u, radius)
    mu2 = _windows(ref, radius)
    s11 = _windows(u * u, radius) - mu1 * mu1
    s22 = _windows(ref * ref, radius) - mu2 * mu2
    s12 = _windows(u * ref, radius) - mu1 * mu2
    num = (2.0 * mu1 * mu2 + c1) * (2.0 * s12 + c2)
    den = (mu1 * mu1 + mu2 * mu2 + c1) * (s11 + s22 + c2)
    return float(np.mean(num / den))


def _pair_counts(pred, gt):
    """The distinct (predicted, ground-truth) label pairs of two label
    maps as the columns of a (2, n) array, and the pixels of each."""
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    if pred.shape != gt.shape:
        raise ValueError("label maps must share a shape")
    return np.unique(np.stack([pred.ravel(), gt.ravel()]), axis=1, return_counts=True)


def _claims(pairs, counts) -> list:
    """The columns of the pairs that the greedy matching claims, in the
    order it claims them."""
    claims = {}
    used_gt = set()
    for k in np.lexsort((pairs[1], pairs[0], -counts)):
        p, g = int(pairs[0, k]), int(pairs[1, k])
        if p not in claims and g not in used_gt:
            claims[p] = k
            used_gt.add(g)
    return list(claims.values())


def match_labels(pred: np.ndarray, gt: np.ndarray) -> dict:
    """Greedy injective matching predicted -> ground-truth label.

    Pairs are claimed in order of decreasing intersection size (ties by
    label value), each side used at most once.
    """
    pairs, counts = _pair_counts(pred, gt)
    return {int(pairs[0, k]): int(pairs[1, k]) for k in _claims(pairs, counts)}


def label_scores(pred: np.ndarray, gt: np.ndarray):
    """(precision, recall, f_measure) under the greedy label matching.

    precision counts correctly matched pixels against all pixels whose
    predicted label found a match; recall against all pixels whose
    ground-truth label was matched.  All three totals are sums over the
    counts of the label pairs that the matching is made from.
    """
    pairs, counts = _pair_counts(pred, gt)
    claims = np.array(_claims(pairs, counts), dtype=np.intp)
    correct = int(np.sum(counts[claims]))
    pred_total = int(np.sum(counts[np.isin(pairs[0], pairs[0, claims])]))
    gt_total = int(np.sum(counts[np.isin(pairs[1], pairs[1, claims])]))
    precision = correct / pred_total if pred_total else 0.0
    recall = correct / gt_total if gt_total else 0.0
    f_measure = (
        2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
    )
    return precision, recall, f_measure


def _check_flow_pair(u, gt):
    u, gt = _check_same_shape(u, gt)
    if u.ndim == 0 or u.shape[-1] != 2:
        raise ValueError("flow fields must have shape (..., 2)")
    return u, gt


def aee(u, gt) -> float:
    """Average endpoint error: the mean over pixels of prox.vector_norm
    of u - gt."""
    u, gt = _check_flow_pair(u, gt)
    return float(np.mean(vector_norm(u - gt)))


def aae(u, gt) -> float:
    """Average angular error (radians) between homogeneous extensions
    (u1, u2, 1) and (g1, g2, 1)."""
    u, gt = _check_flow_pair(u, gt)
    u1, u2 = u[..., 0], u[..., 1]
    g1, g2 = gt[..., 0], gt[..., 1]
    num = 1.0 + (u1 * g1 + u2 * g2)
    den = np.sqrt(1.0 + (u1 * u1 + u2 * u2)) * np.sqrt(1.0 + (g1 * g1 + g2 * g2))
    return float(np.mean(np.arccos(np.clip(num / den, -1.0, 1.0))))


def metrics_csv(rows) -> str:
    """CSV block `metric,value` from (name, value) pairs."""
    lines = ["metric,value"]
    for name, value in rows:
        lines.append("%s,%r" % (name, float(value)))
    return "\n".join(lines) + "\n"
