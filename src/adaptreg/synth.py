"""Deterministic generators for the synthetic experiments.

Randomness comes from an explicit splitmix64 stream plus Box-Muller,
so every fixture is reproducible bit-for-bit from its seed, across
platforms and numpy versions.  All images live in [0,1].
"""

from __future__ import annotations

import numpy as np

from .grid import convolve_gaussian, scalar_grid, warp_bilinear
from .solver import check_count

_U = np.uint64
_GAMMA = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def _mix64(z: np.ndarray) -> np.ndarray:
    z = z ^ (z >> _U(30))
    z = z * _U(0xBF58476D1CE4E5B9)
    z = z ^ (z >> _U(27))
    z = z * _U(0x94D049BB133111EB)
    return z ^ (z >> _U(31))


class Splitmix64:
    """Counter-based splitmix64 stream.

    Draw k is mix64(seed + k * gamma); the counter advances in plain
    Python integers, the mixing runs vectorized in uint64.
    """

    def __init__(self, seed: int):
        self.counter = seed & _MASK

    def raw(self, n: int) -> np.ndarray:
        steps = np.arange(1, n + 1, dtype=np.uint64) * _U(_GAMMA)
        out = _mix64(_U(self.counter) + steps)
        self.counter = (self.counter + _GAMMA * n) & _MASK
        return out

    def uniforms(self, n: int) -> np.ndarray:
        """n doubles in [0, 1), 53-bit resolution."""
        return (self.raw(n) >> _U(11)).astype(np.float64) * 2.0**-53

    def normals(self, n: int) -> np.ndarray:
        """n standard normals via Box-Muller."""
        m = (n + 1) // 2
        u1 = self.uniforms(m)
        u2 = self.uniforms(m)
        radius = np.sqrt(-2.0 * np.log1p(-u1))
        angle = 2.0 * np.pi * u2
        return np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])[:n]

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates shuffle of range(n)."""
        perm = np.arange(n)
        picks = self.uniforms(max(n - 1, 0))
        for i in range(n - 1, 0, -1):
            j = min(int(picks[n - 1 - i] * (i + 1)), i)
            perm[i], perm[j] = perm[j], perm[i]
        return perm


def junction_image(n_regions: int, size: int, disc_radius_frac: float = 0.25, seed: int = 0):
    """Angular-sector junction fixture.

    n_regions - 1 equal angular sectors meet at the image center, and a
    central disc (radius disc_radius_frac * size / 2, empty when the
    fraction is 0) forms the last region.  Gray levels are k/(n-1),
    assigned to regions in seed-shuffled order.  Returns (image, labels)
    with labels 0..n-2 for the sectors and n-1 for the disc.
    disc_radius_frac must be nonnegative and finite, and a sector that
    gets no pixel (too many sectors for the size, or a disc that covers
    them) raises ValueError.
    """
    check_count("n_regions", n_regions, 3)
    check_count("size", size, 2)
    if not 0.0 <= disc_radius_frac < np.inf:
        raise ValueError("disc_radius_frac must be nonnegative and finite")
    n_sectors = n_regions - 1
    cy = (size - 1) / 2.0
    cx = (size - 1) / 2.0
    yy, xx = np.mgrid[0:size, 0:size]
    angle = np.arctan2(yy - cy, xx - cx)
    sector = np.minimum(
        ((angle + np.pi) / (2.0 * np.pi) * n_sectors).astype(np.int64), n_sectors - 1
    )
    labels = sector.copy()
    radius = np.hypot(yy - cy, xx - cx)
    disc = radius < disc_radius_frac * size / 2.0
    labels[disc] = n_regions - 1
    empty = np.flatnonzero(np.bincount(labels.ravel(), minlength=n_regions)[:n_sectors] == 0)
    if empty.size:
        raise ValueError("junction sectors %s get no pixel at size %d" % (empty.tolist(), size))
    order = Splitmix64(seed).permutation(n_regions)
    levels = order.astype(np.float64) / (n_regions - 1)
    image = levels[labels]
    return image, labels


# Rectangle geometry as canvas fractions (top, bottom, left, right) and
# the gray level drawn inside; background is white.  The first rectangle
# is a tall thin bar only slightly darker than the background: fine
# structure that a uniformly strong regularizer eats into, while the
# last one is large and sits far from every other level so it survives
# heavy noise.
_RECTS = (
    (0.08, 0.92, 0.06, 0.20, 0.92),
    (0.12, 0.46, 0.55, 0.92, 0.64),
    (0.58, 0.90, 0.26, 0.82, 0.42),
)


def noisy_rectangles(size: int, noise_levels=(0.0, 0.02, 0.05, 0.40), seed: int = 0):
    """White background plus three gray rectangles, per-region noise.

    noise_levels gives the Gaussian sigma for (background, rect1, rect2,
    rect3) in that order, each nonnegative and finite; the result is
    clamped to [0,1].  size must be an integer >= 1.  Returns (image, labels)
    with label 0 for the background.
    """
    check_count("size", size, 1)
    if len(noise_levels) != 4:
        raise ValueError("noise_levels must list 4 sigmas (background + 3 rectangles)")
    if not all(0.0 <= s < np.inf for s in noise_levels):
        raise ValueError("noise sigmas must be nonnegative and finite")
    labels = np.zeros((size, size), dtype=np.int64)
    image = np.ones((size, size), dtype=np.float64)
    for k, (top, bottom, left, right, level) in enumerate(_RECTS):
        r0, r1 = int(top * size), int(bottom * size)
        c0, c1 = int(left * size), int(right * size)
        labels[r0:r1, c0:c1] = k + 1
        image[r0:r1, c0:c1] = level
    sigma_map = np.asarray(noise_levels, dtype=np.float64)[labels]
    noise = Splitmix64(seed).normals(size * size).reshape(size, size)
    return np.clip(image + sigma_map * noise, 0.0, 1.0), labels


_RAMP_WIDTH = 8


def biased_noise_image(clean: np.ndarray, sigma_max: float, bias_profile: str = "half", seed: int = 0):
    """Additive Gaussian noise whose sigma varies spatially, 0 -> sigma_max.

    'half': the left half stays exactly clean; sigma ramps linearly over
    the 8 columns right of the midline and holds sigma_max beyond.
    'radial': sigma grows linearly with distance from the center,
    reaching sigma_max at the inscribed-circle radius.  Clamped to [0,1].
    sigma_max must be nonnegative and finite.
    """
    clean = scalar_grid(clean)
    if not 0.0 <= sigma_max < np.inf:
        raise ValueError("sigma_max must be nonnegative and finite")
    h, w = clean.shape
    if bias_profile == "half":
        x = np.arange(w, dtype=np.float64)
        ramp = np.clip((x - w // 2 + 1) / _RAMP_WIDTH, 0.0, 1.0)
        sigma_map = np.broadcast_to(ramp * sigma_max, (h, w))
    elif bias_profile == "radial":
        yy, xx = np.mgrid[0:h, 0:w]
        radius = np.hypot(yy - (h - 1) / 2.0, xx - (w - 1) / 2.0)
        sigma_map = np.minimum(radius / (min(h, w) / 2.0), 1.0) * sigma_max
    else:
        raise ValueError("bias_profile must be 'half' or 'radial'")
    noise = Splitmix64(seed).normals(h * w).reshape(h, w)
    return np.clip(clean + sigma_map * noise, 0.0, 1.0)


def add_gaussian_noise(clean: np.ndarray, sigma: float, seed: int = 0) -> np.ndarray:
    """Uniform-sigma additive Gaussian noise, clamped to [0,1]; sigma must
    be nonnegative and finite."""
    clean = scalar_grid(clean)
    if not 0.0 <= sigma < np.inf:
        raise ValueError("sigma must be nonnegative and finite")
    noise = Splitmix64(seed).normals(clean.size).reshape(clean.shape)
    return np.clip(clean + sigma * noise, 0.0, 1.0)


def shifted_pair(base: np.ndarray, shift):
    """Frame pair related by a constant translation, plus ground truth.

    f1 is the base image and f2 samples it at x + shift, so content
    moves by -shift from frame 1 to frame 2.  Under the package's flow
    convention f2(x) = f1(x + u), the true flow is the constant field
    u = shift (x component first), which must be finite.
    """
    base = scalar_grid(base)
    shift = np.asarray(shift, dtype=np.float64)
    if shift.shape != (2,):
        raise ValueError("shift must be a 2-vector (x, y)")
    if not np.all(np.isfinite(shift)):
        raise ValueError("shift must be finite, got %s" % shift.tolist())
    gt = np.broadcast_to(shift, base.shape + (2,)).copy()
    f2 = warp_bilinear(base, gt, scale=1.0)
    return base.copy(), f2, gt


def smooth_texture(size: int, seed: int = 0, sigma: float = 6.0) -> np.ndarray:
    """Smooth random texture: blurred white noise rescaled to [0,1].

    size must be an integer >= 1 and sigma nonnegative and finite.
    """
    check_count("size", size, 1)
    noise = Splitmix64(seed).normals(size * size).reshape(size, size)
    tex = convolve_gaussian(noise, sigma)
    lo, hi = float(tex.min()), float(tex.max())
    if hi - lo < 1e-12:
        return np.full((size, size), 0.5)
    return (tex - lo) / (hi - lo)
