"""Synthetic fixture generators and the splitmix64 stream."""

import numpy as np
import pytest

from adaptreg.synth import (
    Splitmix64,
    add_gaussian_noise,
    biased_noise_image,
    junction_image,
    noisy_rectangles,
    shifted_pair,
    smooth_texture,
)


def test_splitmix_reproducible_bitwise():
    a = Splitmix64(1000).raw(64)
    b = Splitmix64(1000).raw(64)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, Splitmix64(1001).raw(64))


def test_splitmix_stream_splits_cleanly():
    # drawing in two pieces matches one combined draw
    rng = Splitmix64(1001)
    parts = np.concatenate([rng.raw(1), rng.raw(3), rng.raw(2)])
    assert np.array_equal(parts, Splitmix64(1001).raw(6))


def test_splitmix_uniforms_in_unit_interval():
    u = Splitmix64(1002).uniforms(10_000)
    assert np.all(u >= 0.0)
    assert np.all(u < 1.0)
    assert abs(u.mean() - 0.5) < 0.02


def test_splitmix_normals_moments():
    z = Splitmix64(1003).normals(20_000)
    assert z.shape == (20_000,)
    assert abs(z.mean()) < 0.03
    assert abs(z.std() - 1.0) < 0.03
    # odd counts truncate the Box-Muller pair but stay deterministic
    odd = Splitmix64(1003).normals(7)
    assert odd.shape == (7,)
    assert np.array_equal(odd, Splitmix64(1003).normals(7))


def test_splitmix_permutation():
    perm = Splitmix64(1005).permutation(40)
    assert sorted(perm.tolist()) == list(range(40))
    assert np.array_equal(perm, Splitmix64(1005).permutation(40))
    assert np.array_equal(Splitmix64(1005).permutation(0), np.arange(0))
    assert np.array_equal(Splitmix64(1005).permutation(1), np.arange(1))


def test_junction_image_layout():
    img, labels = junction_image(5, 128, disc_radius_frac=0.25, seed=0)
    assert img.shape == (128, 128)
    assert labels.shape == (128, 128)
    assert set(np.unique(labels)) == {0, 1, 2, 3, 4}
    # equal angular sectors: identical pixel counts outside the disc
    counts = [np.sum(labels == k) for k in range(4)]
    assert len(set(counts)) == 1
    # gray levels are the shuffled grid k/(n-1)
    assert set(np.round(np.unique(img) * 4).astype(int)) == {0, 1, 2, 3, 4}
    for k in range(5):
        region = img[labels == k]
        assert np.all(region == region[0])


def test_junction_image_without_disc():
    img, labels = junction_image(4, 64, disc_radius_frac=0.0, seed=2)
    assert set(np.unique(labels)) == {0, 1, 2}
    assert np.sum(labels == 3) == 0


def test_junction_image_validation():
    with pytest.raises(ValueError):
        junction_image(2, 64)
    with pytest.raises(ValueError):
        junction_image(5, 1)


def test_junction_image_deterministic():
    a = junction_image(5, 64, seed=3)[0]
    b = junction_image(5, 64, seed=3)[0]
    assert np.array_equal(a, b)
    assert not np.array_equal(a, junction_image(5, 64, seed=4)[0])


def test_noisy_rectangles_respects_region_sigmas():
    clean, _ = noisy_rectangles(128, noise_levels=(0.0, 0.0, 0.0, 0.0), seed=0)
    img, labels = noisy_rectangles(128, noise_levels=(0.0, 0.0, 0.05, 0.10), seed=0)
    assert set(np.unique(labels)) == {0, 1, 2, 3}
    # zero-sigma regions are untouched
    for k in (0, 1):
        assert np.array_equal(img[labels == k], clean[labels == k])
    # sampled deviations track the requested sigmas
    for k, sigma in ((2, 0.05), (3, 0.10)):
        dev = np.std(img[labels == k] - clean[labels == k])
        assert abs(dev - sigma) / sigma < 0.05


def test_noisy_rectangles_levels_and_clamp():
    img, labels = noisy_rectangles(128, seed=0)
    assert img.min() >= 0.0
    assert img.max() <= 1.0
    # background is the brightest region even under default noise
    assert img[labels == 0].mean() > img[labels == 3].mean()


def test_noisy_rectangles_validation():
    with pytest.raises(ValueError):
        noisy_rectangles(64, noise_levels=(0.0, 0.1, 0.1))
    with pytest.raises(ValueError):
        noisy_rectangles(64, noise_levels=(0.0, -0.1, 0.1, 0.1))


def test_noisy_rectangles_deterministic():
    a = noisy_rectangles(64, seed=5)[0]
    assert np.array_equal(a, noisy_rectangles(64, seed=5)[0])


def test_biased_noise_half_profile():
    clean = np.full((64, 64), 0.5)
    img = biased_noise_image(clean, 0.3, "half", seed=1006)
    # left of the midline stays exactly clean
    assert np.array_equal(img[:, :32], clean[:, :32])
    assert np.std(img[:, 48:]) > 0.1


def test_biased_noise_zero_sigma_is_identity():
    clean = smooth_texture(32, seed=1007)
    img = biased_noise_image(clean, 0.0, "half", seed=0)
    assert np.array_equal(img, clean)


def test_biased_noise_radial_profile():
    clean = np.full((64, 64), 0.5)
    img = biased_noise_image(clean, 0.3, "radial", seed=1008)
    h, w = img.shape
    center = img[h // 2 - 4 : h // 2 + 4, w // 2 - 4 : w // 2 + 4]
    corner = img[:8, :8]
    assert np.std(center - 0.5) < np.std(corner - 0.5)


def test_biased_noise_validation():
    clean = np.zeros((8, 8))
    with pytest.raises(ValueError):
        biased_noise_image(clean, -0.1, "half")
    with pytest.raises(ValueError):
        biased_noise_image(clean, 0.1, "diagonal")


def test_add_gaussian_noise():
    clean = np.full((64, 64), 0.5)
    img = add_gaussian_noise(clean, 0.05, seed=1009)
    assert abs(np.std(img - clean) - 0.05) < 0.005
    assert np.array_equal(img, add_gaussian_noise(clean, 0.05, seed=1009))
    assert np.array_equal(add_gaussian_noise(clean, 0.0), clean)
    with pytest.raises(ValueError):
        add_gaussian_noise(clean, -1.0)


def test_shifted_pair_integer_shift():
    base = smooth_texture(32, seed=1010)
    f1, f2, gt = shifted_pair(base, (1.0, 0.0))
    assert np.array_equal(f1, base)
    assert gt.shape == (32, 32, 2)
    assert np.all(gt[..., 0] == 1.0)
    assert np.all(gt[..., 1] == 0.0)
    # content moves one column: f2 samples base at x+1
    assert np.array_equal(f2[:, :-1], base[:, 1:])


def test_shifted_pair_validation():
    with pytest.raises(ValueError):
        shifted_pair(np.zeros((8, 8)), (1.0, 0.0, 0.0))


def test_smooth_texture_properties():
    tex = smooth_texture(64, seed=1011)
    assert tex.shape == (64, 64)
    assert np.isfinite(tex).all()
    assert tex.min() == 0.0
    assert tex.max() == 1.0
    # blurring keeps neighboring pixels close
    assert np.max(np.abs(np.diff(tex, axis=1))) < 0.2
    assert np.array_equal(tex, smooth_texture(64, seed=1011))
