"""PSNR, SSIM, label matching scores, and flow error metrics."""

import numpy as np
import pytest

from adaptreg.metrics import (
    aae,
    aee,
    label_scores,
    match_labels,
    metrics_csv,
    psnr,
    ssim,
)
from adaptreg.synth import Splitmix64
from helpers import ssim_direct


def test_psnr_identical_is_infinite():
    a = np.full((8, 8), 0.3)
    assert psnr(a, a) == np.inf


def test_psnr_known_value():
    a = np.zeros((4, 4))
    b = np.full((4, 4), 0.1)  # mse 0.01 -> 20 dB
    assert psnr(a, b) == pytest.approx(20.0, abs=1e-12)


def test_psnr_matches_direct_formula():
    rng = Splitmix64(800)
    a = rng.uniforms(64).reshape(8, 8)
    b = rng.uniforms(64).reshape(8, 8)
    mse = np.mean((a - b) ** 2)
    assert psnr(a, b) == pytest.approx(-10.0 * np.log10(mse), rel=1e-14)
    assert psnr(a, b) == psnr(b, a)


def test_psnr_shape_mismatch():
    with pytest.raises(ValueError):
        psnr(np.zeros((4, 4)), np.zeros((4, 5)))


def test_ssim_self_is_exactly_one():
    rng = Splitmix64(801)
    a = rng.uniforms(400).reshape(20, 20)
    assert ssim(a, a) == 1.0


def test_ssim_anticorrelated_is_negative():
    grid = np.add.outer(np.arange(16), np.arange(16)) % 2
    a = 0.5 + 0.3 * grid
    b = 0.5 - 0.3 * grid
    assert ssim(a, b) < 0.0


def test_ssim_matches_patchwise_oracle():
    rng = Splitmix64(8)
    a = rng.uniforms(1024).reshape(32, 32)
    b = np.clip(a + 0.1 * rng.normals(1024).reshape(32, 32), 0.0, 1.0)
    assert abs(ssim(a, b) - ssim_direct(a, b)) <= 1e-8


def test_ssim_symmetric():
    rng = Splitmix64(802)
    a = rng.uniforms(225).reshape(15, 15)
    b = rng.uniforms(225).reshape(15, 15)
    assert ssim(a, b) == pytest.approx(ssim(b, a), abs=1e-15)


def test_ssim_rejects_small_images():
    with pytest.raises(ValueError):
        ssim(np.zeros((10, 12)), np.zeros((10, 12)))
    ssim(np.zeros((11, 11)), np.zeros((11, 11)))  # smallest legal size


def test_match_labels_identity():
    lab = np.array([[0, 1], [2, 2]])
    assert match_labels(lab, lab) == {0: 0, 1: 1, 2: 2}


def test_match_labels_absorbs_permutation():
    rng = Splitmix64(803)
    gt = (rng.uniforms(100) * 4).astype(np.int64).reshape(10, 10)
    perm = np.array([2, 3, 1, 0])
    pred = perm[gt]
    m = match_labels(pred, gt)
    assert m == {2: 0, 3: 1, 1: 2, 0: 3}
    p, r, f = label_scores(pred, gt)
    assert p == 1.0 and r == 1.0 and f == 1.0


def test_match_labels_greedy_on_hand_fixture():
    # 4x4 map: label 7 overlaps gt 0 on 3 pixels, gt 1 on 1; label 9
    # then takes what is left
    pred = np.array([[7, 7, 7, 9], [9, 9, 9, 9], [7, 9, 9, 9], [9, 9, 9, 9]])
    gt = np.array([[0, 0, 0, 0], [1, 1, 1, 1], [1, 1, 1, 1], [1, 1, 1, 1]])
    m = match_labels(pred, gt)
    assert m == {9: 1, 7: 0}


def test_match_labels_injective():
    pred = np.array([[0, 1, 2, 3]])
    gt = np.array([[5, 5, 5, 6]])
    m = match_labels(pred, gt)
    assert len(set(m.values())) == len(m)


def test_label_scores_hand_values():
    pred = np.array([[0, 0, 1, 1]])
    gt = np.array([[0, 1, 1, 1]])
    p, r, f = label_scores(pred, gt)
    # both labels matched: 3 of 4 predicted pixels correct across both
    assert p == pytest.approx(0.75)
    assert r == pytest.approx(0.75)
    assert f == pytest.approx(0.75)


def test_aee_values():
    u = np.zeros((2, 2, 2))
    gt = np.zeros((2, 2, 2))
    gt[..., 0] = 3.0
    gt[..., 1] = 4.0
    assert aee(u, gt) == pytest.approx(5.0, abs=1e-14)
    assert aee(gt, gt) == 0.0


def test_aae_quarter_turn():
    # (1,0) vs (0,0): homogeneous vectors (1,0,1) and (0,0,1) -> pi/4
    u = np.zeros((3, 3, 2))
    u[..., 0] = 1.0
    gt = np.zeros((3, 3, 2))
    assert aae(u, gt) == pytest.approx(np.pi / 4.0, abs=1e-12)
    assert aae(gt, gt) == 0.0


def test_aae_matches_loop_oracle():
    rng = Splitmix64(804)
    u = rng.normals(32).reshape(4, 4, 2)
    gt = rng.normals(32).reshape(4, 4, 2)
    vals = []
    for y in range(4):
        for x in range(4):
            a = np.array([u[y, x, 0], u[y, x, 1], 1.0])
            b = np.array([gt[y, x, 0], gt[y, x, 1], 1.0])
            cosang = np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))
            vals.append(np.arccos(np.clip(cosang, -1.0, 1.0)))
    assert aae(u, gt) == pytest.approx(float(np.mean(vals)), abs=1e-12)



def test_flow_errors_match_summed_formula_bitwise():
    rng = Splitmix64(805)
    u = rng.normals(140).reshape(2, 5, 7, 2) * 3.0
    gt = rng.normals(140).reshape(2, 5, 7, 2) * 3.0
    u[0, 0, 0] = (-0.0, -0.0)
    gt[0, 0, 0] = (0.0, 0.0)
    u[0, 1, 1] = (5e-324, -1e-310)
    gt[1, 2, 3] = (1e150, -1e150)
    diff = u - gt
    assert aee(u, gt) == float(np.mean(np.sqrt(np.sum(diff * diff, axis=-1))))
    num = 1.0 + np.sum(u * gt, axis=-1)
    den = np.sqrt(1.0 + np.sum(u * u, axis=-1)) * np.sqrt(1.0 + np.sum(gt * gt, axis=-1))
    assert aae(u, gt) == float(np.mean(np.arccos(np.clip(num / den, -1.0, 1.0))))


def test_flow_errors_reject_non_vector_fields():
    for shape in ((), (4, 4, 3), (4, 4, 1)):
        with pytest.raises(ValueError):
            aee(np.zeros(shape), np.zeros(shape))
        with pytest.raises(ValueError):
            aae(np.zeros(shape), np.zeros(shape))

def test_metrics_csv_round_trip():
    text = metrics_csv([("psnr", 22.5), ("ssim", 1.0 / 3.0)])
    lines = text.splitlines()
    assert lines[0] == "metric,value"
    assert lines[1].split(",")[0] == "psnr"
    assert float(lines[1].split(",")[1]) == 22.5
    assert float(lines[2].split(",")[1]) == 1.0 / 3.0
    assert text.endswith("\n")
