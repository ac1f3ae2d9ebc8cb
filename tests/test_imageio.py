"""Binary PNM and .flo round-trips, flow color coding, heatmaps."""

import struct

import numpy as np
import pytest
from helpers import reference_color_wheel

from adaptreg.imageio import (
    color_wheel,
    flow_to_color,
    grayscale_heatmap,
    read_flo,
    read_pnm,
    write_flo,
    write_pnm,
)
from adaptreg.synth import Splitmix64


def test_pgm_round_trip_is_quantization_exact(tmp_path):
    rng = Splitmix64(900)
    img = rng.uniforms(96).reshape(8, 12)
    path = tmp_path / "a.pgm"
    write_pnm(path, img)
    back = read_pnm(path)
    assert back.shape == (8, 12)
    # writing the read-back image reproduces the same file
    assert np.max(np.abs(back - img)) <= 0.5 / 255
    path2 = tmp_path / "b.pgm"
    write_pnm(path2, back)
    assert path.read_bytes() == path2.read_bytes()


def test_pgm_16bit_round_trip(tmp_path):
    rng = Splitmix64(901)
    img = rng.uniforms(64).reshape(8, 8)
    path = tmp_path / "a.pgm"
    write_pnm(path, img, maxval=65535)
    back = read_pnm(path)
    assert np.max(np.abs(back - img)) <= 0.5 / 65535
    path2 = tmp_path / "b.pgm"
    write_pnm(path2, back, maxval=65535)
    assert path.read_bytes() == path2.read_bytes()


def test_ppm_round_trip(tmp_path):
    rng = Splitmix64(902)
    img = rng.uniforms(6 * 5 * 3).reshape(6, 5, 3)
    path = tmp_path / "a.ppm"
    write_pnm(path, img)
    back = read_pnm(path)
    assert back.shape == (6, 5, 3)
    assert np.max(np.abs(back - img)) <= 0.5 / 255


def test_pnm_byte_fixture():
    # hand-assembled 2x2 P5, maxval 255
    raw = b"P5\n2 2\n255\n" + bytes([0, 128, 255, 64])
    import io, tempfile, os

    fd, path = tempfile.mkstemp(suffix=".pgm")
    try:
        os.write(fd, raw)
        os.close(fd)
        img = read_pnm(path)
    finally:
        os.unlink(path)
    assert img.shape == (2, 2)
    assert img[0, 0] == 0.0
    assert img[0, 1] == pytest.approx(128 / 255)
    assert img[1, 0] == 1.0
    assert img[1, 1] == pytest.approx(64 / 255)


def test_pnm_header_comments_and_whitespace(tmp_path):
    raw = b"P5 # magic\n# a comment line\n 2\t1 # width then height\n255\n" + bytes([10, 20])
    path = tmp_path / "c.pgm"
    path.write_bytes(raw)
    img = read_pnm(path)
    assert img.shape == (1, 2)
    assert img[0, 0] == pytest.approx(10 / 255)


def test_pnm_write_round_half_even(tmp_path):
    # 0.5/255 scales to 0.5 exactly: banker's rounding keeps it at 0
    img = np.array([[0.5 / 255, 1.5 / 255]])
    path = tmp_path / "r.pgm"
    write_pnm(path, img)
    assert path.read_bytes().endswith(bytes([0, 2]))


def test_pnm_uint8_passthrough(tmp_path):
    img = np.arange(6, dtype=np.uint8).reshape(2, 3)
    path = tmp_path / "u.pgm"
    write_pnm(path, img)
    assert path.read_bytes().endswith(img.tobytes())
    with pytest.raises(ValueError):
        write_pnm(path, img, maxval=65535)


def test_pnm_error_paths(tmp_path):
    path = tmp_path / "bad"
    path.write_bytes(b"P3\n1 1\n255\n0")
    with pytest.raises(ValueError, match="unsupported PNM magic"):
        read_pnm(path)
    path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 0]))
    with pytest.raises(ValueError, match="truncated PNM payload"):
        read_pnm(path)
    path.write_bytes(b"P5\nx 2\n255\n" + bytes(4))
    with pytest.raises(ValueError, match="malformed PNM header"):
        read_pnm(path)
    path.write_bytes(b"P5\n2 2\n0\n" + bytes(4))
    with pytest.raises(ValueError, match="maxval"):
        read_pnm(path)
    with pytest.raises(ValueError):
        write_pnm(tmp_path / "x.pgm", np.zeros((2, 2, 2)))


def test_flo_round_trip_bitwise(tmp_path):
    rng = Splitmix64(903)
    u = rng.normals(7 * 5 * 2).reshape(7, 5, 2).astype(np.float32).astype(np.float64)
    path = tmp_path / "u.flo"
    write_flo(path, u)
    back = read_flo(path)
    assert np.array_equal(back, u)
    path2 = tmp_path / "v.flo"
    write_flo(path2, back)
    assert path.read_bytes() == path2.read_bytes()


def test_flo_independent_byte_fixture(tmp_path):
    # struct-packed 1x2 field with known values
    path = tmp_path / "w.flo"
    payload = struct.pack("<f", 202021.25) + struct.pack("<ii", 2, 1)
    payload += struct.pack("<ffff", 1.0, -2.0, 0.5, 3.25)
    path.write_bytes(payload)
    u = read_flo(path)
    assert u.shape == (1, 2, 2)
    assert u[0, 0, 0] == 1.0
    assert u[0, 0, 1] == -2.0
    assert u[0, 1, 0] == 0.5
    assert u[0, 1, 1] == 3.25


def test_flo_error_paths(tmp_path):
    path = tmp_path / "bad.flo"
    path.write_bytes(struct.pack("<f", 1.0) + struct.pack("<ii", 1, 1) + bytes(8))
    with pytest.raises(ValueError, match="not a flow file"):
        read_flo(path)
    path.write_bytes(struct.pack("<f", 202021.25) + struct.pack("<ii", 4, 4) + bytes(8))
    with pytest.raises(ValueError, match="truncated flow file"):
        read_flo(path)
    path.write_bytes(bytes(4))
    with pytest.raises(ValueError, match="truncated flow file"):
        read_flo(path)


def test_color_wheel_matches_reference_table():
    wheel = color_wheel()
    assert wheel.shape == (55, 3)
    assert np.array_equal(wheel, reference_color_wheel())


def test_flow_to_color_zero_flow_is_white():
    out = flow_to_color(np.zeros((4, 4, 2)), max_magnitude=1.0)
    assert out.dtype == np.uint8
    assert np.all(out == 255)


def test_flow_to_color_distinguishes_directions():
    u = np.zeros((1, 2, 2))
    u[0, 0, 0] = 1.0
    u[0, 1, 0] = -1.0
    out = flow_to_color(u, max_magnitude=1.0)
    assert not np.array_equal(out[0, 0], out[0, 1])


def test_flow_to_color_covers_the_wheel():
    # a ring of unit vectors should hit many distinct hues
    angles = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    u = np.stack([np.cos(angles), np.sin(angles)], axis=-1).reshape(1, 64, 2)
    out = flow_to_color(u, max_magnitude=1.0)
    distinct = {tuple(px) for px in out[0]}
    assert len(distinct) >= 55


def test_flow_to_color_overrange_is_dimmed():
    u = np.zeros((1, 1, 2))
    u[0, 0, 0] = 2.0  # radius 2 with norm 1
    out = flow_to_color(u, max_magnitude=1.0)
    inside = flow_to_color(np.array([[[1.0, 0.0]]]), max_magnitude=1.0)
    assert np.all(out[0, 0] <= inside[0, 0])


def test_flow_to_color_default_normalization():
    rng = Splitmix64(904)
    u = rng.normals(128).reshape(8, 8, 2)
    out = flow_to_color(u)
    assert out.shape == (8, 8, 3)
    assert out.dtype == np.uint8



def test_flow_to_color_default_norm_is_summed_formula_percentile():
    # the default normalization is the 99th percentile of
    # sqrt(sum(u * u, axis=-1)), bit for bit
    rng = Splitmix64(906)
    u = rng.normals(2 * 23 * 17).reshape(23, 17, 2) * 2.0
    u[0, 0] = (-0.0, 0.0)
    radius = np.sqrt(np.sum(u * u, axis=-1))
    explicit = flow_to_color(u, max_magnitude=float(np.percentile(radius, 99)))
    assert np.array_equal(flow_to_color(u), explicit)

def test_grayscale_heatmap_affine_and_clamped():
    u = np.array([[-1.0, 0.0, 0.5, 1.0, 2.0]])
    out = grayscale_heatmap(u, 0.0, 1.0)
    assert out.dtype == np.uint8
    assert list(out[0]) == [0, 0, 128, 255, 255]
    with pytest.raises(ValueError):
        grayscale_heatmap(u, 1.0, 1.0)
