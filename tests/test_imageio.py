"""Binary PNM and .flo round-trips and flow color coding."""

import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from helpers import reference_color_wheel
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptreg.imageio import (
    color_wheel,
    flow_to_color,
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


def test_pgm_sample_above_maxval_raises(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P5 2 1 100\n" + bytes([50, 200]))
    with pytest.raises(ValueError, match="maxval"):
        read_pnm(path)
    path.write_bytes(b"P5 2 1 100\n" + bytes([50, 100]))
    assert np.array_equal(read_pnm(path), [[0.5, 1.0]])


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


@pytest.mark.parametrize("dtype", [np.int8, np.int64, np.uint16, np.uint32])
def test_write_pnm_rejects_integers_other_than_uint8(tmp_path, dtype):
    # as floats, these labels would be clamped to [0, 255, 255]
    with pytest.raises(ValueError, match=np.dtype(dtype).name):
        write_pnm(tmp_path / "i.pgm", np.array([[0, 5, 100]], dtype=dtype))
    assert not (tmp_path / "i.pgm").exists()


def test_write_pnm_bool_is_black_and_white(tmp_path):
    path = tmp_path / "b.pgm"
    write_pnm(path, np.array([[False, True]]))
    assert path.read_bytes().endswith(bytes([0, 255]))


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


@pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 4, 3)])
def test_write_pnm_rejects_empty_images(tmp_path, shape):
    path = tmp_path / "e.pnm"
    for img in (np.zeros(shape), np.zeros(shape, dtype=np.uint8)):
        with pytest.raises(ValueError, match="empty"):
            write_pnm(path, img)
    assert not path.exists()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_write_pnm_rejects_non_finite_samples(tmp_path, bad):
    path = tmp_path / "n.pgm"
    img = np.full((3, 4), 0.5)
    img[1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        write_pnm(path, img)
    assert not path.exists()


@pytest.mark.parametrize("field, message", [
    pytest.param(np.zeros((0, 5, 2)), "empty", id="shape0"),
    pytest.param(np.zeros((5, 0, 2)), "empty", id="shape1"),
    # finite, but float32's largest value is 3.4028235e38
    pytest.param(np.array([[[1e300, 0.0], [0.0, -3.5e38]]]), "float32", id="beyond-float32"),
])
def test_write_flo_rejects_unwritable_fields(tmp_path, field, message):
    path = tmp_path / "e.flo"
    with pytest.raises(ValueError, match=message):
        write_flo(path, field)
    assert not path.exists()


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_read_flo_rejects_non_finite_payload(tmp_path, bad):
    path = tmp_path / "n.flo"
    path.write_bytes(struct.pack("<f", 202021.25) + struct.pack("<ii", 2, 1)
                     + struct.pack("<ffff", 1.0, bad, 0.5, 3.25))
    with pytest.raises(ValueError, match="non-finite"):
        read_flo(path)


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
    # A .flo file holds one field, so bytes after it are an error.
    path.write_bytes(struct.pack("<f", 202021.25) + struct.pack("<ii", 1, 1) + bytes(9))
    with pytest.raises(ValueError, match="trailing data in flow file"):
        read_flo(path)


@pytest.mark.parametrize(
    "raw, samples, maxval",
    [
        (b"P5#c\n2 1 255\n\x01\x02", [[1, 2]], 255),  # comment right after the magic
        (b"P51 1 255\n\x07", [[7]], 255),  # no separator after the magic
        (b"P5 2#c\n1 255\n\x01\x02", [[1, 2]], 255),  # comment right after a field
        (b"P5\r\n2\r\n1\r\n7\n\x01\x02", [[1, 2]], 7),
        (b"P5\t2\t1\t7\t\x01\x02", [[1, 2]], 7),
        (b"P5\x0b2\x0b1\x0b7\x0b\x01\x02", [[1, 2]], 7),
        (b"P5\x0c2\x0c1\x0c7\x0c\x01\x02", [[1, 2]], 7),
        # one whitespace byte ends the header: the \n is the first sample
        (b"P5 2 1 255\r\n\x05", [[10, 5]], 255),
        # int() converts at most 4300 digits, leading zeros included
        pytest.param(b"P5 " + b"0" * 4299 + b"2 1 255\n\x01\x02", [[1, 2]], 255,
                     id="width-of-4300-digits"),
    ],
)
def test_pnm_header_grammar_accepts(tmp_path, raw, samples, maxval):
    path = tmp_path / "h.pgm"
    path.write_bytes(raw)
    assert np.array_equal(read_pnm(path), np.array(samples) / maxval)


@pytest.mark.parametrize(
    "raw",
    [
        b"P5 2 1 # unterminated comment",
        b"P5 x 1 255\n\x00\x00",
        b"P5 +2 1 255\n\x00\x00",
        b"P5 2 -1 255\n\x00\x00",
        b"P5 \xd9\xa2 1 255\n\x00\x00",  # Arabic-Indic two, in UTF-8
        b"P5 2 1 255#c\n\x00\x00",  # a comment right after the maxval
        b"P5 2 1 255",  # end of file right after the maxval
        pytest.param(b"P5 " + b"1" * 5000 + b" 1 255\n", id="width-of-5000-digits"),
        pytest.param(b"P5 2 " + b"1" * 5000 + b" 255\n", id="height-of-5000-digits"),
        pytest.param(b"P5 2 1 " + b"0" * 4998 + b"255\n", id="maxval-of-5001-digits"),
    ],
)
def test_pnm_header_grammar_rejects(tmp_path, raw):
    path = tmp_path / "h.pgm"
    path.write_bytes(raw)
    with pytest.raises(ValueError, match="^malformed PNM header"):
        read_pnm(path)


def test_pnm_reads_the_first_of_concatenated_images(tmp_path):
    # Netpbm allows several images in one file, so bytes after the
    # payload are not an error.
    path = tmp_path / "two.pgm"
    path.write_bytes(b"P5\n2 1\n255\n" + bytes([0, 255]) + b"P5\n1 1\n255\n" + bytes([7]))
    img = read_pnm(path)
    assert img.shape == (1, 2)
    assert list(img[0]) == [0.0, 1.0]


_SEP = rb"(?:[ \t\r\n\x0b\x0c]|#[^\n]*\n)"
# The PNM header grammar, written out apart from the reader's pattern.
_PNM_HEADER = re.compile(
    rb"P([56])" + _SEP + rb"*(\d+)" + _SEP + rb"+(\d+)" + _SEP + rb"+(\d+)[ \t\r\n\x0b\x0c]"
)


def _declared_shape(kind, data):
    """The array shape a file's header declares, or None if the header
    does not parse."""
    if kind == "flo":
        if len(data) < 12 or data[:4] != struct.pack("<f", 202021.25):
            return None
        width, height = struct.unpack("<ii", data[4:12])
        return (height, width, 2)
    m = _PNM_HEADER.match(data)
    if m is None:
        return None
    width, height = int(m.group(2)), int(m.group(3))
    return (height, width) if m.group(1) == b"5" else (height, width, 3)


@st.composite
def mutated_files(draw):
    """A valid PGM (8 or 16 bit), PPM or .flo file, then up to three
    truncations, byte replacements, insertions or deletions, most of
    them in or next to the header."""
    kind = draw(st.sampled_from(("pgm", "pgm16", "ppm", "flo")))
    h, w = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    if kind == "flo":
        header = struct.pack("<f", 202021.25) + struct.pack("<ii", w, h)
        payload = bytes(8 * h * w)
    else:
        maxval = 65535 if kind == "pgm16" else 255
        magic = b"P6" if kind == "ppm" else b"P5"
        header = magic + b"\n%d %d\n%d\n" % (w, h, maxval)
        channels = 3 if kind == "ppm" else 1
        payload = bytes(range(7, 7 + h * w * channels * (2 if maxval > 255 else 1)))
    data = bytearray(header + payload)
    interesting = st.sampled_from(b" \n\t#0123456789-+xP\x00\xff")
    for op in draw(st.lists(st.sampled_from(("truncate", "replace", "insert", "delete")), max_size=3)):
        pos = draw(st.integers(0, min(len(data), len(header) + 2)))
        if op == "truncate":
            del data[draw(st.integers(0, len(data))):]
        elif op == "insert":
            data.insert(pos, draw(st.one_of(interesting, st.integers(0, 255))))
        elif pos < len(data):
            if op == "replace":
                data[pos] = draw(st.one_of(interesting, st.integers(0, 255)))
            else:
                del data[pos]
    return kind, bytes(data)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(mutated_files())
def test_mutated_headers_raise_value_error_or_read_the_declared_shape(case):
    kind, data = case
    reader = read_flo if kind == "flo" else read_pnm
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f"
        path.write_bytes(data)
        try:
            out = reader(path)
        except ValueError:
            return
    assert out.shape == _declared_shape(kind, data)


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
