"""File formats and visualizations: binary PNM, Middlebury .flo and
flow color coding.

All multi-byte .flo fields are little-endian regardless of host; PNM
16-bit samples are big-endian per the format. Images read as float64 in
[0,1]; quantization happens only on write.
"""

from __future__ import annotations

import re

import numpy as np

from .grid import vector_grid

FLO_MAGIC = 202021.25

# The header after the magic: width, height and maxval as ASCII digits,
# each after a run of whitespace and #-to-newline comments (a run that
# may be empty only before the width), then one whitespace byte.  A field
# has at most 4300 digits, the most that int() converts by default.
_SEP = rb"(?:[ \t\r\n\x0b\x0c]|#[^\n]*\n)"
_FIELD = rb"(\d{1,4300})"
_PNM_HEADER = re.compile(_SEP + rb"*" + _FIELD + _SEP + rb"+" + _FIELD + _SEP + rb"+" + _FIELD
                         + rb"[ \t\r\n\x0b\x0c]")


def read_pnm(path) -> np.ndarray:
    """Read a binary PGM (P5) or PPM (P6) as float64 scaled to [0,1].

    Returns (H, W) for P5 and (H, W, 3) for P6.  Bytes after the payload
    are ignored: Netpbm allows several images in one file, and this reads
    the first.
    """
    samples, maxval = _read_pnm_samples(path)
    return samples.astype(np.float64) / maxval


def _read_pnm_samples(path):
    """The stored integer samples of the first image of a binary PGM or
    PPM, shaped as read_pnm returns them, and its maxval."""
    with open(path, "rb") as fh:
        data = fh.read()
    magic = data[:2]
    if magic not in (b"P5", b"P6"):
        raise ValueError("unsupported PNM magic %r (need binary P5 or P6)" % magic)
    header = _PNM_HEADER.match(data, 2)
    if header is None:
        raise ValueError(
            "malformed PNM header: expected width, height and maxval as ASCII digits, "
            "separated by whitespace or # comments, then one whitespace byte"
        )
    width, height, maxval = (int(field) for field in header.groups())
    if width < 1 or height < 1:
        raise ValueError("malformed PNM header: empty image")
    if not 1 <= maxval <= 65535:
        raise ValueError("malformed PNM header: maxval %d out of range" % maxval)
    channels = 1 if magic == b"P5" else 3
    dtype = np.dtype("u1") if maxval < 256 else np.dtype(">u2")
    need = width * height * channels * dtype.itemsize
    payload = data[header.end() : header.end() + need]
    if len(payload) < need:
        raise ValueError(
            "truncated PNM payload: need %d bytes, have %d" % (need, len(payload))
        )
    samples = np.frombuffer(payload, dtype=dtype)
    if samples.max() > maxval:
        raise ValueError("PNM sample %d above maxval %d" % (samples.max(), maxval))
    shape = (height, width) if channels == 1 else (height, width, 3)
    return samples.reshape(shape), maxval


def write_pnm(path, img: np.ndarray, maxval: int = 255):
    """Write a grid as binary PGM (2-D) or PPM (H, W, 3).

    Float and bool input is clamped to [0,1] and quantized with round-
    half-to-even; uint8 input is written as-is (maxval must then be 255).
    Any other integer dtype raises ValueError rather than be clamped to
    {0, maxval}, and so do an empty image and a non-finite sample, as
    read_pnm would reject the file.
    """
    img = np.asarray(img)
    if img.ndim == 2:
        magic = b"P5"
    elif img.ndim == 3 and img.shape[2] == 3:
        magic = b"P6"
    else:
        raise ValueError("expected a (H, W) or (H, W, 3) array")
    if img.size == 0:
        raise ValueError("cannot write an empty image, shape %s" % (img.shape,))
    if not 1 <= maxval <= 65535:
        raise ValueError("maxval must lie in [1, 65535]")
    if img.dtype == np.uint8:
        if maxval != 255:
            raise ValueError("uint8 input requires maxval 255")
        q = img
    elif np.issubdtype(img.dtype, np.integer):
        raise ValueError("write_pnm takes uint8, bool or float samples, not %s" % img.dtype)
    else:
        if not np.all(np.isfinite(img)):
            raise ValueError("image samples must be finite")
        scaled = np.rint(np.clip(img.astype(np.float64), 0.0, 1.0) * maxval)
        q = scaled.astype(np.uint8 if maxval < 256 else np.dtype(">u2"))
    h, w = img.shape[:2]
    header = magic + b"\n" + ("%d %d\n%d\n" % (w, h, maxval)).encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(q.tobytes())


def read_flo(path) -> np.ndarray:
    """Read a Middlebury .flo file as a float64 (H, W, 2) field.

    The file must end with the payload; trailing bytes, and a NaN or an
    infinity in it, raise ValueError.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 12:
        raise ValueError("truncated flow file: header incomplete")
    magic = float(np.frombuffer(data[:4], dtype="<f4")[0])
    if magic != FLO_MAGIC:
        raise ValueError("not a flow file (magic %r)" % magic)
    width, height = (int(x) for x in np.frombuffer(data[4:12], dtype="<i4"))
    if width < 1 or height < 1:
        raise ValueError("not a flow file (bad dimensions %dx%d)" % (width, height))
    need = 8 * width * height
    payload = data[12:]
    if len(payload) < need:
        raise ValueError(
            "truncated flow file: need %d bytes, have %d" % (need, len(payload))
        )
    if len(payload) > need:
        raise ValueError(
            "trailing data in flow file: %d bytes after the payload" % (len(payload) - need)
        )
    samples = np.frombuffer(payload, dtype="<f4").astype(np.float64)
    return vector_grid(samples.reshape(height, width, 2))


def write_flo(path, u: np.ndarray):
    """Write a nonempty, finite (H, W, 2) field as .flo (float32
    little-endian); anything else, and a field with a value beyond
    float32's range, raises ValueError before the file is opened."""
    u = vector_grid(u)
    h, w = u.shape[:2]
    if np.max(np.abs(u)) > np.finfo(np.float32).max:
        raise ValueError("flow field has values beyond the float32 range of .flo")
    with open(path, "wb") as fh:
        fh.write(np.array([FLO_MAGIC], dtype="<f4").tobytes())
        fh.write(np.array([w, h], dtype="<i4").tobytes())
        fh.write(u.astype("<f4").tobytes())


# The segments of the flow color wheel, RY, YG, GC, CB, BM, MR: length,
# the channel that ramps, whether it ramps up from 0 (else down from
# 255), and the channel held at 255.
_WHEEL_SEGMENTS = (
    (15, 1, True, 0),
    (6, 0, False, 1),
    (4, 2, True, 1),
    (11, 1, False, 2),
    (13, 0, True, 2),
    (6, 2, False, 0),
)


def color_wheel() -> np.ndarray:
    """The 55-entry flow color wheel as (55, 3) floats in [0, 255]."""
    wheel = np.zeros((sum(n for n, *_ in _WHEEL_SEGMENTS), 3))
    col = 0
    for n, ramp, up, held in _WHEEL_SEGMENTS:
        t = np.floor(255 * np.arange(n) / n)
        wheel[col : col + n, ramp] = t if up else 255 - t
        wheel[col : col + n, held] = 255
        col += n
    return wheel


def flow_to_color(u: np.ndarray, max_magnitude: float | None = None) -> np.ndarray:
    """Middlebury color coding of a flow field, as (H, W, 3) uint8.

    Magnitudes are normalized by max_magnitude when given, else by the
    field's 99th-percentile magnitude.  Zero flow renders white; hue
    encodes direction, saturation encodes magnitude, and pixels past the
    normalization radius are dimmed to 75%.
    """
    u = vector_grid(u)
    wheel = color_wheel() / 255.0
    ncols = wheel.shape[0]
    rad = np.sqrt(u[..., 0] * u[..., 0] + u[..., 1] * u[..., 1])
    if max_magnitude is None:
        norm = float(np.percentile(rad, 99))
    else:
        norm = float(max_magnitude)
    if norm <= 1e-12:
        norm = 1.0
    fu = u[..., 0] / norm
    fv = u[..., 1] / norm
    radius = np.sqrt(fu * fu + fv * fv)
    angle = np.arctan2(-fv, -fu) / np.pi
    fk = (angle + 1.0) / 2.0 * (ncols - 1)
    k0 = np.floor(fk).astype(np.int64)
    k1 = (k0 + 1) % ncols
    frac = fk - k0
    out = np.empty(u.shape[:2] + (3,), dtype=np.uint8)
    for ch in range(3):
        col0 = wheel[k0, ch]
        col1 = wheel[k1, ch]
        col = (1.0 - frac) * col0 + frac * col1
        col = np.where(radius <= 1.0, 1.0 - radius * (1.0 - col), 0.75 * col)
        out[..., ch] = np.floor(255.0 * col).astype(np.uint8)
    return out

