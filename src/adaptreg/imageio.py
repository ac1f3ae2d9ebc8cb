"""File formats and visualizations: binary PNM, Middlebury .flo, flow
color coding, and grayscale heatmaps.

All multi-byte .flo fields are little-endian regardless of host; PNM
16-bit samples are big-endian per the format. Images read as float64 in
[0,1]; quantization happens only on write.
"""

from __future__ import annotations

import numpy as np

from .grid import vector_grid

FLO_MAGIC = 202021.25

_WHITESPACE = b" \t\r\n\x0b\x0c"


def _next_token(buf: bytes, pos: int):
    while pos < len(buf):
        ch = buf[pos : pos + 1]
        if ch == b"#":
            nl = buf.find(b"\n", pos)
            if nl < 0:
                raise ValueError("malformed PNM header: unterminated comment")
            pos = nl + 1
        elif ch in _WHITESPACE:
            pos += 1
        else:
            break
    start = pos
    while pos < len(buf) and buf[pos : pos + 1] not in _WHITESPACE and buf[pos : pos + 1] != b"#":
        pos += 1
    if start == pos:
        raise ValueError("malformed PNM header: missing field")
    return buf[start:pos], pos


def read_pnm(path) -> np.ndarray:
    """Read a binary PGM (P5) or PPM (P6) as float64 scaled to [0,1].

    Returns (H, W) for P5 and (H, W, 3) for P6.  Bytes after the payload
    are ignored: Netpbm allows several images in one file, and this reads
    the first.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    magic = data[:2]
    if magic not in (b"P5", b"P6"):
        raise ValueError("unsupported PNM magic %r (need binary P5 or P6)" % magic)
    pos = 2
    fields = []
    for _ in range(3):
        token, pos = _next_token(data, pos)
        if not token.isdigit():
            raise ValueError("malformed PNM header: non-numeric field %r" % token)
        fields.append(int(token))
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise ValueError("malformed PNM header: empty image")
    if not 1 <= maxval <= 65535:
        raise ValueError("malformed PNM header: maxval %d out of range" % maxval)
    if pos >= len(data) or data[pos : pos + 1] not in _WHITESPACE:
        raise ValueError("malformed PNM header: expected whitespace before payload")
    pos += 1
    channels = 1 if magic == b"P5" else 3
    dtype = np.dtype("u1") if maxval < 256 else np.dtype(">u2")
    need = width * height * channels * dtype.itemsize
    payload = data[pos : pos + need]
    if len(payload) < need:
        raise ValueError(
            "truncated PNM payload: need %d bytes, have %d" % (need, len(payload))
        )
    samples = np.frombuffer(payload, dtype=dtype)
    if samples.max() > maxval:
        raise ValueError("PNM sample %d above maxval %d" % (samples.max(), maxval))
    shape = (height, width) if channels == 1 else (height, width, 3)
    return (samples.astype(np.float64) / maxval).reshape(shape)


def write_pnm(path, img: np.ndarray, maxval: int = 255):
    """Write a grid as binary PGM (2-D) or PPM (H, W, 3).

    Float input is clamped to [0,1] and quantized with round-half-to-
    even; uint8 input is written as-is (maxval must then be 255).
    """
    img = np.asarray(img)
    if img.ndim == 2:
        magic = b"P5"
    elif img.ndim == 3 and img.shape[2] == 3:
        magic = b"P6"
    else:
        raise ValueError("expected a (H, W) or (H, W, 3) array")
    if not 1 <= maxval <= 65535:
        raise ValueError("maxval must lie in [1, 65535]")
    if img.dtype == np.uint8:
        if maxval != 255:
            raise ValueError("uint8 input requires maxval 255")
        q = img
    else:
        scaled = np.rint(np.clip(img.astype(np.float64), 0.0, 1.0) * maxval)
        q = scaled.astype(np.uint8 if maxval < 256 else np.dtype(">u2"))
    h, w = img.shape[:2]
    header = magic + b"\n" + ("%d %d\n%d\n" % (w, h, maxval)).encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(q.tobytes())


def read_flo(path) -> np.ndarray:
    """Read a Middlebury .flo file as a float64 (H, W, 2) field.

    The file must end with the payload; trailing bytes raise ValueError.
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
    return samples.reshape(height, width, 2)


def write_flo(path, u: np.ndarray):
    """Write a (H, W, 2) field as .flo (float32 little-endian)."""
    u = vector_grid(u)
    h, w = u.shape[:2]
    with open(path, "wb") as fh:
        fh.write(np.array([FLO_MAGIC], dtype="<f4").tobytes())
        fh.write(np.array([w, h], dtype="<i4").tobytes())
        fh.write(u.astype("<f4").tobytes())


# Segment sizes of the flow color wheel: RY, YG, GC, CB, BM, MR.
_WHEEL_SEGMENTS = (15, 6, 4, 11, 13, 6)


def color_wheel() -> np.ndarray:
    """The 55-entry flow color wheel as (55, 3) floats in [0, 255]."""
    ry, yg, gc, cb, bm, mr = _WHEEL_SEGMENTS
    ncols = sum(_WHEEL_SEGMENTS)
    wheel = np.zeros((ncols, 3))
    col = 0
    wheel[col : col + ry, 0] = 255
    wheel[col : col + ry, 1] = np.floor(255 * np.arange(ry) / ry)
    col += ry
    wheel[col : col + yg, 0] = 255 - np.floor(255 * np.arange(yg) / yg)
    wheel[col : col + yg, 1] = 255
    col += yg
    wheel[col : col + gc, 1] = 255
    wheel[col : col + gc, 2] = np.floor(255 * np.arange(gc) / gc)
    col += gc
    wheel[col : col + cb, 1] = 255 - np.floor(255 * np.arange(cb) / cb)
    wheel[col : col + cb, 2] = 255
    col += cb
    wheel[col : col + bm, 2] = 255
    wheel[col : col + bm, 0] = np.floor(255 * np.arange(bm) / bm)
    col += bm
    wheel[col : col + mr, 2] = 255 - np.floor(255 * np.arange(mr) / mr)
    wheel[col : col + mr, 0] = 255
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


def grayscale_heatmap(u: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Affine map of [lo, hi] to 8-bit gray, clamped outside."""
    if lo >= hi:
        raise ValueError("lo must be strictly below hi")
    u = np.asarray(u, dtype=np.float64)
    scaled = np.clip((u - lo) / (hi - lo), 0.0, 1.0)
    return np.rint(scaled * 255.0).astype(np.uint8)
