"""File formats: binary PGM images, flat float64 tensors with JSON sidecars, and JSON files."""

from __future__ import annotations

import json
import math
import mmap
import os
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError, ShapeError, as_real
from .grid import as_grid

_WHITESPACE = tuple(bytes([c]) for c in b" \t\r\n\x0b\x0c")  # one-byte slices, as a header is read
# The keys every tensor sidecar holds; write_tensor's ``extra`` adds others.
HEADER_KEYS = ("shape", "dtype", "order")


def write_pgm(path, image, maxval: int = 255) -> None:
    """Write a [0, 1] rank-2 grid as binary PGM (P5), quantized to ``maxval``;
    values outside [0, 1] clip to it, and a NaN pixel raises ShapeError."""
    image = as_grid(image, rank=2, name="image")
    if not 1 <= maxval <= 65535:
        raise ConfigError(f"PGM maxval must lie in 1..65535, got {maxval}")
    if np.isnan(image.max()):  # max propagates NaN, without a full-frame mask
        row, col = np.unravel_index(np.argmax(np.isnan(image)), image.shape)
        raise ShapeError(f"image pixel (row {row}, col {col}) is NaN, which PGM cannot represent")
    q = np.clip(image, 0.0, 1.0, out=np.empty(image.shape))
    q *= maxval
    np.rint(q, out=q)
    with open(path, "wb") as f:
        f.write(f"P5\n{image.shape[1]} {image.shape[0]}\n{maxval}\n".encode("ascii"))
        f.write(q.astype(">u2" if maxval > 255 else "u1"))


def write_pgm_scratch(height, width, maxval: int = 255) -> float:
    """The doubles that ``write_pgm`` holds besides its image: the quantized
    float buffer, the 1- or 2-byte payload of every pixel, and 1024 (8 KiB)
    for the open file, its header and the arrays' objects."""
    return as_real(height) * as_real(width) * (1 + (2 if maxval > 255 else 1) / 8) + 1024


def read_pgm_header(path) -> tuple:
    """(height, width) of a binary PGM (P5) from its header alone; raises
    FormatError unless the file holds exactly the payload the header declares."""
    with open(path, "rb") as f:
        if os.fstat(f.fileno()).st_size == 0:  # an empty file cannot be mapped
            return _header(b"", path)[:2]
        with mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ) as raw:
            return _header(raw, path)[:2]


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM (P5) into a [0, 1] float64 grid; raises FormatError
    naming the first sample above the header's maxval."""
    raw = Path(path).read_bytes()
    height, width, maxval, offset = _header(raw, path)
    img = np.frombuffer(raw, ">u2" if maxval > 255 else "u1", height * width, offset).reshape(height, width)
    # no byte exceeds 255, nor a two-byte sample 65535
    if maxval not in (255, 65535) and img.max() > maxval:
        row, col = np.unravel_index(np.argmax(img > maxval), img.shape)
        raise FormatError(f"{path}: sample {img[row, col]} at (row {row}, col {col}) exceeds maxval {maxval}")
    return img / maxval  # true division of integers decodes straight into float64


def _header(raw, path) -> tuple:
    """(height, width, maxval, offset of the payload) of the PGM bytes ``raw``;
    raises FormatError unless the payload fills the rest of ``raw`` exactly."""
    magic, pos = _token(raw, 0, path, "magic")
    if magic != b"P5":
        raise FormatError(f"{path}: not a binary PGM, magic is {magic!r}")
    width, pos = _int_token(raw, pos, path, "width")
    height, pos = _int_token(raw, pos, path, "height")
    maxval, pos = _int_token(raw, pos, path, "maxval")
    if width < 1 or height < 1:
        raise FormatError(f"{path}: invalid image size {width}x{height}")
    if not 1 <= maxval <= 65535:
        raise FormatError(f"{path}: invalid maxval {maxval}")
    if pos >= len(raw) or raw[pos : pos + 1] not in _WHITESPACE:
        raise FormatError(f"{path}: missing whitespace before pixel payload")
    got = len(raw) - pos - 1
    expected = width * height * (2 if maxval > 255 else 1)
    if got != expected:
        raise FormatError(
            f"{path}: expected {expected} payload bytes for {width}x{height} "
            f"maxval {maxval}, got {got}"
        )
    return height, width, maxval, pos + 1


def _token(raw, pos, path, what):
    while pos < len(raw):
        c = raw[pos : pos + 1]
        if c == b"#":
            while pos < len(raw) and raw[pos : pos + 1] != b"\n":
                pos += 1
        elif c in _WHITESPACE:
            pos += 1
        else:
            break
    start = pos
    while pos < len(raw) and raw[pos : pos + 1] not in _WHITESPACE:
        pos += 1
    if start == pos:
        raise FormatError(f"{path}: truncated header, missing {what}")
    return raw[start:pos], pos


def _int_token(raw, pos, path, what):
    tok, pos = _token(raw, pos, path, what)
    try:
        return int(tok), pos
    except ValueError:
        raise FormatError(f"{path}: header field {what} is not an integer: {tok!r}") from None


def sidecar_path(path) -> Path:
    return Path(str(path) + ".json")


def write_json(path, payload) -> None:
    """Write ``payload`` as JSON, indented by 2 with sorted keys and a final newline."""
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_tensor(path, array, extra: dict | None = None) -> None:
    """Write a tensor as flat little-endian float64 plus a JSON sidecar header."""
    array = np.ascontiguousarray(np.asarray(array, dtype=np.float64))
    Path(path).write_bytes(array.astype("<f8").tobytes())
    meta = {"shape": list(array.shape), "dtype": "float64", "order": "row-major"}
    if extra:
        meta.update(extra)
    write_json(sidecar_path(path), meta)


def read_tensor(path) -> tuple:
    """Read a tensor written by :func:`write_tensor`; returns (array, metadata)."""
    side = sidecar_path(path)
    if not side.exists():
        raise FormatError(f"{path}: missing sidecar header {side}")
    try:
        meta = json.loads(side.read_bytes())
    except (ValueError, RecursionError) as exc:  # bad JSON or bad UTF-8; nesting too deep
        raise FormatError(f"{side}: malformed JSON sidecar: {exc}") from None
    if not isinstance(meta, dict):
        raise FormatError(f"{side}: sidecar must be a JSON object, got {type(meta).__name__}")
    for key in HEADER_KEYS:
        if key not in meta:
            raise FormatError(f"{side}: sidecar is missing the {key!r} field")
    if meta["dtype"] != "float64":
        raise FormatError(f"{side}: unsupported dtype {meta['dtype']!r}")
    if meta["order"] != "row-major":
        raise FormatError(f"{side}: unsupported order {meta['order']!r}")
    shape = meta["shape"]
    # type() is int rejects bools and integral floats, which write_tensor never writes.
    if not (isinstance(shape, list) and shape and all(type(x) is int and x >= 1 for x in shape)):
        raise FormatError(f"{side}: shape must be a non-empty list of positive integers, got {shape!r}")
    raw = Path(path).read_bytes()
    expected = 8 * math.prod(shape)  # a Python int: no int64 wrap-around
    if len(raw) != expected:
        raise FormatError(
            f"{path}: expected {expected} bytes for shape {shape}, got {len(raw)}"
        )
    return np.frombuffer(raw, dtype="<f8").reshape(shape).copy(), meta
