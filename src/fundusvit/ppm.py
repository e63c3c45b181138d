"""Binary portable pixmap (P6) reading and writing.

The baseline on-disk image format for the pipeline: lossless, trivially
diffable at the byte level, no external decoder needed.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .atomic import write_atomic


def _next_token(buf: bytes, pos: int, path: str | Path) -> tuple[bytes, int]:
    n = len(buf)
    while pos < n:
        c = buf[pos:pos + 1]
        if c == b"#":
            while pos < n and buf[pos:pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    start = pos
    while pos < n and not buf[pos:pos + 1].isspace():
        pos += 1
    if start == pos:
        raise ValueError(f"{path}: truncated PPM header")
    return buf[start:pos], pos


def _header_number(buf: bytes, pos: int, name: str, path: str | Path) -> tuple[int, int]:
    token, pos = _next_token(buf, pos, path)
    if not token.isdigit():  # ASCII digits only: int() would also take "+2" or "1_0"
        raise ValueError(f"{path}: PPM {name} must be ASCII decimal digits, got {token!r}")
    return int(token), pos


def read_ppm(path: str | Path) -> np.ndarray:
    """Read a P6 file into an HxWx3 uint8 array."""
    buf = Path(path).read_bytes()
    magic, pos = _next_token(buf, 0, path)
    if magic != b"P6":
        raise ValueError(f"{path}: not a binary PPM (magic {magic!r})")
    w, pos = _header_number(buf, pos, "width", path)
    h, pos = _header_number(buf, pos, "height", path)
    maxval, pos = _header_number(buf, pos, "maxval", path)
    if maxval != 255:
        raise ValueError(f"{path}: only maxval 255 supported, got {maxval}")
    if w < 1 or h < 1:
        raise ValueError(f"{path}: image extents must be positive, got {w}x{h}")
    pos += 1  # single whitespace byte after maxval
    raster = buf[pos:pos + w * h * 3]
    if len(raster) != w * h * 3:
        raise ValueError(f"{path}: raster truncated ({len(raster)} of {w * h * 3} bytes)")
    return np.frombuffer(raster, dtype=np.uint8).reshape(h, w, 3).copy()


def write_ppm(path: str | Path, image: np.ndarray) -> None:
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[2] != 3 or image.dtype != np.uint8:
        raise ValueError(f"expected an HxWx3 uint8 image, got {image.shape} {image.dtype}")
    h, w, _ = image.shape
    write_atomic(path, f"P6\n{w} {h}\n255\n".encode("ascii") + image.tobytes())
