"""Synthetic fundus-like image generator for desk-scale experiments.

Each image is a dark background with a textured circular retina and a
bright optic disc placed deliberately off-center, so disc-guided cropping
has something to gain. Positive (referable) samples carry a dark notch bite
in the disc rim; each of the ten feature flags, when set, renders a small
rim tick at its own angular slot. All cues live inside the disc
neighborhood, mimicking the clinical situation where the evidence sits
around the optic nerve head.

The disc position and size are written out as a ground-truth detection for
every image, and everything derives from (seed, sample index), so a run is
byte-reproducible.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .atomic import write_atomic
from .dataset import N_FEATURES, ManifestRow, write_manifest
from .ppm import write_ppm

RETINA_COLOR = np.array([168.0, 74.0, 42.0])
DISC_COLOR = np.array([236.0, 198.0, 124.0])
CUP_COLOR = np.array([248.0, 226.0, 168.0])
NOTCH_COLOR = np.array([120.0, 44.0, 26.0])
TICK_COLOR = np.array([84.0, 30.0, 20.0])


def _bounding_box(size: int, cx: float, cy: float, radius: float) -> tuple[slice, slice]:
    """Rows and columns of the circle's bounding box, padded by one pixel and
    clipped to the image. Every pixel outside lies at least radius + 1 from
    the centre, so the circle test can never pass there."""
    def span(c: float) -> slice:
        return slice(max(math.floor(c - radius) - 1, 0),
                     min(math.ceil(c + radius) + 2, size))
    return span(cy), span(cx)


def _disc_mask(box: tuple[slice, slice], cx: float, cy: float,
               radius: float) -> np.ndarray:
    rows, cols = box
    yy = np.arange(rows.start, rows.stop)[:, None]
    xx = np.arange(cols.start, cols.stop)
    return (xx - cx) ** 2 + (yy - cy) ** 2 <= radius ** 2


def _paint(img: np.ndarray, cx: float, cy: float, radius: float,
           color: np.ndarray) -> None:
    box = _bounding_box(len(img), cx, cy, radius)
    img[box][_disc_mask(box, cx, cy, radius)] = color


def render_sample(size: int, rng: np.random.Generator, positive: bool,
                  features: np.ndarray) -> tuple[np.ndarray, tuple[float, float, float]]:
    """Draw one image; returns it plus the disc (cx, cy, radius) in pixels."""
    # Near-black sensor noise outside the retina keeps background removal
    # from being a no-op (every value stays below the removal threshold).
    img = rng.integers(0, 8, size=(size, size, 3)).astype(np.float64)
    center = (size - 1) / 2.0
    retina_r = 0.47 * size
    offsets = np.arange(size) - center
    rad2 = offsets ** 2 + offsets[:, None] ** 2
    retina = rad2 <= retina_r ** 2
    # Radial shading plus pixel noise so the retina is not a flat disc.
    shade = 1.0 - 0.35 * np.sqrt(rad2) / retina_r
    noise = rng.normal(0.0, 6.0, size=(size, size, 1))
    value = RETINA_COLOR * shade[..., None]
    value += noise
    np.copyto(img, value, where=retina[..., None])

    disc_r = rng.uniform(0.09, 0.12) * size
    offset = rng.uniform(0.18, 0.30) * size
    angle = rng.uniform(0.0, 2.0 * math.pi)
    dcx = center + offset * math.cos(angle)
    dcy = center + offset * math.sin(angle)
    _paint(img, dcx, dcy, disc_r, DISC_COLOR)
    _paint(img, dcx, dcy, 0.45 * disc_r, CUP_COLOR)

    if positive:
        # Rim notch: a dark bite on the disc boundary, the referable cue.
        notch_angle = rng.uniform(0.0, 2.0 * math.pi)
        nx = dcx + disc_r * math.cos(notch_angle)
        ny = dcy + disc_r * math.sin(notch_angle)
        box = _bounding_box(size, nx, ny, 0.55 * disc_r)
        notch = _disc_mask(box, nx, ny, 0.55 * disc_r)
        notch &= _disc_mask(box, dcx, dcy, disc_r)
        img[box][notch] = NOTCH_COLOR
    for k in np.nonzero(features)[0]:
        # Feature k renders as a small tick at its own rim slot.
        tick_angle = 2.0 * math.pi * (k + 0.5) / len(features)
        tx = dcx + 0.8 * disc_r * math.cos(tick_angle)
        ty = dcy + 0.8 * disc_r * math.sin(tick_angle)
        _paint(img, tx, ty, 0.22 * disc_r, TICK_COLOR)

    np.rint(img, out=img)
    np.clip(img, 0, 255, out=img)
    return img.astype(np.uint8), (dcx, dcy, disc_r)


def generate_dataset(out_dir: str | Path, n: int, seed: int, *,
                     size: int = 128, pos_fraction: float = 0.5,
                     feature_rate: float = 0.5) -> Path:
    """Write images, ground-truth detections and a manifest under
    ``out_dir``; returns the manifest path.

    Exactly ``round(n * pos_fraction)`` samples are positive. Positive
    samples draw each feature flag with probability ``feature_rate``;
    negatives carry none. The disc centre lies at least ``0.2 * size - 0.5``
    pixels from each edge, so ``size >= 3`` keeps every written detection
    inside the image.
    """
    if n < 1 or size < 3:
        raise ValueError(f"need n >= 1 images of size >= 3, got n={n}, size={size}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    for name, rate in (("pos_fraction", pos_fraction), ("feature_rate", feature_rate)):
        if not 0.0 <= rate <= 1.0:  # NaN fails too
            raise ValueError(f"{name} must lie in [0, 1], got {rate}")
    out_dir = Path(out_dir)
    (out_dir / "images").mkdir(parents=True, exist_ok=True)
    (out_dir / "detections").mkdir(parents=True, exist_ok=True)
    n_pos = int(round(n * pos_fraction))
    rows: list[ManifestRow] = []
    for i in range(n):
        rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0xDA7A, i)))
        positive = i < n_pos
        features = (rng.random(N_FEATURES) < feature_rate).astype(int) if positive \
            else np.zeros(N_FEATURES, dtype=int)
        image, (dcx, dcy, disc_r) = render_sample(size, rng, positive, features)
        image_id = f"img{i:04d}"
        write_ppm(out_dir / "images" / f"{image_id}.ppm", image)
        conf = rng.uniform(0.85, 0.99)
        det_line = (f"0 {dcx / size:.6f} {dcy / size:.6f} "
                    f"{2 * disc_r / size:.6f} {2 * disc_r / size:.6f} {conf:.4f}\n")
        write_atomic(out_dir / "detections" / f"{image_id}.txt", det_line)
        rows.append(ManifestRow(
            image_id=image_id,
            image_path=f"images/{image_id}.ppm",
            width=size, height=size,
            rg=int(positive),
            features=tuple(int(v) for v in features),
            detection_path=f"detections/{image_id}.txt"))
    manifest = out_dir / "manifest.tsv"
    write_manifest(manifest, rows)
    return manifest
