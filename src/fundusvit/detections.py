"""Optic-disc detector output ingestion and per-image ROI selection.

Detections arrive as one text file per image, ``<image-id>.txt``, each line
``class cx cy w h confidence`` with the geometry normalized to [0, 1] (the
format most single-stage detector exporters emit). Coordinates are scaled
to pixels against the image extents recorded in the dataset manifest.

Images with no detection file, or none above the confidence floor, fall
back to the full image downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from . import kv

CONFIDENCE_FLOOR = 0.25  # a detection below this is not cropped around


@dataclass(frozen=True)
class DiscDetection:
    """One disc bounding box in pixel coordinates."""

    cx: float
    cy: float
    w: float
    h: float
    confidence: float


def parse_detection_lines(text: str, width: int, height: int,
                          source: str = "<detections>") -> list[DiscDetection]:
    """Parse one image's detection file, converting to pixels.

    Malformed lines are rejected with their 1-based line number; geometry
    outside [0, 1] is an error. The class is a ``kv.integer`` and the five
    numbers ``kv.real``s, so ``+0.5``, ``0.2_5`` or non-ASCII digits are
    refused as in a config. Results keep the file's order.
    """
    out: list[DiscDetection] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 6:
            raise ValueError(f"{source}:{lineno}: expected 6 fields "
                             f"'class cx cy w h confidence', got {len(parts)}")
        try:
            kv.integer(parts[0])
            cx, cy, w, h, conf = (kv.real(v) for v in parts[1:])
        except ValueError:
            raise ValueError(f"{source}:{lineno}: non-numeric field in {line!r}") from None
        for label, value in (("cx", cx), ("cy", cy), ("w", w), ("h", h)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{source}:{lineno}: normalized {label}={value} "
                                 f"outside [0, 1]")
        if not 0.0 <= conf <= 1.0:
            raise ValueError(f"{source}:{lineno}: confidence {conf} outside [0, 1]")
        if w <= 0 or h <= 0:
            raise ValueError(f"{source}:{lineno}: nonpositive box size ({w}, {h})")
        out.append(DiscDetection(cx * width, cy * height, w * width, h * height, conf))
    return out


def load_detection_file(path: str | Path, width: int, height: int) -> list[DiscDetection]:
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"detection file not found: {path}")
    return parse_detection_lines(path.read_text(), width, height, source=str(path))


def select_roi(detections: list[DiscDetection],
               floor: float = CONFIDENCE_FLOOR) -> DiscDetection | None:
    """The first most confident detection at or above the floor; None: the full image."""
    candidates = [d for d in detections if d.confidence >= floor]
    return max(candidates, key=lambda d: d.confidence, default=None)
