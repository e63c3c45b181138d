"""Dataset manifest handling and the per-image preprocessing pipeline.

The manifest is tab-separated text with a header row; one row per image:
id, path, extents, the referable-glaucoma label, the feature flags and an
optional per-image detection file. Paths are resolved relative to the
manifest's directory. ``TASKS`` names one binary task per label column.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .atomic import write_atomic
from .detections import CONFIDENCE_FLOOR, DiscDetection, load_detection_file, select_roi
from .ppm import read_ppm
from .preprocess import BG_TAU, crop_roi, remove_background, resize_bilinear

N_FEATURES = 10
TASKS = ["glaucoma", *[f"feature{k}" for k in range(1, N_FEATURES + 1)]]
MANIFEST_COLUMNS = ["image_id", "image_path", "width", "height", "rg",
                    *[f"f{k}" for k in range(1, N_FEATURES + 1)], "detection_path"]


def ordered_tasks(tasks: Sequence[str]) -> tuple[str, ...]:
    """``tasks`` as a tuple, if they are one or more distinct ``TASKS`` in
    ``TASKS`` order, as a training run and its checkpoint hold them."""
    tasks = tuple(tasks)
    if not tasks or tasks != tuple(task for task in TASKS if task in tasks):
        raise ValueError(f"tasks must be distinct and in TASKS order, got {tasks!r}")
    return tasks


@dataclass(frozen=True)
class ManifestRow:
    image_id: str
    image_path: str
    width: int
    height: int
    rg: int
    features: tuple[int, ...]
    detection_path: str | None = None

    def label(self, task: str) -> int:
        """The 0/1 label of ``task``, one of ``TASKS``."""
        return (self.rg, *self.features)[TASKS.index(task)]


@dataclass(frozen=True)
class PreprocessOptions:
    """Pipeline toggles: disc cropping and background removal can each be
    switched off to reproduce the ablation configurations. The detection
    floor (``detections.CONFIDENCE_FLOOR``) and the background threshold
    (``preprocess.BG_TAU``) are constants."""

    od_crop: bool = True
    bg_removal: bool = True


def _binary(value: str, column: str, where: str) -> int:
    if value not in ("0", "1"):
        raise ValueError(f"{where}: column {column} must be 0 or 1, got {value!r}")
    return int(value)


def _image_id(value: str, where: str) -> str:
    # the id names preprocess's output file and report.txt's nhd.<id> key
    if not re.fullmatch(r"[A-Za-z0-9_-][A-Za-z0-9._-]*", value):
        raise ValueError(f"{where}: column image_id must be ASCII letters, digits, '.', "
                         f"'_' or '-', not empty or starting with '.', got {value!r}")
    return value


def _extent(value: str, column: str, where: str) -> int:
    # ASCII digits only, as in PPM headers: isdecimal() also takes fullwidth ones
    if not (value.isascii() and value.isdecimal()) or int(value) < 1:
        raise ValueError(f"{where}: column {column} must be a positive integer, "
                         f"got {value!r}")
    return int(value)


def read_manifest(path: str | Path) -> list[ManifestRow]:
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"manifest not found: {path}")
    base = path.parent
    rows: list[ManifestRow] = []
    seen: set[str] = set()
    with open(path, newline="") as fh:
        reader = csv.reader(fh, delimiter="\t")
        header = next(reader, None)
        if header != MANIFEST_COLUMNS:
            raise ValueError(f"{path}: bad manifest header {header}")
        for lineno, rec in enumerate(reader, start=2):
            where = f"{path}:{lineno}"
            if len(rec) != len(MANIFEST_COLUMNS):
                raise ValueError(f"{where}: expected {len(MANIFEST_COLUMNS)} columns, "
                                 f"got {len(rec)}")
            image_id = _image_id(rec[0], where)
            if image_id in seen:
                raise ValueError(f"{where}: duplicate image id {image_id!r}")
            seen.add(image_id)
            row = ManifestRow(
                image_id=image_id,
                image_path=rec[1],
                width=_extent(rec[2], "width", where),
                height=_extent(rec[3], "height", where),
                rg=_binary(rec[4], "rg", where),
                features=tuple(_binary(v, f"f{k + 1}", where)
                               for k, v in enumerate(rec[5:-1])),
                detection_path=rec[-1] or None)
            if not (base / row.image_path).is_file():
                raise FileNotFoundError(f"{where}: image not found: "
                                        f"{base / row.image_path}")
            if row.detection_path and not (base / row.detection_path).is_file():
                raise FileNotFoundError(f"{where}: detection file not found: "
                                        f"{base / row.detection_path}")
            rows.append(row)
    return rows


def write_manifest(path: str | Path, rows: list[ManifestRow]) -> None:
    text = io.StringIO()
    writer = csv.writer(text, delimiter="\t", lineterminator="\n")
    writer.writerow(MANIFEST_COLUMNS)
    for row in rows:
        writer.writerow([row.image_id, row.image_path, row.width, row.height,
                         row.rg, *row.features, row.detection_path or ""])
    write_atomic(path, text.getvalue())


def load_input_image(row: ManifestRow, base_dir: str | Path) -> np.ndarray:
    return read_ppm(Path(base_dir) / row.image_path)


def prepare_input(image: np.ndarray, row: ManifestRow, base_dir: str | Path,
                  opts: PreprocessOptions, height: int,
                  width: int) -> tuple[np.ndarray, DiscDetection | None]:
    """Crop around the row's most confident disc detection (if cropping is
    on and one clears the floor), strip background, resize to height x
    width; returns the uint8 image ready for augmentation or [0, 1] scaling,
    and the detection cropped around (None: the full image was used). The
    image must have the row's extents, which scale the detection."""
    if image.shape[:2] != (row.height, row.width):
        raise ValueError(f"{row.image_id}: image is {image.shape[1]}x{image.shape[0]}, "
                         f"the manifest lists {row.width}x{row.height}")
    detection = None
    if opts.od_crop and row.detection_path:
        detection = select_roi(load_detection_file(Path(base_dir) / row.detection_path,
                                                   row.width, row.height),
                               CONFIDENCE_FLOOR)
    if detection is not None:
        image = crop_roi(image, detection)
    if opts.bg_removal:
        image = remove_background(image, BG_TAU)
    return resize_bilinear(image, height, width), detection


def to_unit(image: np.ndarray) -> np.ndarray:
    """A uint8 image as float32 values in [0, 1], the model's input scale:
    each value is v / 255 rounded once to float32."""
    return image.astype(np.float32) / np.float32(255.0)
