"""Versioned checkpoint format and the multi-task classifier bank.

A checkpoint is a text manifest followed by raw parameter data:

    fundusvit-checkpoint v1
    model.<field> = <value>        (architecture)
    prep.<field> = <value>         (preprocessing the model was trained with)
    task = <glaucoma|feature1..feature10>
    tensor <name> <d0>x<d1>... @ <byte offset>
    ---
    <little-endian float32 arrays, manifest order>

Offsets are relative to the first byte after the ``---`` line. Round-trips
are bit-exact for float32 models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import kv
from .atomic import write_atomic
from .dataset import PreprocessOptions
from .model import DualHeadViT, ModelConfig

MAGIC = "fundusvit-checkpoint v1"
TASKS = ["glaucoma", *[f"feature{k}" for k in range(1, 11)]]


class IncompatibleCheckpointError(ValueError):
    """Checkpoint contents do not match the requested configuration."""


def _layout(shapes) -> tuple[list[str], int]:
    """Header lines for float32 arrays stored back to back, and their bytes."""
    lines, offset = [], 0
    for name, shape in shapes:
        lines.append(f"tensor {name} {'x'.join(map(str, shape))} @ {offset}")
        offset += 4 * math.prod(shape)
    return lines, offset


def save_checkpoint(path: str | Path, model: DualHeadViT,
                    prep: PreprocessOptions, task: str) -> None:
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}")
    named = model.named_parameters()
    tensor_lines, _ = _layout((name, t.data.shape) for name, t in named)
    header = [MAGIC, *kv.dump("model", model.config), *kv.dump("prep", prep),
              f"task = {task}", *tensor_lines]
    payload = [np.ascontiguousarray(t.data, dtype="<f4").tobytes() for _, t in named]
    write_atomic(path, b"".join([("\n".join(header) + "\n---\n").encode("ascii"),
                                 *payload]))


def load_checkpoint(path: str | Path) -> tuple[DualHeadViT, PreprocessOptions, str]:
    """Read a checkpoint, accepting only the exact layout ``save_checkpoint``
    writes: every parameter once, in order, at cumulative offsets, with no
    trailing bytes."""
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"checkpoint not found: {path}")
    head, sep, binary = path.read_bytes().partition(b"\n---\n")
    if not sep:
        raise IncompatibleCheckpointError(f"{path}: missing header terminator")
    try:
        header = head.decode("ascii").splitlines()
    except UnicodeDecodeError:
        raise IncompatibleCheckpointError(f"{path}: header is not ASCII") from None
    if not header or header[0] != MAGIC:
        raise IncompatibleCheckpointError(f"{path}: bad magic line "
                                          f"{header[0] if header else ''!r}")
    values: dict[str, dict[str, str]] = {"model": {}, "prep": {}}
    task = None
    tensor_lines: list[str] = []
    for line in header[1:]:
        key, _, value = line.partition(" = ")
        section, _, name = key.partition(".")
        if line.startswith("tensor "):
            tensor_lines.append(line)
        elif section in values and name and name not in values[section]:
            values[section][name] = value
        elif key == "task" and task is None:
            task = value
        else:
            raise IncompatibleCheckpointError(f"{path}: unknown or repeated "
                                              f"header line {line!r}")
    if task not in TASKS:
        raise IncompatibleCheckpointError(f"{path}: missing or unknown task {task!r}")
    try:
        config = kv.build(ModelConfig, "model", values["model"])
        prep = kv.build(PreprocessOptions, "prep", values["prep"])
    except ValueError as exc:
        raise IncompatibleCheckpointError(f"{path}: {exc}") from None
    shapes = DualHeadViT.parameter_shapes(config)
    expected, size = _layout(shapes)
    if tensor_lines != expected:
        raise IncompatibleCheckpointError(
            f"{path}: tensor lines do not match the configured architecture")
    if len(binary) != size:
        raise IncompatibleCheckpointError(
            f"{path}: payload size {len(binary)} out of range, expected {size} bytes")
    payload = np.frombuffer(binary, dtype="<f4").astype(np.float32)
    arrays, offset = {}, 0
    for name, shape in shapes:
        count = math.prod(shape)
        arrays[name] = payload[offset:offset + count].reshape(shape)
        offset += count
    return DualHeadViT.from_arrays(config, arrays), prep, task


@dataclass
class ClassifierBank:
    """Independently trained per-task models sharing one architecture."""

    models: dict[str, DualHeadViT]
    prep: PreprocessOptions
    config: ModelConfig
    skipped: dict[str, str]


def load_bank(path: str | Path) -> ClassifierBank:
    """Load a bank from a single checkpoint file or a directory of
    ``<task>.ckpt`` files; every member must share one architecture."""
    path = Path(path)
    models: dict[str, DualHeadViT] = {}
    prep = config = None
    if path.is_file():
        candidates = [path]
    elif path.is_dir():
        candidates = sorted(path.glob("*.ckpt"))
        if not candidates:
            raise FileNotFoundError(f"no *.ckpt files under {path}")
    else:
        raise FileNotFoundError(f"checkpoint path not found: {path}")
    for ckpt in candidates:
        model, ckpt_prep, task = load_checkpoint(ckpt)
        if task in models:
            raise IncompatibleCheckpointError(f"{ckpt}: duplicate task {task!r}")
        if config is None:
            prep, config = ckpt_prep, model.config
        elif model.config != config or ckpt_prep != prep:
            raise IncompatibleCheckpointError(
                f"{ckpt}: configuration differs from the rest of the bank")
        models[task] = model
    if "glaucoma" not in models:
        raise IncompatibleCheckpointError(f"{path}: bank has no glaucoma classifier")
    return ClassifierBank(models=models, prep=prep, config=config, skipped={})
