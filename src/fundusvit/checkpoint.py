"""Versioned checkpoint format and the multi-task classifier bank.

A training run writes one checkpoint, ``model.ckpt``: a text manifest
followed by raw parameter data,

    fundusvit-checkpoint v2
    model.<field> = <value>        (architecture)
    prep.<field> = <value>         (preprocessing the model was trained with)
    tasks = <task> <task> ...      (K distinct tasks, in TASKS order)
    tensor <name> <K>x<d0>x<d1>... @ <byte offset>
    ---
    <little-endian float32 arrays, manifest order>

Each tensor line is one parameter as the task-stacked ``DualHeadViT`` holds
it, a (K, ...) array, stored whole; a single-task run is K = 1, a bank run
every trained task. Offsets are relative to the first byte after the
``---`` line. Round-trips are bit-exact for float32 models.

``_header`` alone defines the manifest: a header loads only if it is the
exact bytes ``_header`` writes for the ``model.*``, ``prep.*`` and ``tasks``
values it names, so a missing, repeated or reordered line, or a value
spelled otherwise, is refused rather than read with a default. A file whose
first line is not the magic is refused as soon as a read shows it.

The reader opens the file once, reads the header in chunks up to the
``---`` line, searching at most ``_HEADER_LIMIT`` header bytes for it (no
longer header is written), then reads the payload straight into one
float32 buffer and checks it finite. Every parameter of the loaded model is a contiguous
(K, ...) view of that buffer; no per-member model is built.
"""

from __future__ import annotations

import math
import os
import stat
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Sequence

import numpy as np

from . import kv
from .atomic import write_atomic
from .dataset import PreprocessOptions, ordered_tasks
from .model import DualHeadViT, ModelConfig

MAGIC = "fundusvit-checkpoint v2"
CHECKPOINT_NAME = "model.ckpt"  # a run directory's checkpoint
_MAGIC_LINE = MAGIC.encode() + b"\n"
_END = b"\n---\n"  # ends the header
_CHUNK = 8192  # bytes per header read; a depth-4 header (about 3.5 KB) takes one
# Longest header the reader accepts and save_checkpoint writes, so a file
# without its ``---`` line is refused after a bounded read. Each encoder
# block adds about 1 KB, so this holds a depth of about a thousand.
_HEADER_LIMIT = 1 << 20


class IncompatibleCheckpointError(ValueError):
    """Checkpoint contents do not match the requested configuration."""


def _layout(shapes, k: int) -> tuple[list[str], int]:
    """Header lines for (k, ...) float32 arrays stored back to back, and
    their bytes."""
    lines, offset = [], 0
    for name, shape in shapes:
        lines.append(f"tensor {name} {'x'.join(map(str, (k, *shape)))} @ {offset}")
        offset += 4 * k * math.prod(shape)
    return lines, offset


def _header(config: ModelConfig, prep: PreprocessOptions, tasks: tuple[str, ...],
            tensor_lines: list[str]) -> bytes:
    """The manifest bytes before ``---``: ASCII for every setting the configs
    accept, latin-1 so that any text a reader decodes maps back to its bytes."""
    return "\n".join([MAGIC, *kv.dump("model", config), *kv.dump("prep", prep),
                      f"tasks = {' '.join(tasks)}", *tensor_lines]).encode("latin-1")


def save_checkpoint(path: str | Path, model: DualHeadViT,
                    prep: PreprocessOptions, tasks: Sequence[str]) -> None:
    """Write ``model``, a stack of K tasks, as the checkpoint of ``tasks``:
    K distinct tasks in ``TASKS`` order, one per member of the stack."""
    tasks = ordered_tasks(tasks)
    if model.n_tasks != len(tasks):
        raise ValueError(f"a stack of {model.n_tasks} tasks saved as {len(tasks)}")
    tensor_lines, _ = _layout(model.parameter_shapes(model.config), len(tasks))
    head = _header(model.config, prep, tasks, tensor_lines)
    if len(head) > _HEADER_LIMIT:
        raise ValueError(f"checkpoint header of {len(head)} bytes is over the "
                         f"{_HEADER_LIMIT}-byte limit")
    write_atomic(path, b"".join([head, _END,
                                 *[np.ascontiguousarray(t.data, dtype="<f4")
                                   for t in model.params.values()]]))


@dataclass(frozen=True)
class _Header:
    """An accepted checkpoint header: its settings, its tasks and the
    payload bytes they imply."""

    config: ModelConfig
    prep: PreprocessOptions
    tasks: tuple[str, ...]
    size: int


def _first_difference(head: bytes, expected: bytes) -> str:
    """The first line where ``head`` departs from ``expected``: its number,
    and the line read and the line expected, each cut to 60 characters."""
    read, want = head.split(b"\n"), expected.split(b"\n")
    n = next((i for i, (a, b) in enumerate(zip(read, want)) if a != b),
             min(len(read), len(want)))
    shown = [repr(lines[n].decode("ascii", "backslashreplace")[:60]) if n < len(lines)
             else "the end of the header" for lines in (read, want)]
    return f"header line {n + 1} reads {shown[0]}, expected {shown[1]}"


def _parse_header(path: Path, head: bytes) -> _Header:
    """Parse the header bytes before ``---``, accepted only if ``_header``
    writes exactly ``head`` for the settings and tasks it names, and only
    if those tasks are distinct and in ``TASKS`` order. A key or value that
    ``kv.build`` refuses is reported with its own line."""
    values: dict[str, dict[str, str]] = {"model": {}, "prep": {}}
    tasks, lines, where = "", head.decode("latin-1").split("\n"), {}
    for n, line in enumerate(lines):
        key, _, value = line.partition(" = ")
        section, _, name = key.partition(".")
        if section in values:
            # kv.build names a key "section.name", also for a line "prep"
            values[section][name], where[f"{section}.{name}"] = value, n
        elif key == "tasks":
            tasks = value
    try:
        config = kv.build(ModelConfig, "model", values["model"])
        prep = kv.build(PreprocessOptions, "prep", values["prep"])
        names = tuple(tasks.split(" "))
        tensor_lines, size = _layout(DualHeadViT.parameter_shapes(config), len(names))
        expected = _header(config, prep, names, tensor_lines)
        if head != expected:
            raise ValueError(_first_difference(head, expected))
        return _Header(config, prep, ordered_tasks(names), size)
    except kv.KeyValueError as exc:
        n = where[exc.key]
        raise IncompatibleCheckpointError(
            f"{path}: header line {n + 1} reads {lines[n][:60]!r}: {exc}") from None
    except ValueError as exc:
        raise IncompatibleCheckpointError(f"{path}: {exc}") from None


def _open(path: Path) -> BinaryIO:
    """``path`` opened for unbuffered reading, if it is a regular file; the
    open does not wait for a FIFO's writer."""
    try:
        file = open(path, "rb", buffering=0,
                    opener=lambda name, flags: os.open(name, flags | os.O_NONBLOCK))
        if stat.S_ISREG(os.fstat(file.fileno()).st_mode):
            return file
        file.close()
    except (FileNotFoundError, IsADirectoryError):
        pass
    raise FileNotFoundError(f"checkpoint not found: {path}")


def _read_header(file: BinaryIO, path: Path) -> tuple[_Header, bytearray]:
    """Read ``file`` up to its ``---`` line and accept its header: the
    header, and the payload bytes read past the terminator. A first line
    that is not the magic is refused at the read that shows it, a header
    longer than ``_HEADER_LIMIT`` once that many bytes hold no terminator."""
    data, searched = bytearray(), 0
    while (end := data.find(_END, searched)) < 0 \
            and len(data) < _HEADER_LIMIT + len(_END):
        chunk = file.read(_CHUNK)
        if not chunk:  # no terminator: the whole file is the header
            end = len(data)
            break
        searched = max(0, len(data) - len(_END) + 1)
        data += chunk
        if not _MAGIC_LINE.startswith(data[:len(_MAGIC_LINE)]):
            raise IncompatibleCheckpointError(
                f"{path}: {_first_difference(bytes(data), MAGIC.encode())}")
    if not 0 <= end <= _HEADER_LIMIT:
        raise IncompatibleCheckpointError(
            f"{path}: no '---' line ends the header within {_HEADER_LIMIT} bytes")
    header = _parse_header(path, bytes(data[:end]))
    size = max(0, os.fstat(file.fileno()).st_size - end - len(_END))
    if size != header.size:
        raise IncompatibleCheckpointError(
            f"{path}: payload size {size} out of range, expected {header.size} bytes")
    return header, data[end + len(_END):]


def _read_payload(file: BinaryIO, path: Path, spill: bytearray, buffer: np.ndarray
                  ) -> None:
    """Fill ``buffer`` with the payload: ``spill``, then the rest of
    ``file``, read straight into it; it must come out whole and finite."""
    view = memoryview(buffer).cast("B")
    filled = len(spill)
    view[:filled] = spill
    while filled < len(view) and (count := file.readinto(view[filled:])):
        filled += count
    if filled != len(view):
        raise IncompatibleCheckpointError(
            f"{path}: payload size {filled} out of range, expected {len(view)} bytes")
    if not np.isfinite(buffer).all():
        raise IncompatibleCheckpointError(f"{path}: non-finite parameter values")


@dataclass
class ClassifierBank:
    """Independently trained per-task classifiers sharing one architecture
    and preprocessing, held as one task stack: task k of ``stacked`` is
    ``tasks[k]``."""

    tasks: tuple[str, ...]
    stacked: DualHeadViT
    prep: PreprocessOptions

    @property
    def config(self) -> ModelConfig:
        return self.stacked.config

    @property
    def models(self) -> tuple[str, ...]:
        """``tasks``, under the name the benchmark harness reads."""
        return self.tasks


def load_checkpoint(path: str | Path) -> ClassifierBank:
    """Read a checkpoint, accepting only the exact layout ``save_checkpoint``
    writes: every parameter once, in order, at cumulative offsets, with no
    trailing bytes and only finite values. The task stack, K >= 1 tasks,
    holds its parameters as consecutive (K, ...) views of one float32
    buffer."""
    path = Path(path)
    with _open(path) as file:
        header, spill = _read_header(file, path)
        buffer = np.empty(header.size // 4, dtype="<f4")
        _read_payload(file, path, spill, buffer)
    k, arrays, offset = len(header.tasks), {}, 0
    for name, shape in DualHeadViT.parameter_shapes(header.config):
        count = k * math.prod(shape)
        arrays[name] = buffer[offset:offset + count].reshape(k, *shape)
        offset += count
    return ClassifierBank(header.tasks, DualHeadViT.from_arrays(header.config, arrays),
                          header.prep)


def load_bank(path: str | Path) -> ClassifierBank:
    """Load a bank from a checkpoint file, or from a run directory's
    ``model.ckpt``; its tasks must include glaucoma."""
    path = Path(path)
    if path.is_dir():
        path = path / CHECKPOINT_NAME
    bank = load_checkpoint(path)
    if "glaucoma" not in bank.tasks:
        raise IncompatibleCheckpointError(f"{path}: bank has no glaucoma classifier")
    return bank
