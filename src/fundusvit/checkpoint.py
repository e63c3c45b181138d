"""Versioned checkpoint format and the multi-task classifier bank.

A checkpoint is a text manifest followed by raw parameter data:

    fundusvit-checkpoint v1
    model.<field> = <value>        (architecture)
    prep.<field> = <value>         (preprocessing the model was trained with)
    task = <glaucoma|feature1..feature10>
    tensor <name> <d0>x<d1>... @ <byte offset>
    ---
    <little-endian float32 arrays, manifest order>

Offsets are relative to the first byte after the ``---`` line. A file holds
one task, a K = 1 stack whose task axis the tensor lines leave out.
Round-trips are bit-exact for float32 models.

``_header`` alone defines the manifest: a header loads only if it is the
exact bytes ``_header`` writes for the ``model.*``, ``prep.*`` and ``task``
values it names, so a missing, repeated or reordered line, or a value
spelled otherwise, is refused rather than read with a default.

``load_checkpoint`` and ``load_bank`` share one reader. A bank load opens
each member file once, reads its header in chunks up to the ``---`` line
and parses each distinct header text, less its ``task = `` line, once: the
members one run writes share it, so an 11-member bank parses one header.
Each member's payload is read from its file straight into its row of one
C-contiguous (K, P) float32 block, in task order, and checked finite; every
parameter of the single task-stacked ``DualHeadViT`` is a (K, ...) view of
that block's columns. No per-member model is built.
"""

from __future__ import annotations

import math
import os
import stat
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO

import numpy as np

from . import kv
from .atomic import write_atomic
from .dataset import TASKS, PreprocessOptions
from .model import DualHeadViT, ModelConfig

MAGIC = "fundusvit-checkpoint v1"
_END = b"\n---\n"  # ends the header
_CHUNK = 8192  # bytes per header read; a depth-4 header (about 3.5 KB) takes one


class IncompatibleCheckpointError(ValueError):
    """Checkpoint contents do not match the requested configuration."""


def _layout(shapes) -> tuple[list[str], int]:
    """Header lines for float32 arrays stored back to back, and their bytes."""
    lines, offset = [], 0
    for name, shape in shapes:
        lines.append(f"tensor {name} {'x'.join(map(str, shape))} @ {offset}")
        offset += 4 * math.prod(shape)
    return lines, offset


def _header(config: ModelConfig, prep: PreprocessOptions, task: str,
            tensor_lines: list[str]) -> bytes:
    """The manifest bytes before ``---``: ASCII for every setting the configs
    accept, latin-1 so that any text a reader decodes maps back to its bytes."""
    return "\n".join([MAGIC, *kv.dump("model", config), *kv.dump("prep", prep),
                      f"task = {task}", *tensor_lines]).encode("latin-1")


def save_checkpoint(path: str | Path, model: DualHeadViT,
                    prep: PreprocessOptions, task: str) -> None:
    """Write ``model``, a stack of K = 1, as ``task``'s checkpoint."""
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}")
    if model.n_tasks != 1:
        raise ValueError(f"a checkpoint holds one task, got a stack of {model.n_tasks}")
    tensor_lines, _ = _layout(model.parameter_shapes(model.config))
    payload = [np.ascontiguousarray(t.data, dtype="<f4").tobytes()
               for t in model.params.values()]
    write_atomic(path, b"".join([_header(model.config, prep, task, tensor_lines),
                                 b"\n---\n", *payload]))


@dataclass(frozen=True)
class _Header:
    """A checkpoint header without its task: the settings and the payload
    layout they imply."""

    config: ModelConfig
    prep: PreprocessOptions
    shapes: list[tuple[str, tuple[int, ...]]]
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


def _parse_header(path: Path, head: bytes) -> tuple[_Header, str]:
    """Parse the header bytes before ``---``: the settings and task it
    names, accepted only if ``_header`` writes exactly ``head`` for them."""
    values: dict[str, dict[str, str]] = {"model": {}, "prep": {}}
    task = ""
    for line in head.decode("latin-1").split("\n"):
        key, _, value = line.partition(" = ")
        section, _, name = key.partition(".")
        if section in values:
            values[section][name] = value
        elif key == "task":
            task = value
    try:
        config = kv.build(ModelConfig, "model", values["model"])
        prep = kv.build(PreprocessOptions, "prep", values["prep"])
    except ValueError as exc:
        raise IncompatibleCheckpointError(f"{path}: {exc}") from None
    shapes = DualHeadViT.parameter_shapes(config)
    tensor_lines, size = _layout(shapes)
    expected = _header(config, prep, task, tensor_lines)
    if head != expected:
        raise IncompatibleCheckpointError(f"{path}: {_first_difference(head, expected)}")
    if task not in TASKS:
        raise IncompatibleCheckpointError(f"{path}: unknown task {task!r}")
    return _Header(config, prep, shapes, size), task


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


def _read_header(file: BinaryIO, path: Path, parsed: dict[tuple[bytes, bytes], _Header]
                 ) -> tuple[_Header, str, bytearray]:
    """Read ``file`` up to its ``---`` line and accept its header: the
    header, its task, and the payload bytes read past the terminator.

    ``parsed`` maps the header texts accepted before, split around their
    ``task = `` line, to their parsed headers. Members written by one run
    differ only in that line, so a header found there is not parsed again:
    an accepted header is canonical, so its task line is unique and whole,
    and the same text around a known task is that task's canonical header.
    """
    data, searched = bytearray(), 0
    while (end := data.find(_END, searched)) < 0:
        chunk = file.read(_CHUNK)
        if not chunk:  # no terminator: the whole file is the header
            end = len(data)
            break
        searched = max(0, len(data) - len(_END) + 1)
        data += chunk
    head, spill = bytes(data[:end]), data[end + len(_END):]
    before, _, after = head.partition(b"\ntask = ")
    value, _, rest = after.partition(b"\n")
    task = value.decode("latin-1")
    header = parsed.get((before, rest)) if task in TASKS else None
    if header is None:
        header, task = _parse_header(path, head)
        parsed[before, rest] = header
    size = max(0, os.fstat(file.fileno()).st_size - end - len(_END))
    if size != header.size:
        raise IncompatibleCheckpointError(
            f"{path}: payload size {size} out of range, expected {header.size} bytes")
    return header, task, spill


def _read_payload(file: BinaryIO, path: Path, spill: bytearray, row: np.ndarray
                  ) -> None:
    """Fill ``row`` with the payload: ``spill``, then the rest of ``file``,
    read straight into it; the row must come out whole and finite."""
    view = memoryview(row).cast("B")
    filled = len(spill)
    view[:filled] = spill
    while filled < len(view) and (count := file.readinto(view[filled:])):
        filled += count
    if filled != len(view):
        raise IncompatibleCheckpointError(
            f"{path}: payload size {filled} out of range, expected {len(view)} bytes")
    if not np.isfinite(row).all():
        raise IncompatibleCheckpointError(f"{path}: non-finite parameter values")


def _load(paths: list[Path]) -> tuple[_Header, tuple[str, ...], np.ndarray]:
    """Read the checkpoint files ``paths``, each whole before the next:
    their shared header, their tasks in ``TASKS`` order, and one
    C-contiguous (K, P) float32 block whose row k is task k's payload.
    Several files fill the rows of their ``TASKS`` indices, kept only where
    a file was read; one file is row 0."""
    parsed: dict[tuple[bytes, bytes], _Header] = {}
    rows: dict[str, int] = {}
    first = block = None
    for path in paths:
        with _open(path) as file:
            header, task, spill = _read_header(file, path, parsed)
            if task in rows:
                raise IncompatibleCheckpointError(f"{path}: duplicate task {task!r}")
            if first is None:
                first = header
                block = np.empty((len(TASKS) if len(paths) > 1 else 1, header.size // 4),
                                 dtype="<f4")
            elif (header.config, header.prep) != (first.config, first.prep):
                raise IncompatibleCheckpointError(
                    f"{path}: configuration differs from the rest of the bank")
            rows[task] = TASKS.index(task) if len(block) > 1 else 0
            _read_payload(file, path, spill, block[rows[task]])
    tasks = tuple(task for task in TASKS if task in rows)
    if len(tasks) < len(block):
        block = block[[rows[task] for task in tasks]]
    return first, tasks, block


def _stacked(header: _Header, block: np.ndarray) -> DualHeadViT:
    """The task stack whose parameters are column views of ``block``, one
    payload per row: ``block[:, offset:offset + n]`` shaped (K, ...)."""
    arrays, offset = {}, 0
    for name, shape in header.shapes:
        count = math.prod(shape)
        arrays[name] = block[:, offset:offset + count].reshape(len(block), *shape)
        offset += count
    return DualHeadViT.from_arrays(header.config, arrays)


def load_checkpoint(path: str | Path) -> tuple[DualHeadViT, PreprocessOptions, str]:
    """Read a checkpoint, accepting only the exact layout ``save_checkpoint``
    writes: every parameter once, in order, at cumulative offsets, with no
    trailing bytes and only finite values. The model is a stack of K = 1."""
    header, (task,), block = _load([Path(path)])
    return _stacked(header, block), header.prep, task


@dataclass
class ClassifierBank:
    """Independently trained per-task classifiers sharing one architecture
    and preprocessing, held as one task stack: task k of ``stacked`` is
    ``tasks[k]``; tasks skipped at training time are in ``skipped``."""

    tasks: tuple[str, ...]
    stacked: DualHeadViT
    prep: PreprocessOptions
    skipped: dict[str, str] = field(default_factory=dict)

    @property
    def config(self) -> ModelConfig:
        return self.stacked.config

    @property
    def models(self) -> tuple[str, ...]:
        """``tasks``, under the name the benchmark harness reads."""
        return self.tasks


def load_bank(path: str | Path) -> ClassifierBank:
    """Load a bank from a single checkpoint file or a directory of
    ``<task>.ckpt`` files, stacked in task order; every member must share
    one architecture and preprocessing. Each file is read once, each
    distinct header parsed once, and each member's payload is read straight
    into its row of the task stack's one parameter block; no per-member
    model is built."""
    path = Path(path)
    if path.is_file():
        candidates = [path]
    elif path.is_dir():
        candidates = sorted(path.glob("*.ckpt"))
        if not candidates:
            raise FileNotFoundError(f"no *.ckpt files under {path}")
    else:
        raise FileNotFoundError(f"checkpoint path not found: {path}")
    header, tasks, block = _load(candidates)
    if "glaucoma" not in tasks:
        raise IncompatibleCheckpointError(f"{path}: bank has no glaucoma classifier")
    return ClassifierBank(tasks, _stacked(header, block), header.prep)
