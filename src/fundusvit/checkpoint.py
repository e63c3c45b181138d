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

``load_checkpoint`` and ``load_bank`` share one reader. A bank load reads
each member file once and parses each distinct header text, less its
``task = `` line, once: the members one run writes share it, so an
11-member bank parses one header. Each member's payload is checked finite
and copied once, straight into the per-parameter (K, ...) arrays of a
single task-stacked ``DualHeadViT``; no per-member model is built.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class _Header:
    """A checkpoint header without its task: the settings and the payload
    layout they imply."""

    config: ModelConfig
    prep: PreprocessOptions
    shapes: list[tuple[str, tuple[int, ...]]]
    size: int


def _parse_header(path: Path, head: bytes) -> tuple[_Header, str]:
    """Parse the header bytes before ``---``, accepting only the exact
    layout ``save_checkpoint`` writes."""
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
    return _Header(config, prep, shapes, size), task


def _read(path: Path, parsed: dict[tuple[bytes, bytes], _Header]
          ) -> tuple[_Header, str, np.ndarray]:
    """Read one checkpoint file once: its header, task and payload (a
    read-only float32 view of the file's bytes, checked finite).

    ``parsed`` maps the header texts seen before, split around their
    ``task = `` line, to their parsed headers. Members written by one run
    differ only in that line, so a header found there is not parsed again;
    the text around the line is known valid and the line holds a known
    task, so parsing it would give that header and task.
    """
    if not path.is_file():
        raise FileNotFoundError(f"checkpoint not found: {path}")
    head, sep, binary = path.read_bytes().partition(b"\n---\n")
    if not sep:
        raise IncompatibleCheckpointError(f"{path}: missing header terminator")
    before, found, after = head.partition(b"\ntask = ")
    value, _, rest = after.partition(b"\n")
    task = value.decode("latin-1")
    header = parsed.get((before, rest)) if found and task in TASKS else None
    if header is None:
        header, parsed_task = _parse_header(path, head)
        if found and parsed_task == task:  # the task line is a whole line
            parsed[before, rest] = header
        task = parsed_task
    if len(binary) != header.size:
        raise IncompatibleCheckpointError(
            f"{path}: payload size {len(binary)} out of range, "
            f"expected {header.size} bytes")
    payload = np.frombuffer(binary, dtype="<f4")
    if not np.isfinite(payload).all():
        raise IncompatibleCheckpointError(f"{path}: non-finite parameter values")
    return header, task, payload


def _stacked(header: _Header, payloads: list[np.ndarray]) -> DualHeadViT:
    """The task stack of ``payloads`` (one per task, in order): each is
    copied once, straight into per-parameter (K, ...) float32 arrays."""
    arrays, offset = {}, 0
    for name, shape in header.shapes:
        count = math.prod(shape)
        arrays[name] = np.concatenate([p[offset:offset + count] for p in payloads],
                                      dtype=np.float32).reshape(len(payloads), *shape)
        offset += count
    return DualHeadViT.from_arrays(header.config, arrays)


def load_checkpoint(path: str | Path) -> tuple[DualHeadViT, PreprocessOptions, str]:
    """Read a checkpoint, accepting only the exact layout ``save_checkpoint``
    writes: every parameter once, in order, at cumulative offsets, with no
    trailing bytes and only finite values."""
    header, task, payload = _read(Path(path), {})
    return _stacked(header, [payload]).member(0), header.prep, task


class _Members(Mapping):
    """A bank's task -> member classifier map, in task order; a member (a
    view into the task stack) is made only when looked up."""

    def __init__(self, bank: "ClassifierBank"):
        self._bank = bank

    def __getitem__(self, task: str) -> DualHeadViT:
        if task not in self._bank.tasks:
            raise KeyError(task)
        return self._bank.stacked.member(self._bank.tasks.index(task))

    def __contains__(self, task) -> bool:
        return task in self._bank.tasks

    def __iter__(self):
        return iter(self._bank.tasks)

    def __len__(self) -> int:
        return len(self._bank.tasks)


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
    def models(self) -> Mapping[str, DualHeadViT]:
        return _Members(self)


def load_bank(path: str | Path) -> ClassifierBank:
    """Load a bank from a single checkpoint file or a directory of
    ``<task>.ckpt`` files, stacked in task order; every member must share
    one architecture and preprocessing. Each file is read once, each
    distinct header parsed once, and the members' payloads are copied into
    one task stack; no per-member model is built."""
    path = Path(path)
    if path.is_file():
        candidates = [path]
    elif path.is_dir():
        candidates = sorted(path.glob("*.ckpt"))
        if not candidates:
            raise FileNotFoundError(f"no *.ckpt files under {path}")
    else:
        raise FileNotFoundError(f"checkpoint path not found: {path}")
    parsed: dict[tuple[bytes, bytes], _Header] = {}
    payloads: dict[str, np.ndarray] = {}
    first = None
    for ckpt in candidates:
        header, task, payload = _read(ckpt, parsed)
        if task in payloads:
            raise IncompatibleCheckpointError(f"{ckpt}: duplicate task {task!r}")
        if first is None:
            first = header
        elif (header.config, header.prep) != (first.config, first.prep):
            raise IncompatibleCheckpointError(
                f"{ckpt}: configuration differs from the rest of the bank")
        payloads[task] = payload
    if "glaucoma" not in payloads:
        raise IncompatibleCheckpointError(f"{path}: bank has no glaucoma classifier")
    tasks = tuple(task for task in TASKS if task in payloads)
    return ClassifierBank(tasks, _stacked(first, [payloads[task] for task in tasks]),
                          first.prep)
