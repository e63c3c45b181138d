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

``load_checkpoint`` and ``load_bank`` share one reader. A bank load reads
each member file once and parses each distinct header text, less its
``task = `` line, once: the members one run writes share it, so an
11-member bank parses one header. Each member's payload is checked finite
and copied once, straight into the per-parameter (K, ...) arrays of a
single task-stacked ``DualHeadViT``; no per-member model is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import kv
from .atomic import write_atomic
from .dataset import TASKS, PreprocessOptions
from .model import DualHeadViT, ModelConfig

MAGIC = "fundusvit-checkpoint v1"


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


def _read(path: Path, parsed: dict[tuple[bytes, bytes], _Header]
          ) -> tuple[_Header, str, np.ndarray]:
    """Read one checkpoint file once: its header, task and payload (a
    read-only float32 view of the file's bytes, checked finite).

    ``parsed`` maps the header texts accepted before, split around their
    ``task = `` line, to their parsed headers. Members written by one run
    differ only in that line, so a header found there is not parsed again:
    an accepted header is canonical, so its task line is unique and whole,
    and the same text around a known task is that task's canonical header.
    """
    if not path.is_file():
        raise FileNotFoundError(f"checkpoint not found: {path}")
    head, _, binary = path.read_bytes().partition(b"\n---\n")
    before, _, after = head.partition(b"\ntask = ")
    value, _, rest = after.partition(b"\n")
    task = value.decode("latin-1")
    header = parsed.get((before, rest)) if task in TASKS else None
    if header is None:
        header, task = _parse_header(path, head)
        parsed[before, rest] = header
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
    trailing bytes and only finite values. The model is a stack of K = 1."""
    header, task, payload = _read(Path(path), {})
    return _stacked(header, [payload]), header.prep, task


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
